"""Diagonal sequences of banded blocks.

A DiagonalSeq is a finite prefix of explicit entries followed by a tail
that is either exactly the limit (Exact tier), produced by a rational
entry rule (Asymptotic tier with exact entries and a derived decay
certificate), or unknown within a declared decay envelope (Asymptotic
tier without entries; only limit-based analysis is possible).
"""

from fractions import Fraction

from .errors import UncertifiedTail
from .ratfn import RationalFn
from .scalars import Scalar, ZERO

EXACT = "exact"
ASYMPTOTIC = "asymptotic"


class DiagonalSeq:
    __slots__ = ("prefix", "limit", "rule", "decay")

    def __init__(self, prefix=(), limit=ZERO, rule=None, decay=None):
        prefix = tuple(Scalar.of(v) for v in prefix)
        if rule is not None:
            if len(prefix) < rule.valid_from:
                raise UncertifiedTail(
                    "entry rule is only valid beyond the supplied prefix")
            lim = rule.limit()
            limit = Scalar.exact(lim)
            c, p = rule.decay()
            derived = (float(c), float(p))
            decay = derived if decay is None else (min(decay[0], derived[0]),
                                                   max(decay[1], derived[1]))
            if rule.is_const():
                # constant rules collapse to the Exact tier
                rule, decay = None, None
        else:
            limit = Scalar.of(limit)
        if decay is not None:
            c, p = float(decay[0]), float(decay[1])
            if p <= 0:
                raise UncertifiedTail("decay certificate needs p > 0")
            decay = (c, p)
        self.prefix = prefix
        self.limit = limit
        self.rule = rule
        self.decay = decay
        self._canonicalize()

    def _canonicalize(self):
        pre = list(self.prefix)
        while pre:
            i = len(pre) - 1
            if self.rule is not None and i < self.rule.valid_from:
                break
            tail_val = self._tail_entry(i)
            if tail_val is not None and pre[i] == tail_val:
                pre.pop()
            else:
                break
        self.prefix = tuple(pre)

    # -- entries ------------------------------------------------------------

    def _tail_entry(self, i):
        if self.rule is not None:
            return Scalar.exact(self.rule.eval(i))
        if self.decay is None:
            return self.limit
        return None  # declared envelope only

    def entry(self, i):
        if i < 0:
            raise IndexError("negative diagonal index")
        if i < len(self.prefix):
            return self.prefix[i]
        v = self._tail_entry(i)
        if v is None:
            raise UncertifiedTail(
                "diagonal has a decay envelope but no entry rule beyond its prefix")
        return v

    def entry_approx(self, i):
        """(value, uncertainty): exact entry with zero radius when available,
        otherwise the limit with the certified envelope radius."""
        if i < len(self.prefix):
            return self.prefix[i], 0.0
        v = self._tail_entry(i)
        if v is not None:
            return v, 0.0
        return self.limit, self.decay[0] / (i + 1) ** self.decay[1]

    @property
    def tier(self):
        return EXACT if (self.rule is None and self.decay is None) else ASYMPTOTIC

    def has_entries(self):
        return self.rule is not None or self.decay is None

    def is_zero(self):
        return (not self.prefix and self.limit.is_zero() and self.rule is None
                and self.decay is None)

    def is_exact_scalars(self):
        return all(v.is_exact for v in self.prefix) and self.limit.is_exact

    # -- bounds -------------------------------------------------------------

    def sup_bound(self):
        """Upper bound on sup_i |entry(i)| (float)."""
        m = max((abs(v) for v in self.prefix), default=0.0)
        tail = abs(self.limit)
        if self.decay is not None:
            tail += self.decay[0] / (len(self.prefix) + 1) ** self.decay[1]
        return max(m, tail)

    def tail_dev_bound(self, i):
        """Upper bound on |entry(j) - limit| for all j >= max(i, len(prefix))."""
        if self.decay is None:
            return 0.0
        j = max(i, len(self.prefix))
        return self.decay[0] / (j + 1) ** self.decay[1]

    # -- pointwise rebuild ops ------------------------------------------------

    def scaled(self, c):
        c = Scalar.of(c)
        pre = [c * v for v in self.prefix]
        if self.rule is not None:
            if c.is_exact and c.is_real():
                return DiagonalSeq(pre, rule=self.rule.scale(Fraction(c.re)))
            # non-real or floating coefficient: keep the envelope only
            return DiagonalSeq(pre, c * self.limit,
                               decay=(self.decay[0] * abs(c), self.decay[1]))
        if self.decay is not None:
            return DiagonalSeq(pre, c * self.limit,
                               decay=(self.decay[0] * abs(c), self.decay[1]))
        return DiagonalSeq(pre, c * self.limit)

    def conjugated(self):
        pre = [v.conj() for v in self.prefix]
        # rules are real valued, conjugation leaves them alone
        return DiagonalSeq(pre, self.limit.conj(), self.rule, self.decay)

    def with_prefix_len(self, n):
        """Entries 0..n-1 made explicit (requires entries to exist)."""
        if n <= len(self.prefix):
            return self
        pre = [self.entry(i) for i in range(n)]
        return DiagonalSeq(pre, self.limit, self.rule, self.decay)

    def structurally_equal(self, other):
        if len(self.prefix) != len(other.prefix):
            return False
        if any(a != b for a, b in zip(self.prefix, other.prefix)):
            return False
        if self.limit != other.limit:
            return False
        if (self.rule is None) != (other.rule is None):
            return False
        if self.rule is not None and self.rule != other.rule:
            return False
        return self.decay == other.decay

    def __repr__(self):
        bits = [f"prefix={[str(complex(v)) for v in self.prefix]}",
                f"limit={complex(self.limit)}"]
        if self.rule is not None:
            bits.append("rule")
        elif self.decay is not None:
            bits.append(f"decay={self.decay}")
        return "DiagonalSeq(" + ", ".join(bits) + ")"


def combine_diagonals(parts):
    """Entrywise linear combination of [(coeff: Scalar, DiagonalSeq)]."""
    parts = [(Scalar.of(c), d) for c, d in parts]
    pre_len = max((len(d.prefix) for _, d in parts), default=0)
    limit = ZERO
    for c, d in parts:
        limit = limit + c * d.limit
    rules = []
    envelope = False
    for c, d in parts:
        if d.rule is not None:
            if c.is_exact and c.is_real():
                rules.append(d.rule.scale(Fraction(c.re)))
            else:
                envelope = True
        elif d.decay is not None:
            envelope = True
    rule = None
    if rules and not envelope:
        acc = rules[0]
        for r in rules[1:]:
            acc = acc + r
        consts = ZERO
        for c, d in parts:
            if d.rule is None and d.decay is None:
                consts = consts + c * d.limit
        if consts.is_zero():
            rule = acc
        elif consts.is_exact and consts.is_real():
            rule = acc + RationalFn.const(Fraction(consts.re))
        else:
            envelope = True
    pre = [sum((c * d.entry(i) for c, d in parts), ZERO) for i in range(pre_len)]
    if envelope:
        c_tot, p_min = 0.0, None
        for c, d in parts:
            if d.decay is not None:
                c_tot += abs(c) * d.decay[0]
                p_min = d.decay[1] if p_min is None else min(p_min, d.decay[1])
        return DiagonalSeq(pre, limit,
                           decay=(c_tot, p_min if p_min is not None else 1.0))
    if rule is not None:
        return DiagonalSeq(pre, rule=rule)
    return DiagonalSeq(pre, limit)

"""Spectral data for self-adjoint members of the representable class:
Toeplitz symbols, essential spectra, positive-operator summaries with
eigenspaces, modulus summaries, diagonalization, and kernel dimensions.

T*T and TT* are built here only (`gram`, `cogram`). A call decorated with
`shares_derived` opens a memo in which they, the modulus summaries (per tol
and trunc) and other `memoised` objects are built once per operator; nested
calls join the outermost memo, which is dropped when that call returns.

A real spectral value of a positive-operator summary (an eigenvalue, the
norm, the essential minimum) is one Python number: a Fraction when the
summary proved it exactly, a float otherwise, as `Scalar.re` returns it.
Tolerance tests and printed figures read it through float().

The finite corner of an exact structured summary is split once into the
connected blocks of its off-diagonal pattern (`exactla.connected_blocks`).
A 1x1 block's entry is an exact eigenvalue with unit eigenvector e_k; a
larger block's eigenvectors come from exact elimination of that block alone,
at candidates read off the corner's float eigenvalues. A corner of 1x1
blocks only, the usual T*T and TT* corner of U (+) D, needs no elimination,
and up to n = 64 (`JACOBI_MAX_N`) no float eigensolver either:
`jacobi.diagonal_pairs` builds the pairs `sym_eigen` would return.
"""

import contextvars
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .blocks import BandedBlock
from .errors import (FiniteComponent, NotPositive, NotSelfAdjoint,
                     UncertifiedTail)
from .exactla import _unit, connected_blocks, kernel_basis
from .jacobi import diagonal_pairs, sym_eigen
from .operators import (adjoint, corner_sizes, dense_window, multiply,
                        ops_equal_exact, truncate, window_layout)
from .ratfn import RationalFn
from .scalars import Scalar, ZERO, scalar_sqrt
from .subspaces import Subspace
from .vectors import VectorExpr

THETA_SAMPLES = 4096
_STREAM_PAIRS = 64  # eigenpairs positive_an_diagonalize lists per stream

COMP_CONST = "const"
COMP_DIAGRULE = "diagrule"
COMP_SYMBOLIC = "symbolic"
COMP_UNCERTIFIED = "uncertified"


# -- symbols ---------------------------------------------------------------------

@dataclass
class Symbol:
    """Trigonometric polynomial formed from the diagonal limits."""

    coeffs: dict

    def eval_theta(self, theta):
        """Value at an angle or an array of angles. Complex products are
        spelled out in real arithmetic (numpy's complex array product rounds
        unlike its scalar one), so an array matches single angles bit for bit."""
        re = im = 0.0
        for j, c in self.coeffs.items():
            c, e = complex(c), np.exp(1j * j * theta)
            re = re + (c.real * e.real - c.imag * e.imag)
            im = im + (c.real * e.imag + c.imag * e.real)
        return re + 1j * im

    def is_real(self):
        for j, c in self.coeffs.items():
            other = self.coeffs.get(-j, ZERO)
            if Scalar.of(other) != Scalar.of(c).conj():
                return False
        return True

    def is_constant(self):
        return all(j == 0 or Scalar.of(c).is_zero() for j, c in self.coeffs.items())

    def constant_value(self):
        return self.coeffs.get(0, ZERO)

    def range_real(self, tol=1e-10):
        """[min, max] of the (real) symbol by dense sampling plus local
        refinement of the bracketing extrema."""
        thetas = np.linspace(0.0, 2.0 * math.pi, THETA_SAMPLES, endpoint=False)
        vals = self.eval_theta(thetas).real
        lo = self._refine(thetas, np.argmin(vals), sign=+1, tol=tol)
        hi = -self._refine(thetas, np.argmax(vals), sign=-1, tol=tol)
        return lo, hi

    def _refine(self, thetas, idx, sign, tol):
        step = 2.0 * math.pi / len(thetas)
        a = thetas[idx] - step
        b = thetas[idx] + step
        f = lambda t: sign * self.eval_theta(t).real
        while b - a > tol * 1e-2 + 1e-15:
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            if f(m1) <= f(m2):
                b = m2
            else:
                a = m1
        return f(0.5 * (a + b))


def symbol(op, component):
    """Symbol of the banded diagonal block of an l2 component."""
    if op.spaces[component].kind != "l2":
        raise FiniteComponent(f"component {component} is finite")
    blk = op.blocks.get((component, component))
    if blk is None:
        return Symbol({0: ZERO})
    return Symbol({j: d.limit for j, d in blk.diagonals.items()})


# -- self-adjointness ---------------------------------------------------------------

def _window_norm_bound(d):
    """Float bound on ||d||: the Frobenius norm of a covering window plus
    the tail limits and decay constants of the banded diagonals."""
    if not d.blocks:
        return 0.0
    bound = float(np.linalg.norm(truncate(d, max(corner_sizes(d)) + 2).matrix))
    for blk in d.blocks.values():
        if isinstance(blk, BandedBlock):
            bound += sum(abs(s.limit) + (s.decay[0] if s.decay else 0.0)
                         for s in blk.diagonals.values())
    return bound


def _blocks_identical(a, b):
    # a and b share their spaces, so the blocks at one position share a kind
    return a.blocks.keys() == b.blocks.keys() and all(
        blk.structurally_equal(b.blocks[pos]) for pos, blk in a.blocks.items())


def _entries_available(op):
    for blk in op.blocks.values():
        if hasattr(blk, "diagonals"):
            for d in blk.diagonals.values():
                if not d.has_entries():
                    return False
    return True


def check_self_adjoint(op, tol):
    adj = adjoint(op)
    if _blocks_identical(op, adj):
        return
    if op.is_exact_scalars() and _entries_available(op):
        if ops_equal_exact(op, adj):
            return
        raise NotSelfAdjoint("operator differs from its adjoint")
    if _window_norm_bound(op - adj) > tol:
        raise NotSelfAdjoint("operator differs from its adjoint beyond tol")


# -- essential spectrum ----------------------------------------------------------------

def _merge_pieces(pieces, tol=1e-10):
    points, intervals = [], []
    for p in pieces:
        if p[0] == "point":
            points.append(p[1])
        else:
            intervals.append((p[1], p[2]))
    intervals.sort()
    merged = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1] + tol:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    out_points = []
    for p in points:
        pf = float(p.re)
        if any(lo - tol <= pf <= hi + tol for lo, hi in merged):
            continue
        if any(_same_value(p.re, q.re, tol) for q in out_points):
            continue
        out_points.append(p)
    out = [("interval", lo, hi) for lo, hi in merged]
    out += [("point", p) for p in out_points]
    return sorted(out, key=lambda t: t[1] if t[0] == "interval" else float(t[1].re))


def _same_value(a, b, tol):
    """Whether two real values agree: exactly when both are exact, else
    within tol."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return abs(float(a) - float(b)) <= tol


def essential_spectrum(op, tol=1e-10):
    """Union over l2 components of the real symbol's range; compact
    deviations certified by decay bounds contribute nothing."""
    check_self_adjoint(op, tol)
    return _merge_pieces([_symbol_piece(op, i, tol) for i in op.l2_components()],
                         tol)


def _symbol_piece(op, i, tol):
    """('point', c) or ('interval', lo, hi): the range of the real symbol of
    component i."""
    sym = symbol(op, i)
    if not sym.is_real():
        raise NotSelfAdjoint("component symbol is not real")
    if sym.is_constant():
        return ("point", sym.constant_value())
    return ("interval",) + sym.range_real(tol)


def ess_points(pieces):
    """Spectrum pieces as floats (intervals widen to their endpoints)."""
    out = []
    for p in pieces:
        if p[0] == "point":
            out.append(float(p[1].re))
        else:
            out.append(p[1])
            out.append(p[2])
    return out


# -- derived objects -------------------------------------------------------------------

_MEMO = contextvars.ContextVar("anop_derived", default=None)


def shares_derived(fn):
    """Run fn inside a memo of derived objects, joining one already open."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        memo = _MEMO.get()
        token = _MEMO.set({} if memo is None else memo)
        try:
            return fn(*args, **kwargs)
        finally:
            _MEMO.reset(token)
    return scoped


def memoised(key, t, build):
    """build(), made once per (key, t) while a memo is open (t stays alive)."""
    memo = _MEMO.get()
    if memo is None:
        return build()
    if (key, id(t)) not in memo:
        memo[key, id(t)] = (t, build())
    return memo[key, id(t)][1]


def gram(t):
    """T*T."""
    return memoised("gram", t, lambda: multiply(adjoint(t), t))


def cogram(t):
    """TT*."""
    return memoised("cogram", t, lambda: multiply(t, adjoint(t)))


# -- positive summaries -------------------------------------------------------------------

@dataclass
class EigStream:
    """Eigenvalue sequence fn(k), k >= start, of a rule-governed diagonal
    tail; each value is an eigenvalue with eigenvector e_k."""
    comp: int
    start: int
    fn: RationalFn

    def count_below(self, bound):
        """#{k >= start: fn(k) < bound}; int, 'infinite' or 'unknown'. A
        count n means the values below the bound are those at start..start+n-1.
        A float bound is read as a rational of denominator at most 10^9."""
        if not isinstance(bound, Fraction):
            bound = Fraction(bound).limit_denominator(10 ** 9)
        runs = self.fn.sub_const(bound).runs_from(self.start)
        if len(runs) == 1:
            return 0 if runs[0][1] >= 0 else "infinite"
        # mixed signs: a decreasing stream would end below the bound
        if self.fn.limit() < bound:
            return "infinite"
        if self.fn.monotone_from(self.start) != "inc":
            return "unknown"
        # entries climb past the bound; count the initial run below it
        count = runs[1][0] - self.start if runs[0][1] < 0 else 0
        return "unknown" if count > 100000 else count


@dataclass
class DiscreteEig:
    value: object                     # Fraction when exact, else float
    mult: int
    source: str = "corner"


class SpectralSummary:
    """Spectral facts for a positive operator: essential spectrum, discrete
    eigenvalues, norm, minimum modulus and essential minimum modulus, plus
    lazily computed eigenspaces."""

    def __init__(self, op, tol):
        self.op = op
        self.tol = tol
        self.tier = "numerical"
        self.ess = []
        self.discrete = []
        self.streams = []
        self.c0s = {}
        self.norm = 0.0
        self.m = 0.0
        self.m_e = 0.0
        self._corner = None
        self._corner_sizes = None
        self._corner_pairs = None
        self._blocks = None
        self._window = None
        self._exact_eigs = {}
        self._path = None

    # serialization of just the summary facts
    def to_json(self):
        return {"ess": _ess_to_json(self.ess),
                "discrete": [{"value": float(d.value), "mult": d.mult,
                              **({"exact": str(d.value)}
                                 if isinstance(d.value, Fraction) else {})}
                             for d in self.discrete],
                "norm": float(self.norm), "m": self.m, "m_e": float(self.m_e),
                "tier": "Exact" if self.tier == "exact" else "Numerical"}


def _ess_to_json(ess):
    from .serialize import scalar_to_json
    out = []
    for p in ess:
        if p[0] == "point":
            out.append({"point": scalar_to_json(p[1])})
        else:
            out.append({"interval": [p[1], p[2]]})
    return out


def _classify_component(op, i):
    blk = op.blocks.get((i, i))
    if blk is None:
        return COMP_CONST
    has_rule = False
    for j, d in blk.diagonals.items():
        if d.rule is not None:
            if j != 0:
                return COMP_UNCERTIFIED
            has_rule = True
        elif d.decay is not None:
            return COMP_UNCERTIFIED
    if has_rule:
        if blk.bandwidth == 0:
            return COMP_DIAGRULE
        return COMP_UNCERTIFIED
    sym = symbol(op, i)
    return COMP_CONST if sym.is_constant() else COMP_SYMBOLIC


def positive_spectral_summary(p, tol=1e-10, trunc=256):
    """Summary of a self-adjoint positive-semidefinite operator."""
    check_self_adjoint(p, tol)
    s = SpectralSummary(p, tol)
    classes = {i: _classify_component(p, i) for i in p.l2_components()}
    if any(c == COMP_UNCERTIFIED for c in classes.values()):
        raise UncertifiedTail("component tail is not in the certified class")
    if all(c in (COMP_CONST, COMP_DIAGRULE) for c in classes.values()):
        _structured_summary(s, classes, trunc)
    else:
        _symbolic_summary(s, classes, trunc)
    return s


def _corner_blocks(corner):
    """The connected blocks of the off-diagonal pattern of a square corner,
    as increasing index lists; every index lies in one. The pattern of
    corner - lam I, and so its blocks, do not depend on lam."""
    patterns = [[i] + [j for j, v in enumerate(row) if j != i and not v.is_zero()]
                for i, row in enumerate(corner)]
    return [idx for idx, _ in connected_blocks(patterns, len(corner))]


def _corner_kernel(s, lam):
    """N(corner - lam I) for an exact real lam, one block at a time: e_k for
    a 1x1 block whose entry is lam, kernel_basis of a larger block's
    submatrix minus lam. Merged by free column, the last nonzero coordinate of
    a reduced-echelon kernel vector, this is kernel_basis of the whole."""
    corner, n = s._corner, len(s._corner)
    lam = Scalar.exact(lam)
    found = []
    for idx in s._blocks:
        if len(idx) == 1:
            if corner[idx[0]][idx[0]] == lam:
                found.append((idx[0], _unit(n, idx[0])))
            continue
        sub = [[corner[i][j] - lam if i == j else corner[i][j] for j in idx]
               for i in idx]
        for u in kernel_basis(sub):
            v = [ZERO] * n
            for i, x in zip(idx, u):
                v[i] = x
            found.append((max(i for i, x in zip(idx, u) if not x.is_zero()), v))
    return [v for _, v in sorted(found, key=lambda fv: fv[0])]


def _structured_summary(s, classes, trunc):
    p, tol = s.op, s.tol
    s._path = "structured"
    sizes = corner_sizes(p)
    s._corner_sizes = sizes
    exact_corner = p.is_exact_scalars()
    s._corner = dense_window(p, sizes)
    n = len(s._corner)
    pairs = None
    if exact_corner:
        s._blocks = _corner_blocks(s._corner)
        diag = [row[k] for k, row in enumerate(s._corner)]
        if len(s._blocks) == n and all(v.is_real() for v in diag):
            pairs = diagonal_pairs([complex(v).real for v in diag])
    if pairs is None:
        corner_np = np.array([[complex(v) for v in row] for row in s._corner])
        pairs = sym_eigen(corner_np, max(tol, 1e-12)) if n else []
    s._corner_pairs = pairs
    scale = max((abs(w) for w, _ in pairs), default=0.0) or 1.0
    # essential points
    for i, cls in classes.items():
        blk = p.blocks.get((i, i))
        if cls == COMP_CONST:
            c0 = blk.diagonals[0].limit if blk is not None and 0 in blk.diagonals \
                else ZERO
            s.c0s[i] = c0
            s.ess.append(("point", c0))
        else:
            d0 = blk.diagonals[0]
            s.streams.append(EigStream(i, sizes[i], d0.rule))
            s.ess.append(("point", Scalar.exact(d0.rule.limit())))
    s.ess = _merge_pieces(s.ess, tol)
    # positivity
    if pairs and pairs[-1][0] < -max(tol, 1e-12) * scale:
        raise NotPositive(f"corner eigenvalue {pairs[-1][0]:.3g} < 0")
    for i, c0 in s.c0s.items():
        if float(c0.re) < -tol:
            raise NotPositive(f"component {i} tail constant {float(c0.re):.3g} < 0")
    for st in s.streams:
        if st.fn.sign_from(st.start) == -1 or float(st.fn.limit()) < -tol:
            raise NotPositive("stream entries negative")
    # exact eigen refinement on the corner
    exact_values = {}
    if exact_corner:
        cands = set()
        for w, _ in pairs:
            coarse = Fraction(w).limit_denominator(10 ** 6)
            cands.add(coarse)
            if n <= 12 and abs(float(coarse) - w) > 1e-13 * scale:
                # small corner whose eigenvalue is not a small rational:
                # afford one finer attempt before settling for float data
                cands.add(Fraction(w).limit_denominator(10 ** 13))
        # diagonal entries of the window are frequent exact eigenvalues
        for k, row in enumerate(s._corner):
            v = row[k]
            if v.is_real():
                cands.add(Fraction(v.re))
        for c0 in s.c0s.values():
            cands.add(Fraction(c0.re))
        cands.add(Fraction(0))
        floats = np.array([w for w, _ in pairs]) if pairs else np.array([])
        for lam in sorted(cands):
            # an exact eigenvalue must sit next to a float one, so skip
            # candidates with no nearby float eigenvalue instead of running
            # their (empty) exact kernels
            if floats.size and np.min(np.abs(floats - float(lam))) > 1e-7 * scale:
                continue
            ker = _corner_kernel(s, lam)
            if ker:
                exact_values[lam] = ker
    s._exact_eigs = exact_values
    # cluster float eigenvalues, attribute to exact values where possible
    used = [False] * len(pairs)
    entries = []
    for lam, ker in sorted(exact_values.items(), reverse=True):
        lf = float(lam)
        hits = [k for k, (w, _) in enumerate(pairs)
                if not used[k] and abs(w - lf) <= 1e-7 * scale]
        for k in hits[:len(ker)]:
            used[k] = True
        entries.append((lam, len(ker)))
    k = 0
    while k < len(pairs):
        if used[k]:
            k += 1
            continue
        j = k
        mult = 0
        while j < len(pairs) and abs(pairs[j][0] - pairs[k][0]) <= 1e-9 * scale:
            if not used[j]:
                mult += 1
                used[j] = True
            j += 1
        entries.append((pairs[k][0], mult))
        k = j
    # split into discrete/c0 classes; exact values compare exactly so a
    # discrete eigenvalue merely float-close to a tail constant survives
    c0_vals = [c.re for c in s.c0s.values()]
    for val, mult in sorted(entries, key=lambda e: -float(e[0])):
        if not any(_same_value(val, c, 1e-9 * scale) for c in c0_vals):
            s.discrete.append(DiscreteEig(val, mult))
    # stream values listed (capped) for reporting
    for st in s.streams:
        for k in range(st.start, st.start + min(trunc, 64)):
            s.discrete.append(DiscreteEig(st.fn.eval(k), 1, source="stream"))
    s.discrete.sort(key=lambda d: -float(d.value))
    # norm / m / m_e from the refined corner entries, the tail constants and
    # the exact stream extremes; the norm is exact when the largest exact
    # candidate attains it, m_e when every essential point is exact
    highs = [val for val, _ in entries] + c0_vals
    lows = [float(v) for v in highs]
    for st in s.streams:
        st_lo, st_hi = st.fn.extremes_from(st.start)
        highs.append(st_hi)
        lows.append(float(st_lo))
    norm = max((float(v) for v in highs), default=0.0)
    top = max((v for v in highs if isinstance(v, Fraction)), default=None)
    s.norm = top if top is not None and float(top) == norm else norm
    s.m = max(min(lows, default=0.0), 0.0)
    s.m_e = min(ess_points(s.ess), default=0.0)
    if s.ess and all(p[1].is_exact for p in s.ess):
        s.m_e = min(p[1].re for p in s.ess)
    all_pairs_exact = pairs and sum(len(k) for k in exact_values.values()) == len(pairs)
    s.tier = "exact" if (exact_corner and not s.streams and
                         (not pairs or all_pairs_exact)) else "numerical"


def _symbolic_summary(s, classes, trunc):
    p, tol = s.op, s.tol
    s._path = "symbolic"
    sizes = corner_sizes(p)
    s._corner_sizes = sizes
    pieces = []
    for i in classes:
        piece = _symbol_piece(p, i, tol)
        if piece[0] == "point":
            s.c0s[i] = piece[1]
        pieces.append(piece)
    s.ess = _merge_pieces(pieces, tol)
    n1 = s._window = max(trunc, max(sizes) + 8)
    t1 = truncate(p, n1)
    w1 = np.linalg.eigvalsh(t1.matrix)
    if w1.size and w1[0] < -max(tol, 1e-12) * max(1.0, abs(w1[-1])):
        raise NotPositive(f"truncation eigenvalue {w1[0]:.3g} < 0")
    t0 = truncate(p, max(n1 // 2, max(sizes) + 4))
    w0 = np.linalg.eigvalsh(t0.matrix)

    def outside(v):
        for piece in s.ess:
            if piece[0] == "point":
                rf = float(piece[1].re)
                if abs(v - rf) <= 1e-6 * max(1.0, abs(v)):
                    return False
            else:
                if piece[1] - 1e-8 <= v <= piece[2] + 1e-8:
                    return False
        return True

    cands = [v for v in w1 if outside(v)]
    stable = [v for v in cands
              if np.any(np.abs(w0 - v) <= 1e-6 * max(1.0, abs(v)))]
    vals = []
    for v in stable:
        if not vals or abs(v - vals[-1][0]) > 1e-8 * max(1.0, abs(v)):
            vals.append([v, 1])
        else:
            vals[-1][1] += 1
    for v, mult in sorted(vals, reverse=True):
        s.discrete.append(DiscreteEig(float(v), int(mult)))
    hi_pts = ess_points(s.ess)
    s.norm = max([d.value for d in s.discrete] + hi_pts, default=0.0)
    s.m = max(min([d.value for d in s.discrete] + hi_pts, default=0.0), 0.0)
    s.m_e = min(hi_pts, default=0.0)
    s.tier = "numerical"


# -- eigenspaces ---------------------------------------------------------------------

def summary_eigenspace(s, value):
    """N(p - value I) as a Subspace (exact wherever the data allows), with
    the tolerance the summary was built with."""
    p, tol = s.op, s.tol
    value = Scalar.of(value).re
    exact_val = value if isinstance(value, Fraction) else None
    vf = float(value)
    if s._path != "structured":
        if s._corner_pairs is None:
            t1 = truncate(p, s._window)
            s._corner_pairs = sym_eigen(t1.matrix, max(tol, 1e-12))
            s._labels = t1.labels
        return Subspace.span(p.spaces,
                             _near_eigvecs(p, s._labels, s._corner_pairs, vf))
    sizes = s._corner_sizes
    starts, labels = window_layout(p.spaces, sizes)
    corner_vecs = []
    if s._corner is not None and p.is_exact_scalars() and exact_val is not None:
        ker = s._exact_eigs.get(exact_val)
        if ker is None:
            ker = _corner_kernel(s, exact_val)
        for kv in ker:
            corner_vecs.append(VectorExpr.from_flat(p.spaces, labels, kv))
    else:
        corner_vecs = _near_eigvecs(p, labels, s._corner_pairs, vf)
    tails = {}
    for i, c0 in s.c0s.items():
        if _same_value(value, c0.re, 1e-12 * max(1.0, abs(vf))):
            tails[i] = sizes[i]
    stream_vecs = []
    for st in s.streams:
        if exact_val is not None:
            # a stream's rule is never constant, so its zeros are finite
            for k in st.fn.sub_const(exact_val).zeros_from(st.start):
                stream_vecs.append(VectorExpr.basis(p.spaces, st.comp, k))
    vecs = corner_vecs + stream_vecs
    if tails:
        # extras must avoid the tail region; corner vectors do by construction
        return Subspace.cofinite(p.spaces, tails, vecs)
    return Subspace.span(p.spaces, vecs)


def _near_eigvecs(p, labels, pairs, vf):
    """Eigenvectors of the float pairs whose value lies within 1e-7 of vf,
    relative to the largest eigenvalue."""
    scale = max((abs(w) for w, _ in pairs), default=1.0)
    return [VectorExpr.from_flat(p.spaces, labels, v, 1e-13)
            for w, v in pairs if abs(w - vf) <= 1e-7 * max(1.0, scale)]


def count_spectrum_in(s, lo, hi):
    """Number of spectrum points of the summarized operator in [lo, hi);
    int, 'infinite' or 'unknown'."""
    if hi <= lo:
        return 0
    count = 0
    seen = set()
    for d in s.discrete:
        v = float(d.value)
        if d.source == "corner" and lo - 1e-12 <= v < hi - 1e-12:
            key = round(v, 9)
            if key not in seen:
                seen.add(key)
                count += 1
    for c0 in s.c0s.values():
        v = float(c0.re)
        if lo - 1e-12 <= v < hi - 1e-12:
            count += 1
    for st in s.streams:
        below = st.count_below(hi)
        if below in ("infinite", "unknown"):
            return below
        count += below
    return count


# -- modulus ------------------------------------------------------------------------

class ModulusSummary:
    """Spectral data of |T| derived from a summary of T*T by a square root
    on the value level; eigenvectors are shared (N(|T|-a) = N(T*T-a^2))."""

    def __init__(self, base):
        self.base = base
        self.ess = []
        for piece in base.ess:
            if piece[0] == "point":
                self.ess.append(("point", scalar_sqrt(piece[1])))
            else:
                self.ess.append(("interval", math.sqrt(max(piece[1], 0.0)),
                                 math.sqrt(max(piece[2], 0.0))))
        self.discrete = [DiscreteEig(math.sqrt(max(float(d.value), 0.0)), d.mult,
                                     d.source)
                         for d in base.discrete]
        self.norm = math.sqrt(max(float(base.norm), 0.0))
        self.m = math.sqrt(max(base.m, 0.0))
        self.m_e = math.sqrt(max(float(base.m_e), 0.0))
        self.tier = base.tier

    def to_json(self):
        return {"ess": _ess_to_json(self.ess),
                "discrete": [{"value": d.value, "mult": d.mult} for d in self.discrete],
                "norm": self.norm, "m": self.m, "m_e": self.m_e,
                "tier": "Exact" if self.tier == "exact" else "Numerical"}


def modulus_summary(t, tol=1e-10, trunc=256):
    """Summary of |T| = (T*T)^(1/2); its base summarises T*T."""
    return memoised(("modulus", tol, trunc), t, lambda: ModulusSummary(
        positive_spectral_summary(gram(t), tol, trunc)))


def adjoint_modulus_summary(t, tol=1e-10, trunc=256):
    """Summary of |T*| = (TT*)^(1/2); its base summarises TT*."""
    return memoised(("adjoint_modulus", tol, trunc), t, lambda: ModulusSummary(
        positive_spectral_summary(cogram(t), tol, trunc)))


# -- diagonalization of positive AN operators -----------------------------------------

@dataclass
class DiagonalizationResult:
    pairs: list                       # (value, Subspace or basis description)
    limit_point: float | None
    infinite_multiplicity_value: float | None
    clauses: dict = field(default_factory=dict)
    truncated: bool = False

    def to_json(self):
        return {"pairs": [{"value": v, "dim": (sp.dim() if sp.dim() is not None
                                               else "infinite")}
                          for v, sp in self.pairs],
                "limit_point": self.limit_point,
                "infinite_multiplicity_value": self.infinite_multiplicity_value,
                "clauses": self.clauses,
                "truncated": self.truncated}


def positive_an_diagonalize(p, tol=1e-10, trunc=256):
    """Explicit eigenpair expansion of a positive operator that passes the
    singleton-essential-spectrum criterion; the four structural clauses of
    the expansion are checked on the output and reported."""
    from .errors import NotAN
    s = positive_spectral_summary(p, tol, trunc)
    pts = [pc for pc in s.ess]
    if len(pts) != 1 or pts[0][0] != "point":
        raise NotAN("essential spectrum is not a single point")
    cnt = count_spectrum_in(s, s.m, s.m_e)
    if cnt == "infinite":
        raise NotAN("infinitely many spectrum points below the essential minimum")
    pairs = []
    truncated = False
    for d in s.discrete:
        if d.source != "corner":
            continue
        pairs.append((float(d.value), summary_eigenspace(s, d.value)))
    for st in s.streams:
        for k in range(st.start, st.start + _STREAM_PAIRS):
            pairs.append((float(st.fn.eval(k)),
                          Subspace.span(p.spaces, [VectorExpr.basis(p.spaces, st.comp, k)])))
        truncated = True
    c0_vals = sorted({float(c.re) for c in s.c0s.values()}, reverse=True)
    inf_val = c0_vals[0] if c0_vals else None
    if inf_val is not None:
        exacts = [c for c in s.c0s.values() if abs(float(c.re) - inf_val) < 1e-12]
        pairs.append((inf_val, summary_eigenspace(s, exacts[0])))
    pairs.sort(key=lambda t: -t[0])
    limit_point = None
    approached_increasing = None
    if s.streams:
        lims = sorted({float(st.fn.limit()) for st in s.streams})
        limit_point = lims[0] if len(lims) == 1 else lims
        monos = {st.fn.monotone_from(st.start) for st in s.streams}
        approached_increasing = monos == {"inc"}
    clauses = {
        "sup_attained_in_every_subset": not s.streams or
            all(st.fn.monotone_from(st.start) == "dec" for st in s.streams),
        "at_most_one_limit_point": not isinstance(limit_point, list),
        "limit_approached_increasing": approached_increasing,
        "at_most_one_infinite_multiplicity": len(c0_vals) <= 1,
        "limit_equals_infinite_multiplicity":
            (limit_point is None or inf_val is None or
             (not isinstance(limit_point, list) and
              abs(limit_point - inf_val) <= 1e-12)),
    }
    return DiagonalizationResult(pairs, limit_point if not isinstance(limit_point, list)
                                 else None, inf_val, clauses, truncated)


# -- kernel dimensions ---------------------------------------------------------------

@dataclass
class KernelDims:
    dim_t: object       # int or "infinite" or "undetermined"
    dim_t_star: object
    tier: str

    def as_tuple(self):
        return (self.dim_t, self.dim_t_star)

    def to_json(self):
        return {"dim_N_T": self.dim_t, "dim_N_T_star": self.dim_t_star,
                "tier": self.tier}


def _kernel_dim_of_positive(s):
    """(dimension, exact?) of the kernel of the operator summarised by s."""
    if s._path != "structured":
        raise UncertifiedTail(
            "kernel dimensions need constant symbols or certified diagonal "
            "tails per component")
    for i, c0 in s.c0s.items():
        if c0.is_exact and Fraction(c0.re) == 0:
            return "infinite", True
        if not c0.is_exact and abs(float(c0.re)) <= s.tol:
            return "undetermined", False
    sp = summary_eigenspace(s, Scalar.exact(0))
    d = sp.dim()
    if d is None:
        return "infinite", True
    return d, s.op.is_exact_scalars()


def kernel_dims(t, tol=1e-10, trunc=256):
    """dim N(T) and dim N(T*) through the zero eigenspaces of T*T and TT*."""
    s_q = modulus_summary(t, tol, trunc).base
    s_qq = adjoint_modulus_summary(t, tol, trunc).base
    d1, e1 = _kernel_dim_of_positive(s_q)
    d2, e2 = _kernel_dim_of_positive(s_qq)
    exact = e1 and e2 and t.is_exact_scalars()
    return KernelDims(d1, d2, "exact" if exact else "numerical")

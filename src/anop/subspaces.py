"""Closed subspaces of the ambient space that the toolkit can represent:
zero, full, finite spans, and cofinite subspaces (per-component coordinate
tails plus finitely many extra directions orthogonal to those tails)."""

from .errors import ShapeMismatch
from .exactla import kernel_basis
from .scalars import ONE, Scalar, scalar_sqrt
from .vectors import VectorExpr

ZERO_KIND, FULL, SPAN, COFINITE = "zero", "full", "span", "cofinite"


def orthogonalize(vectors, basis=()):
    """Orthogonal (unnormalized) family that, together with the orthogonal
    prefix `basis`, spans basis + vectors; the prefix is neither returned
    nor altered. Each vector keeps its residual against the prefix and the
    earlier outputs, exact when the inputs are exact. A residual is dropped
    when it is exactly zero if every input, prefix included, is exact, and
    otherwise when its float norm is at most 1e-12 * max(1, ||v||)."""
    vecs = [v for v in vectors if not v.is_zero()]
    exact = all(v.is_exact() for v in vecs + list(basis))
    done = [(u, u.norm2()) for u in basis]
    out = []
    for v in vecs:
        w = v
        for u, n2 in done:
            coef = w.inner(u) / n2
            if not coef.is_zero():
                w = w + u.scaled(Scalar.of(-1) * coef)
        if (not w.is_zero() if exact
                else w.norm_float() > 1e-12 * max(1.0, v.norm_float())):
            out.append(w)
            done.append((w, w.norm2()))
    return out


class Subspace:
    __slots__ = ("kind", "shape", "vectors", "tails")

    def __init__(self, kind, shape, vectors=(), tails=None):
        self.kind = kind
        self.shape = tuple(shape)
        self.vectors = tuple(vectors)
        self.tails = dict(tails or {})
        if kind == COFINITE:
            for ci, start in self.tails.items():
                if self.shape[ci].kind != "l2":
                    raise ShapeMismatch("tails only live on l2 components")
                for v in self.vectors:
                    if any(k >= start for k in v.data[ci]):
                        raise ShapeMismatch("extra vector meets the tail region")
            if not self.tails:
                raise ShapeMismatch("cofinite subspace needs at least one tail")
        elif kind in (ZERO_KIND, FULL):
            self.vectors = ()
            self.tails = {}

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, shape):
        return cls(ZERO_KIND, shape)

    @classmethod
    def full(cls, shape):
        return cls(FULL, shape)

    @classmethod
    def span(cls, shape, vectors):
        vecs = orthogonalize(vectors)
        if not vecs:
            return cls.zero(shape)
        return cls(SPAN, shape, vecs)

    @classmethod
    def cofinite(cls, shape, tails, extras=()):
        if not tails:
            return cls.span(shape, extras)
        tails = dict(tails)
        extras = list(orthogonalize(extras))
        # absorb pure-coordinate extras sitting right below a tail start
        changed = True
        while changed:
            changed = False
            for idx, v in enumerate(extras):
                sup = v.support()
                if len(sup) == 1:
                    ci, k = sup[0]
                    if ci in tails and k == tails[ci] - 1:
                        tails[ci] = k
                        extras.pop(idx)
                        changed = True
                        break
        full_cover = all(
            tails.get(ci, 1) == 0
            for ci, sp in enumerate(shape) if sp.kind == "l2")
        if full_cover:
            finite_coords = [(ci, sp.dim) for ci, sp in enumerate(shape)
                             if sp.kind == "finite"]
            if not finite_coords and not extras:
                return cls.full(shape)
            if finite_coords and len(extras) == sum(d for _, d in finite_coords):
                return cls.full(shape)
        return cls(COFINITE, shape, extras, tails)

    # -- basic data -------------------------------------------------------------

    def dim(self):
        if self.kind == ZERO_KIND:
            return 0
        if self.kind == SPAN:
            return len(self.vectors)
        return None

    def is_zero(self):
        return self.kind == ZERO_KIND

    def finite_region(self):
        """Per-component finite coordinate bound outside which membership is
        decided purely by tails."""
        bounds = []
        for ci, sp in enumerate(self.shape):
            if sp.kind == "finite":
                bounds.append(sp.dim)
                continue
            b = 0
            for v in self.vectors:
                if v.data[ci]:
                    b = max(b, max(v.data[ci]) + 1)
            if self.kind == COFINITE and ci in self.tails:
                b = max(b, self.tails[ci])
            bounds.append(b)
        return bounds

    # -- projection --------------------------------------------------------------

    def project(self, v):
        if v.shape != self.shape:
            raise ShapeMismatch("vector has the wrong shape")
        if self.kind == FULL:
            return v
        if self.kind == ZERO_KIND:
            return VectorExpr(self.shape)
        out = VectorExpr(self.shape)
        if self.kind == COFINITE:
            data = [dict() for _ in self.shape]
            for ci, start in self.tails.items():
                for k, val in v.data[ci].items():
                    if k >= start:
                        data[ci][k] = val
            out = VectorExpr(self.shape, data)
        for b in self.vectors:
            coef = v.inner(b) / b.norm2()
            if not coef.is_zero():
                out = out + b.scaled(coef)
        return out

    def residual(self, v):
        """|| v - P v || as a float."""
        return (v - self.project(v)).norm_float()

    def contains(self, v, tol=1e-10):
        n = v.norm_float()
        return self.residual(v) <= tol * max(1.0, n)

    def onb(self):
        """Normalized copies of the finite basis vectors (exact when the
        squared norms are perfect squares)."""
        out = []
        for b in self.vectors:
            n2 = b.norm2()
            root = scalar_sqrt(n2) if n2.is_exact else Scalar.inexact(b.norm_float())
            out.append(b.scaled(ONE / root))
        return out

    # -- lattice operations --------------------------------------------------------

    def complement(self):
        if self.kind == FULL:
            return Subspace.zero(self.shape)
        if self.kind == ZERO_KIND:
            return Subspace.full(self.shape)
        bounds = self.finite_region()
        coords = []
        for ci, sp in enumerate(self.shape):
            top = bounds[ci] if self.kind == SPAN or ci not in self.tails \
                else self.tails[ci]
            coords.extend((ci, k) for k in range(top))
        # complement basis inside the finite region: kernel of <e, b_j> rows
        rows = [[b.get(ci, k).conj() for (ci, k) in coords] for b in self.vectors]
        ker = kernel_basis(rows, len(coords))
        extras = []
        for kv in ker:
            data = [dict() for _ in self.shape]
            for (ci, k), val in zip(coords, kv):
                if not val.is_zero():
                    data[ci][k] = val
            extras.append(VectorExpr(self.shape, data))
        new_tails = {}
        if self.kind == SPAN:
            new_tails = {ci: bounds[ci] for ci, sp in enumerate(self.shape)
                         if sp.kind == "l2"}
        else:
            new_tails = {ci: bounds[ci] for ci, sp in enumerate(self.shape)
                         if sp.kind == "l2" and ci not in self.tails}
        if new_tails:
            return Subspace.cofinite(self.shape, new_tails, extras)
        return Subspace.span(self.shape, extras)

    def intersect(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch("subspace shapes differ")
        if self.kind == FULL:
            return other
        if other.kind == FULL:
            return self
        if self.kind == ZERO_KIND or other.kind == ZERO_KIND:
            return Subspace.zero(self.shape)
        common = {}
        if self.kind == COFINITE and other.kind == COFINITE:
            for ci in self.tails:
                if ci in other.tails:
                    common[ci] = max(self.tails[ci], other.tails[ci])
        s1_bounds = self.finite_region()
        gens = []
        if other.kind == SPAN:
            gens = list(other.vectors)
        else:
            gens = list(other.vectors)
            for ci, start in other.tails.items():
                stop = common[ci] if ci in common else max(s1_bounds[ci], start)
                for k in range(start, stop):
                    gens.append(VectorExpr.basis(self.shape, ci, k))
        kept = []
        for g in gens:
            r = g - self.project(g)
            kept.append((g, r))
        support = sorted({pos for g, r in kept for pos in r.support()}
                         | {pos for g, _ in kept for pos in g.support()})
        rows = [[r.get(ci, k) for (ci, k) in support] for _, r in kept]
        cols = list(zip(*rows)) if rows else []
        mat = [list(col) for col in cols]  # residual coords x generators
        coeffs = kernel_basis(mat, len(gens))
        vecs = []
        for cv in coeffs:
            acc = VectorExpr(self.shape)
            for g_r, c in zip(kept, cv):
                if not c.is_zero():
                    acc = acc + g_r[0].scaled(c)
            if not acc.is_zero():
                vecs.append(acc)
        if common:
            return Subspace.cofinite(self.shape, common, vecs)
        return Subspace.span(self.shape, vecs)

    def equals(self, other, tol=1e-10):
        """Mutual-containment check; returns (flag, worst residual)."""
        if self.shape != other.shape:
            return False, float("inf")
        worst = 0.0
        if {self.kind, other.kind} <= {ZERO_KIND}:
            return True, 0.0
        if self.kind == COFINITE or other.kind == COFINITE or \
           FULL in (self.kind, other.kind):
            if self.kind != other.kind:
                return False, float("inf")
            if self.tails != other.tails:
                return False, float("inf")
        for a, b in ((self, other), (other, self)):
            for v in a.vectors:
                r = b.residual(v) / max(v.norm_float(), 1e-300)
                worst = max(worst, r)
        if self.kind == SPAN and other.kind == SPAN and \
           len(self.vectors) != len(other.vectors):
            return False, worst
        return worst <= tol, worst

    def to_json(self):
        out = {"kind": self.kind}
        if self.kind == COFINITE:
            out["tails"] = {str(ci): start for ci, start in sorted(self.tails.items())}
        if self.vectors:
            out["vectors"] = [v.to_json() for v in self.onb()]
        return out

    def __repr__(self):
        if self.kind == COFINITE:
            return f"Subspace(cofinite, tails={self.tails}, extras={len(self.vectors)})"
        if self.kind == SPAN:
            return f"Subspace(span, dim={len(self.vectors)})"
        return f"Subspace({self.kind})"

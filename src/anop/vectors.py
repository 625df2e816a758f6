"""Finitely supported vectors over the component spaces of an operator."""

import math

from .errors import ShapeMismatch
from .scalars import Scalar, ZERO


class VectorExpr:
    """Per-component sparse coordinate map with Scalar values."""

    __slots__ = ("shape", "data")

    def __init__(self, shape, data=None):
        self.shape = tuple(shape)
        comps = []
        for ci, sp in enumerate(self.shape):
            d = {}
            if data is not None and ci < len(data) and data[ci]:
                for k, v in data[ci].items():
                    v = Scalar.of(v)
                    if sp.dim is not None and not 0 <= k < sp.dim:
                        raise ShapeMismatch(f"coordinate {k} outside component {ci}")
                    if k < 0:
                        raise ShapeMismatch("negative coordinate")
                    if not v.is_zero():
                        d[k] = v
            comps.append(d)
        self.data = tuple(comps)

    @classmethod
    def basis(cls, shape, comp, k):
        return cls(shape, [{k: Scalar.exact(1)} if i == comp else {}
                           for i in range(len(shape))])

    @classmethod
    def from_flat(cls, shape, labels, flat, cutoff=None):
        """Vector with coordinate flat[i] at labels[i] = (component, k). Exact
        Scalars keep every nonzero entry; complex floats keep the entries of
        modulus above `cutoff`."""
        data = [dict() for _ in shape]
        for (ci, k), v in zip(labels, flat):
            if cutoff is None:
                if not v.is_zero():
                    data[ci][k] = v
            elif abs(v) > cutoff:
                data[ci][k] = Scalar.inexact(v.real, v.imag)
        return cls(shape, data)

    def items(self):
        for ci, d in enumerate(self.data):
            for k in sorted(d):
                yield (ci, k), d[k]

    def support(self):
        return [(ci, k) for (ci, k), _ in self.items()]

    def is_zero(self):
        return all(not d for d in self.data)

    def get(self, ci, k):
        return self.data[ci].get(k, ZERO)

    def scaled(self, c):
        c = Scalar.of(c)
        return VectorExpr(self.shape, [{k: c * v for k, v in d.items()}
                                       for d in self.data])

    def __add__(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch("vector shapes differ")
        out = []
        for d1, d2 in zip(self.data, other.data):
            d = dict(d1)
            for k, v in d2.items():
                d[k] = d.get(k, ZERO) + v
            out.append(d)
        return VectorExpr(self.shape, out)

    def __sub__(self, other):
        return self + other.scaled(Scalar.exact(-1))

    def inner(self, other):
        """<x, y> = sum x_k * conj(y_k), linear in the first slot."""
        if self.shape != other.shape:
            raise ShapeMismatch("vector shapes differ")
        acc = ZERO
        for d1, d2 in zip(self.data, other.data):
            small, big, flip = (d1, d2, False) if len(d1) <= len(d2) else (d2, d1, True)
            for k, v in small.items():
                w = big.get(k)
                if w is not None:
                    acc = acc + ((w * v.conj()) if flip else (v * w.conj()))
        return acc

    def norm2(self):
        acc = ZERO
        for d in self.data:
            for v in d.values():
                acc = acc + v.abs2()
        return acc

    def norm_float(self):
        return math.sqrt(float(self.norm2().re))

    def is_exact(self):
        return all(v.is_exact for d in self.data for v in d.values())

    def to_float_dict(self):
        return [{k: complex(v) for k, v in d.items()} for d in self.data]

    def to_json(self):
        from .serialize import scalar_to_json
        return [[[k, scalar_to_json(v)] for k, v in sorted(d.items())]
                for d in self.data]

    def __repr__(self):
        parts = []
        for (ci, k), v in self.items():
            parts.append(f"({ci},{k}):{complex(v)}")
        return "VectorExpr{" + ", ".join(parts) + "}"

"""Spectral peeling, the U (+) D view, block inverses and normality.

A star-paranormal absolutely norm attaining operator splits into scaled
unitaries above the essential minimum plus an upper-triangular 2x2 block
whose (1,1) entry is a scaled isometry with a one-sided coupling. The
certificate carries every residual so the split can be audited.
"""

import json

from anop import (block_upper_inverse, certify_normal, direct_sum,
                  identity_operator, multiply, peel_decompose, u_plus_d_view)
from anop.gallery import flip_unitary, random_theorem_form, right_shift, theorem_form
from anop.operators import L2, OperatorExpr, finite
from anop.blocks import DenseBlock
from anop.scalars import Scalar
from anop.vectors import VectorExpr

# 3 x (coordinate flip) plus twice the shift
t = direct_sum(flip_unitary().scaled(3), right_shift(2))
cert = peel_decompose(t, samples=500)
print("peeled levels:", [(p.value, p.space.dim()) for p in cert.peeled])
print("tail value:", cert.tail_value, "| tail space:", cert.h2)
print("coupling columns:", [str(c) for c in cert.a_cols],
      "| S*A norm:", cert.s_star_a_norm)
print("reconstruction residual:", cert.reconstruction_residual)

u_part, d_part = u_plus_d_view(cert)
print("U part:", [(lam, mat.shape) for lam, mat in u_part])
print("D part:", json.dumps({k: d_part[k] for k in ("value", "h3_dim")}))

# assembling from given finite data and reading it back
t2 = theorem_form(levels=[(3, [[0, 1], [1, 0]])], m_e=2, tail_power=2,
                  h3_dim=1, a_entries=[(1, 0, 1)])
cert2 = peel_decompose(t2, samples=500)
print("assembled round trip:", [(p.value, p.space.dim()) for p in cert2.peeled],
      "S*A zero:", cert2.s_star_a_exact_zero)

# the finite-corner inverse of an upper-triangular block operator
a = OperatorExpr((finite(1),), {(0, 0): DenseBlock([[2]])})
b = [VectorExpr(a.spaces, [{0: Scalar.exact(1)}])]
inv = block_upper_inverse(a, b, [[1]])
print("inverse of [[2, 1], [0, 1]]: a^-1 =",
      str(inv.a_inv.blocks[(0, 0)].entries[(0, 0)].re),
      " y =", str(inv.y_cols[0].get(0, 0).re), " exact:", inv.exact)

# normality certificates: invertible inputs in the class are normal
t3 = direct_sum(flip_unitary().scaled(3), identity_operator((L2,)).scaled(2))
print("certify(3 flip + 2 I):", certify_normal(t3, samples=300).to_json())
print("certify(2S):", certify_normal(right_shift(2), samples=300).route)

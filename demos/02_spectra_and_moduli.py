"""Spectral summaries: symbols, essential spectra, and modulus data.

For self-adjoint members of the class the essential spectrum is the range
of the symbol built from the diagonal limits; finite-rank data never moves
it. Positive operators get a full summary: essential points, discrete
eigenvalues with eigenspaces, the norm, and the minimum and essential
minimum moduli.
"""

from anop import (adjoint, essential_spectrum, kernel_dims, modulus_summary,
                  multiply, positive_an_diagonalize,
                  positive_spectral_summary, symbol)
from anop.gallery import diag_operator, example1, jacobi_operator, right_shift
from anop.ratfn import RationalFn

# the free Jacobi operator S + S* has symbol 2 cos(theta), so its essential
# spectrum is the full interval [-2, 2]
j = jacobi_operator()
print("symbol of S + S* at 0:", symbol(j, 0).eval_theta(0.0).real)
print("ess(S + S*):", essential_spectrum(j))

# an eventually-constant diagonal: two isolated eigenvalues above a tail
p = diag_operator([5, 3], limit=2)
s = positive_spectral_summary(p)
print("diag(5,3,2,2,...): ess", s.ess, "discrete",
      [(float(d.value), d.mult) for d in s.discrete], "m", s.m, "m_e", float(s.m_e))

# its eigenpair expansion, with the structural clauses checked
res = positive_an_diagonalize(p)
print("expansion:", [(v, sp.dim() or "inf") for v, sp in res.pairs],
      "clauses:", res.clauses)

# a declared 1 + 1/(n+1) tail: the limit point is approached from above,
# which the expansion reports rather than enforcing
dec = diag_operator([], rule=RationalFn.const(1) + RationalFn.power_term(1, 1, 1))
print("decreasing tail clause report:",
      positive_an_diagonalize(dec).clauses["limit_approached_increasing"])

# the modulus of the first worked example: values 2 (infinite), sqrt(2), 1
ms = modulus_summary(example1())
print("sigma(|T|) of example 1:", [round(d.value, 12) for d in ms.discrete],
      "plus essential point", ms.m_e, "; m =", ms.m)

# kernel dimensions through the zero eigenspaces of T*T and TT*
print("kernel dims of 2S:", kernel_dims(right_shift(2)).as_tuple())

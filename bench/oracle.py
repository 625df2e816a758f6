"""Computations made apart from the program under test.

Exact complex numbers are pairs of Fractions; operators are read from the
documented operator file format (the dict that `anop gallery` prints) into
dense windows by this module's own reader. Nothing here calls into `anop`.
"""

from fractions import Fraction

import numpy as np

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


# -- exact complex arithmetic --------------------------------------------------------

def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def abs2(a):
    return a[0] * a[0] + a[1] * a[1]


def exact_part(x):
    """A real part of the file format: an int, a 'p/q' string or a float."""
    if isinstance(x, bool):
        raise ValueError("boolean is not a number")
    return Fraction(x)


def exact_value(x):
    """A complex literal of the file format: [re, im] or a bare real."""
    if isinstance(x, list):
        return (exact_part(x[0]), exact_part(x[1]))
    return (exact_part(x), Fraction(0))


def scalar_value(s):
    """An exact program scalar read through its public fields."""
    if not s.is_exact:
        raise ValueError("inexact scalar where an exact one is required")
    return (Fraction(s.re), Fraction(s.im))


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = [[ZERO] * p for _ in range(n)]
    for i in range(n):
        row = a[i]
        for k in range(m):
            aik = row[k]
            if aik == ZERO:
                continue
            brow = b[k]
            acc = out[i]
            for j in range(p):
                if brow[j] != ZERO:
                    acc[j] = cadd(acc[j], cmul(aik, brow[j]))
    return out


def is_identity(m):
    return all(m[i][j] == (ONE if i == j else ZERO)
               for i in range(len(m)) for j in range(len(m[i])))


# -- dense windows from the operator file format --------------------------------------

def window_layout(spaces, l2_size):
    """Start offset of each summand when every l2 summand keeps l2_size
    coordinates and every finite summand keeps all of its coordinates."""
    sizes = [l2_size if sp["kind"] == "l2" else sp["dim"] for sp in spaces]
    starts, pos = [], 0
    for s in sizes:
        starts.append(pos)
        pos += s
    return sizes, starts, pos


def dense_window(opdict, rows, cols=None):
    """Exact matrix of the operator restricted to the first `cols` coordinates
    of each l2 summand, read on the first `rows` coordinates of each l2
    summand. Ruled or decaying diagonals are outside this reader."""
    cols = rows if cols is None else cols
    spaces = opdict["spaces"]
    rsizes, rstarts, nr = window_layout(spaces, rows)
    csizes, cstarts, nc = window_layout(spaces, cols)
    mat = [[ZERO] * nc for _ in range(nr)]
    for blk in opdict["blocks"]:
        i, j = blk["row"], blk["col"]
        if blk["kind"] == "banded":
            for d in blk["diagonals"]:
                if "rule" in d or "decay" in d:
                    raise ValueError("ruled diagonals are outside the window reader")
                off = d["offset"]
                prefix = [exact_value(v) for v in d["prefix"]]
                limit = exact_value(d["limit"])
                for r in range(rsizes[i]):
                    c = r - off
                    if 0 <= c < csizes[j]:
                        k = min(r, c)
                        mat[rstarts[i] + r][cstarts[j] + c] = \
                            prefix[k] if k < len(prefix) else limit
        elif blk["kind"] == "finite_rank":
            for e in blk["entries"]:
                if e["r"] < rsizes[i] and e["c"] < csizes[j]:
                    mat[rstarts[i] + e["r"]][cstarts[j] + e["c"]] = \
                        exact_value(e["value"])
        else:
            for r, row in enumerate(blk["matrix"]):
                for c, v in enumerate(row):
                    mat[rstarts[i] + r][cstarts[j] + c] = exact_value(v)
    return mat


def to_numpy(mat):
    return np.array([[complex(float(v[0]), float(v[1])) for v in row]
                     for row in mat], dtype=complex).reshape(len(mat), -1)


def max_bandwidth(opdict):
    return max((abs(d["offset"]) for blk in opdict["blocks"]
                if blk["kind"] == "banded" for d in blk["diagonals"]), default=0)


# -- spectrum of |T| against a dense window -------------------------------------------

def modulus_report_matches(report, opdict, n=256):
    """Compare a `spectrum --of modulus` report with the singular values of
    T restricted to the first n coordinates of each l2 summand (all rows
    that those columns reach are kept, so no boundary row is cut).

    For a banded Toeplitz tail the window's singular values approach the
    spectrum at rate pi/(n+1); that sets the tolerance. Returns a list of
    mismatch descriptions, empty when the report matches."""
    w = max_bandwidth(opdict)
    sv = np.linalg.svd(to_numpy(dense_window(opdict, n + w, n)), compute_uv=False)
    tol = 4.0 * np.pi / (n + 1)
    exact_tol = 1e-9
    points, intervals = [], []
    for piece in report["ess"]:
        if "point" in piece:
            p = piece["point"]
            points.append(float(p[0]) if isinstance(p, list) else float(p))
        else:
            intervals.append(tuple(float(x) for x in piece["interval"]))
    discrete = [(float(d["value"]), int(d["mult"])) for d in report["discrete"]]
    has_band = bool(intervals)
    t_use = tol if has_band else exact_tol
    errors = []
    if abs(report["norm"] - sv.max()) > t_use:
        errors.append(f"norm {report['norm']} vs window {sv.max()}")
    if abs(report["m"] - sv.min()) > t_use:
        errors.append(f"m {report['m']} vs window {sv.min()}")
    for v, mult in discrete:
        near = int(np.sum(np.abs(sv - v) <= t_use))
        if near < mult:
            errors.append(f"discrete value {v} (mult {mult}) has {near} "
                          f"window singular values")

    def covered(x):
        if any(abs(x - p) <= t_use for p in points):
            return True
        if any(lo - t_use <= x <= hi + t_use for lo, hi in intervals):
            return True
        return any(abs(x - v) <= t_use for v, _ in discrete)

    stray = [float(x) for x in sv if not covered(x)]
    if stray:
        errors.append(f"window singular values outside the reported spectrum: "
                      f"{stray[:4]}")
    return errors


# -- weighted shifts --------------------------------------------------------------------

def shift_norms(weights, limit, x):
    """(||x||^2, ||Tx||^2, ||T*x||^2, ||T^2 x||^2) exactly for the weighted
    shift T e_k = w_k e_(k+1), where w_k = weights[k] and w_k = limit beyond
    the list; x maps an index to an exact complex pair."""
    def w(k):
        return weights[k] if k < len(weights) else limit
    n0 = sum((abs2(v) for v in x.values()), Fraction(0))
    nt = sum((w(k) ** 2 * abs2(v) for k, v in x.items()), Fraction(0))
    nts = sum((w(k - 1) ** 2 * abs2(v) for k, v in x.items() if k >= 1),
              Fraction(0))
    ntt = sum((w(k) ** 2 * w(k + 1) ** 2 * abs2(v) for k, v in x.items()),
              Fraction(0))
    return n0, nt, nts, ntt


def violates(kind, weights, limit, x):
    """True when x violates ||Lx||^2 <= ||T^2 x|| ||x|| exactly, with L = T
    (paranormal) or L = T* (star-paranormal); squared to stay rational."""
    n0, nt, nts, ntt = shift_norms(weights, limit, x)
    lhs = nt if kind == "paranormal" else nts
    return lhs * lhs > ntt * n0


def shift_is_hyponormal(weights, limit):
    """A weighted shift is hyponormal iff its weights never decrease."""
    seq = list(weights) + [limit]
    return all(a <= b for a, b in zip(seq, seq[1:]))


def shift_is_star_paranormal(weights, limit):
    """A weighted shift is star-paranormal iff w_(k-1)^2 <= w_k w_(k+1) for
    every k >= 1 (basis vectors give necessity; Cauchy-Schwarz on the
    diagonal forms gives sufficiency)."""
    seq = list(weights) + [limit, limit]
    return all(seq[k - 1] ** 2 <= seq[k] * seq[k + 1]
               for k in range(1, len(seq) - 1))


# -- expected exit codes of the cli_session commands --------------------------------------

# Each row is (exit code, reason) for a command that prints a report, or
# (exit code, reason, error) for one that prints no report and names the
# error class on stderr instead ("anop: <error>: ...").

HYPO_SAMPLED = (
    "hyponormal implies paranormal, so no sample refutes; sampling never proves")
TF_ROWS = {
    "normal": (1, "the tail m_e S^p is a non-unitary isometry, so T*T != TT* on its first rung"),
    "hyponormal": (0, "S*A = 0 and the finite block sits below the tail scale, so T*T - TT* >= 0"),
    "paranormal": (2, HYPO_SAMPLED),
    "star-paranormal": (0, "hyponormal implies star-paranormal (stage 1)"),
    "norm-attaining": (0, "the top level lam_1 is an eigenvalue of |T|"),
    "an": (0, "sigma_ess(T*T) = {m_e^2} with finitely many points below it"),
    "m-star-equals-m": (0, "M = M* = the top level's finite eigenspace"),
    "decompose": (0, "star-paranormal and AN, so the peeled decomposition exists"),
    "certify": (2, "not normal (proper isometric tail), so no normality route may apply"),
}
SHIFT_ROWS = {
    "normal": (1, "S*S = I but SS* = I - e0 e0*"),
    "hyponormal": (0, "S*S - SS* = |a|^2 e0 e0* >= 0"),
    "paranormal": (2, HYPO_SAMPLED),
    "star-paranormal": (0, "hyponormal implies star-paranormal (stage 1)"),
    "norm-attaining": (0, "a multiple of an isometry attains its norm at every vector"),
    "an": (0, "T*T = |a|^2 I: singleton essential spectrum, nothing below"),
    "m-star-equals-m": (2, "M* = span{e_k : k >= 1} is infinite-dimensional: Undetermined"),
    "decompose": (0, "the whole space is the isometric tail"),
    "certify": (2, "dim N(T) = 0 != 1 = dim N(T*): no normality route applies"),
}
EXIT_TABLE = {
    "example1": {
        "normal": (1, "T*T = 4I (+) diag(2, 1) while TT* has (0, 0) entry 1"),
        "hyponormal": (0, "T*T - TT* is [[3, -1], [-1, 1]] on (x1, y1) and 0 elsewhere: PSD"),
        "paranormal": (2, HYPO_SAMPLED),
        "star-paranormal": (0, "hyponormal implies star-paranormal (stage 1)"),
        "norm-attaining": (0, "||T|| = 2 is attained on the l2 summand"),
        "an": (0, "sigma_ess(T*T) = {4}, finitely many points (2, 1) below it"),
        "m-star-equals-m": (2, "M* contains the whole l2 tail, infinite-dimensional: Undetermined"),
        "decompose": (0, "star-paranormal and AN"),
        "certify": (2, "not normal, so no normality route may apply"),
    },
    "example2": {
        "normal": (1, "the weights 1/(k+1) decrease, so T*T != TT*"),
        "hyponormal": (1, "decreasing weights give a negative direction of T*T - TT*"),
        "paranormal": (1, "decreasing weights: a basis vector violates ||Tx||^2 <= ||T^2x|| ||x||"),
        "star-paranormal": (1, "a basis vector violates ||T*x||^2 <= ||T^2x|| ||x||"),
        "norm-attaining": (0, "||T|| = 1 is attained at the first basis vector"),
        "an": (1, "sigma_ess(T*T) = {0, 1} has two points"),
        "m-star-equals-m": (2, "TT* = I on the second summand, so M* is infinite-dimensional"),
        "decompose": (4, "not AN: two essential points (structure exit)", "NotAN"),
        "certify": (4, "not AN: two essential points (structure exit)", "NotAN"),
    },
    "right_shift": SHIFT_ROWS,
    "scaled_shift": SHIFT_ROWS,
    "nilpotent": {
        "normal": (1, "T*T = e1 e1* != e0 e0* = TT*"),
        "hyponormal": (1, "T*T - TT* = diag(-1, 1) is not PSD"),
        "paranormal": (1, "T^2 = 0 and T != 0: x = e1 gives ||Tx||^2 = 1 > 0"),
        "star-paranormal": (1, "x = e0 gives ||T*x||^2 = 1 > 0 = ||T^2x||"),
        "norm-attaining": (0, "||T|| = 1 is attained at e1"),
        "an": (0, "T*T is a rank-one projection: sigma_ess = {0}, nothing below"),
        "m-star-equals-m": (1, "M = span{e1} but M* = span{e0} meets M in {0}"),
        "decompose": (4, "not star-paranormal (structure exit)", "StarParanormalRefuted"),
        "certify": (4, "not star-paranormal (structure exit)", "StarParanormalRefuted"),
    },
    "jacobi": {
        "normal": (0, "S + S* is self-adjoint"),
        "hyponormal": (0, "self-adjoint, so T*T - TT* = 0"),
        "paranormal": (2, HYPO_SAMPLED),
        "star-paranormal": (0, "hyponormal implies star-paranormal (stage 1)"),
        "norm-attaining": (2, "sigma(S + S*) = [-2, 2] is purely continuous; ||T|| = 2 is no eigenvalue"),
        "an": (1, "sigma_ess(T*T) = [0, 4] has positive diameter"),
        "m-star-equals-m": (2, "T does not attain its norm, so M is undefined",
                            "NotNormAttaining"),
        "decompose": (4, "not AN (structure exit)", "NotAN"),
        "certify": (4, "not AN (structure exit)", "NotAN"),
    },
    "flip_unitary": {
        "normal": (0, "unitary"),
        "hyponormal": (0, "unitary, so T*T - TT* = 0"),
        "paranormal": (2, HYPO_SAMPLED),
        "star-paranormal": (0, "hyponormal implies star-paranormal (stage 1)"),
        "norm-attaining": (0, "a unitary attains its norm at every vector"),
        "an": (0, "T*T = I on C^2"),
        "m-star-equals-m": (0, "M = M* = C^2"),
        "decompose": (0, "a unitary is its own peeled level"),
        "certify": (0, "invertible star-paranormal AN, hence normal (InvertiblePath)"),
    },
    "theorem_form": TF_ROWS,
    "drawn_tf": TF_ROWS,
    "shaped_tf": TF_ROWS,
}
STATUS_EXIT = {"Proven": 0, "Refuted": 1}


if __name__ == "__main__":
    # prints the table of expected exit codes kept in README.md
    print("| operator | command | exit | reason | on stderr, no report |\n|---|---|---|---|---|")
    for fname, rows in EXIT_TABLE.items():
        for cmd, (code, reason, *error) in rows.items():
            print(f"| {fname} | {cmd} | {code} | {reason.replace('|', chr(92) + '|')} | "
                  f"{' '.join(error)} |")

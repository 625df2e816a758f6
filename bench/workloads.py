"""The three workloads: their inputs, built from the workload seed, and their
fixed operation lists, each operation with a check made apart from the
program.

Every operation is called in-process through a module attribute of `anop`
(never through a name imported here), so that the tracer's wrappers see it.
Inputs depend on the seed only through values, never through the shape of
the operation list: every round attempts the same operations.
"""

import importlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from anop import cli, decomposition, gallery, predicates
from anop.blocks import BandedBlock, DenseBlock
from anop.diagonals import DiagonalSeq
from anop.operators import (L2, OperatorExpr, corner_sizes, direct_sum, finite,
                            identity_operator)
from anop.scalars import Scalar
from anop.vectors import VectorExpr

import oracle

# the package re-exports a function under this module's name
serialize = importlib.import_module("anop.serialize")

WORKLOADS = ("cli_session", "exact_certify", "refute_sampling")
EXIT_PARSE = 65


class Op:
    """One operation: `run()` returns a result; `check(result)` returns None
    or a description of what is wrong. A hostile operation counts as failed
    until it exits with the documented parse-error code."""

    __slots__ = ("name", "run", "check", "hostile")

    def __init__(self, name, run, check, hostile=False):
        self.name, self.run, self.check, self.hostile = name, run, check, hostile

    def failed(self, result):
        if isinstance(result, BaseException):
            return True
        return self.hostile and result[0] != EXIT_PARSE


def _draw_theorem_form(rng, corner_sum, levels):
    """A `gallery.random_theorem_form` fixture (at most one level, h3 and
    power at most 1) with the given corner sum and number of levels. Fixture
    seeds are drawn from rng until one fits, about one in six does, so the
    workload seed changes the values, not the size or the set-up time."""
    for _ in range(2000):
        t, params = gallery.random_theorem_form(rng.randrange(2 ** 31), max_levels=1,
                                                max_h3=1, max_power=1)
        if sum(corner_sizes(t)) == corner_sum and len(params["levels"]) == levels:
            return t
    raise RuntimeError("no theorem form of the requested size was drawn")


# -- cli_session ------------------------------------------------------------------------

GALLERY = ("example1", "example2", "right_shift", "nilpotent", "jacobi",
           "flip_unitary", "scaled_shift")
THEOREM_FORM_PARAMS = ('{"levels": [[3, [[0, 1], [1, 0]]]], "m_e": 2, '
                       '"h3_dim": 1, "a_entries": [[1, 0, 1]]}')
PREDICATES = ("normal", "hyponormal", "paranormal", "star-paranormal",
              "norm-attaining", "an", "m-star-equals-m")
SPECTRA = ("T*T", "TT*", "modulus")
# operators refuted by their first samples keep the default sample count
EARLY_REFUTED = ("nilpotent", "example2")
REDUCED_SAMPLES = "2000"
# the value checked against singular values of a dense window
MODULUS_CHECKED = ("example1", "right_shift", "flip_unitary", "jacobi")


def run_cli(argv):
    """`anop.cli.main` in-process: (exit code, stdout, stderr). An uncaught
    exception exits 1, as the interpreter would make it."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = 1
    return code, out.getvalue(), err.getvalue()


def _hostile_files(example1_text):
    def swap(old, new):
        if old not in example1_text:
            raise RuntimeError(f"example1.json no longer holds {old!r}")
        return example1_text.replace(old, new, 1)
    return {
        "hostile_overflow": swap('"limit":[2,0]', '"limit":[1e400,0]'),
        "hostile_nan": swap('"value":[1,0]', '"value":[NaN,0]'),
        "hostile_offset": swap('"offset":1,', '"offset":1.5,'),
        "hostile_empty": '{"blocks":[],"spaces":[]}',
    }


HOSTILE_OPS = (
    ("hostile_overflow", ["spectrum"]),
    ("hostile_overflow", ["decompose"]),
    ("hostile_overflow", ["check", "--predicate", "hyponormal"]),
    ("hostile_nan", ["check", "--predicate", "hyponormal"]),
    ("hostile_offset", ["check", "--predicate", "hyponormal"]),
    ("hostile_empty", ["check", "--predicate", "hyponormal"]),
)


def _gallery_file(argv):
    code, text, _ = run_cli(["gallery"] + argv)
    if code != 0:
        raise RuntimeError(f"anop gallery {' '.join(argv)} exited {code}")
    return text


def cli_inputs(seed):
    rng = random.Random(seed)
    files = {name: _gallery_file([name]) for name in GALLERY}
    files["theorem_form"] = _gallery_file(["theorem_form", "--params",
                                           THEOREM_FORM_PARAMS])
    files["drawn_tf"] = serialize.serialize(_draw_theorem_form(rng, 5, 1))
    files["shaped_tf"] = serialize.serialize(
        theorem_fixture(_slot_rng("cli"), rng, (2, 1), 2, 2, 1)[0])
    files.update(_hostile_files(files["example1"]))
    return files


def _check_report(kind, expected, result, opdict=None):
    """`expected` is a row of `oracle.EXIT_TABLE`: a command either prints a
    report, or (when the row names an error class) prints none and names
    that error on stderr."""
    code, text, err = result
    want, reason, *error = expected
    if code != want:
        return f"exit {code}, expected {want} ({reason})"
    if error:
        if text:
            return f"a report where {error[0]} was expected"
        if not err.startswith(f"anop: {error[0]}:"):
            return f"stderr {err[:80]!r}, expected {error[0]} ({reason})"
        return None
    if not text:
        return "no report"
    try:
        body = json.loads(text)
    except ValueError as exc:
        return f"report does not parse: {exc}"
    report = body["report"]
    if kind in PREDICATES:
        if oracle.STATUS_EXIT.get(report["status"], 2) != code:
            return f"status {report['status']} disagrees with exit {code}"
    if opdict is not None:
        errors = oracle.modulus_report_matches(report, opdict)
        if errors:
            return "; ".join(errors)
    return None


def cli_ops(files, workdir):
    paths = {}
    for name, text in files.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(text)
    ops = []

    def add(name, argv, check, hostile=False):
        ops.append(Op(name, lambda argv=argv: run_cli(argv), check, hostile))

    for fname in list(GALLERY) + ["theorem_form", "drawn_tf", "shaped_tf"]:
        table = oracle.EXIT_TABLE[fname]
        for pred in PREDICATES:
            argv = ["check", paths[fname], "--predicate", pred, "--json"]
            if pred in ("paranormal", "star-paranormal") and fname not in EARLY_REFUTED:
                argv += ["--samples", REDUCED_SAMPLES]
            add(f"check {fname} {pred}", argv,
                lambda r, p=pred, e=table[pred]: _check_report(p, e, r))
        for of in SPECTRA:
            opdict = json.loads(files[fname]) \
                if of == "modulus" and fname in MODULUS_CHECKED else None
            add(f"spectrum {fname} {of}",
                ["spectrum", paths[fname], "--of", of, "--json"],
                lambda r, d=opdict: _check_report(
                    "spectrum", (0, "a positive operator has a spectral summary"), r, d))
        for cmd in ("decompose", "certify"):
            add(f"{cmd} {fname}", [cmd, paths[fname], "--json"],
                lambda r, c=cmd, e=table[cmd]: _check_report(c, e, r))
    add("audit", ["audit", "--json"],
        lambda r: _check_report("audit", (0, "the audit always reports"), r))
    for name in GALLERY:
        add(f"gallery {name}", ["gallery", name],
            lambda r, n=name: None if r == (0, files[n], "")
            else "output differs from the operator file")
    add("gallery theorem_form",
        ["gallery", "theorem_form", "--params", THEOREM_FORM_PARAMS],
        lambda r: None if r == (0, files["theorem_form"], "")
        else "output differs from the operator file")
    for fname, argv in HOSTILE_OPS:
        add(f"{argv[0]} {fname}", [argv[0], paths[fname]] + argv[1:],
            lambda r: None, hostile=True)
    return ops


# -- exact_certify ---------------------------------------------------------------------

# Theorem forms: (level sizes, tail power p, finite block size d, size of
# the scaled-unitary part of B). Drawing whole `random_theorem_form`
# fixtures by corner sum spread the round time by 12 % between seeds, and
# drawing the values of fixed shapes from the seed still spread it by a
# third (the number of Givens rotations in a rational unitary, and with it
# the size of its entries, is drawn too). So every fixture takes its values
# from a generator fixed by its slot in the operation list (`_slot_rng`),
# and the workload seed draws a sign similarity D X D of each matrix
# (`_flip`): another operator every seed, with exact entries of the same
# sizes, so the same cost.
TF_SMALL = (((), 1, 2, 1), ((1,), 1, 1, 0), ((2,), 2, 1, 1), ((1, 2), 1, 2, 1))
TF_LARGER = (((3, 2, 2), 3, 2, 0), ((1, 3, 2, 1), 2, 3, 1), ((3, 2, 3, 1), 3, 3, 1),
             ((2, 2, 2, 2), 2, 3, 1))
# latency_p50_ms falls inside this group of like operations (peeling one
# corner shape), not on the edge between two unlike ones
TF_MEDIAN = (((2, 3, 1), 2, 2, 1),) * 12
# normal fixtures: (unitary size, zero-summand size)
NORMAL_SHAPES = ((1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (4, 2))
# block inverses in the style of acceptance criterion 08: (finite block n,
# kind); latency_p90_ms falls inside the group of six n = 5 inverses
INVERSE_SHAPES = ((1, 0), (2, 1), (3, 2), (4, 0)) + ((5, 1),) * 6 + \
    ((6, 0), (7, 1), (8, 0))


def _slot_rng(*slot):
    """The generator of a fixture's values, fixed by its slot."""
    return random.Random(repr(slot))


def _signs(rng, n):
    return [rng.choice((1, -1)) for _ in range(n)]


def _flip(m, signs):
    """D m D for the diagonal D of `signs`: a unitary similarity that changes
    the signs of entries, not their sizes, and keeps the diagonal."""
    return [[v if signs[i] == signs[j] else -v for j, v in enumerate(row)]
            for i, row in enumerate(m)]


def theorem_fixture(base, rng, dims, p, d, n_b):
    """A theorem form U (+) [[m_e S^p, A], [0, B]] drawn the way
    `gallery.random_theorem_form` draws one, with the shape given: scaled
    rational unitaries above m_e, a coupling A into the first tail rung
    whose rows stay below m_e, and B a scaled unitary on n_b coordinates
    disjoint from the coupling columns (so the assembly is hyponormal).
    `base` draws the values; `rng` draws sign similarities of the unitaries
    and the signs of the coupling columns (a sign similarity on H3, which
    B does not touch)."""
    m_e = Fraction(base.randint(1, 4))
    offsets = sorted(base.sample(range(1, 10), len(dims)), reverse=True)
    levels = [(m_e + Fraction(off, 2),
               _flip(gallery.random_rational_unitary(base, n), _signs(rng, n)))
              for off, n in zip(offsets, dims)]
    cols = list(range(d))
    base.shuffle(cols)
    b_cols, a_cols = cols[:n_b], cols[n_b:]
    a_entries = [(d + base.randint(0, p - 1), c, m_e * Fraction(base.randint(1, 4), 5))
                 for c in a_cols]
    row_sums = {}
    for r, _, v in a_entries:
        row_sums[r] = row_sums.get(r, Fraction(0)) + v
    a_entries = [(r, c, v * min(Fraction(1), m_e * Fraction(4, 5) / row_sums[r])
                  * rng.choice((1, -1)))
                 for r, c, v in a_entries]
    b_matrix = None
    if b_cols:
        delta = m_e * Fraction(base.randint(1, 3), 4)
        u = _flip(gallery.random_rational_unitary(base, len(b_cols)),
                  _signs(rng, len(b_cols)))
        b_matrix = [[Scalar.exact(0)] * d for _ in range(d)]
        for bi, r in enumerate(b_cols):
            for bj, c in enumerate(b_cols):
                b_matrix[r][c] = u[bi][bj] * Scalar.exact(delta)
    t = gallery.theorem_form(levels, m_e, p, d, a_entries, b_matrix)
    return t, {"levels": levels, "m_e": m_e, "power": p, "h3_dim": d}


def _random_invertible(rng, n):
    c = [[Scalar.exact(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
          for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c[i][i] = Scalar.exact(rng.randint(3, 6))
    return c


def _inverse_fixture(base, rng, n, kind):
    """[[a, b], [0, c]] with a a dense invertible block, a scaled rational
    unitary, or a multiple of the identity on l2. `base` draws the values;
    `rng` draws one sign similarity diag(D_a, D_c) of the whole operator."""
    c = _random_invertible(base, n)
    if kind == 0:
        size = 3
        d_a = _signs(rng, size)
        a = OperatorExpr((finite(size),),
                         {(0, 0): DenseBlock(_flip(_random_invertible(base, size), d_a))})
        entries = [(base.randint(0, size - 1), Scalar.exact(1)) for _ in range(n)]
    elif kind == 1:
        d_a = _signs(rng, 4)
        u = _flip(gallery.random_rational_unitary(base, 4), d_a)
        a = OperatorExpr((finite(4),), {(0, 0): DenseBlock(u).scaled(2)})
        entries = [(base.randint(0, 3), Scalar.exact(Fraction(base.randint(-2, 2), 2) or 1))
                   for _ in range(n)]
    else:
        d_a = _signs(rng, 6)
        a = identity_operator((L2,)).scaled(Scalar.exact(base.randint(2, 4)))
        entries = [(base.randint(0, 5), Scalar.exact(1)) for _ in range(n)]
    d_c = _signs(rng, n)
    b = [VectorExpr(a.spaces, [{k: v if d_a[k] == d_c[j] else -v}])
         for j, (k, v) in enumerate(entries)]
    return a, b, _flip(c, d_c)


def exact_inputs(seed):
    rng = random.Random(seed)
    forms = [theorem_fixture(_slot_rng("form", i), rng, *shape)
             for i, shape in enumerate(TF_SMALL + TF_LARGER)]
    median = [theorem_fixture(_slot_rng("median", i), rng, *shape)
              for i, shape in enumerate(TF_MEDIAN)]
    normals = []
    for i, (n, zero) in enumerate(NORMAL_SHAPES):
        base = _slot_rng("normal", i)
        u = _flip(gallery.random_rational_unitary(base, n), _signs(rng, n))
        lam = Scalar.exact(Fraction(base.randint(5, 9), 2))
        alpha = Scalar.exact(base.randint(1, 2))
        parts = [OperatorExpr((finite(zero),), {})] if zero else []
        parts += [OperatorExpr((finite(n),), {(0, 0): DenseBlock(u).scaled(lam)}),
                  identity_operator((L2,)).scaled(alpha)]
        normals.append((direct_sum(*parts), zero))
    inverses = [_inverse_fixture(_slot_rng("inverse", i), rng, n, kind)
                for i, (n, kind) in enumerate(INVERSE_SHAPES)]
    return {"forms": forms, "median": median, "normals": normals, "inverses": inverses,
            "sample_seed": rng.randrange(10 ** 6)}


def _check_peel(cert, params):
    want = sorted(((float(lam), len(u)) for lam, u in params["levels"]), reverse=True)
    got = [(p.value, p.space.dim()) for p in cert.peeled]
    if len(want) != len(got):
        return f"peeled {len(got)} levels, built {len(want)}"
    for (wv, wd), (gv, gd) in zip(want, got):
        if abs(wv - gv) > 1e-10 or wd != gd:
            return f"level ({gv}, dim {gd}) where ({wv}, dim {wd}) was built"
    if not (cert.s_star_a_exact_zero and cert.s_star_a_norm == 0.0):
        return "S*A is not reported exactly zero"
    # S*A recomputed exactly. On the last (l2) summand T e_c = m_e e_(c+p)
    # for c >= d, and the row norms of the coupling stay below m_e, so the
    # tail eigenspace H2 of TT* at m_e^2 is span{e_k : k >= d + p}. S is T/m_e
    # on H2; S* moves e_k to e_(k-p) when k - p is still in H2 and kills the
    # first rung [d + p, d + 2p).
    d, p = params["h3_dim"], params["power"]
    last = len(cert.spaces) - 1
    h2_start = d + p
    if cert.h2.kind != "cofinite" or cert.h2.tails != {last: h2_start}:
        return f"tail space {cert.h2.to_json()}, built with H2 from {h2_start}"
    for col in cert.a_cols:
        if any(col.data[ci] for ci in range(last)) or \
                any(k < h2_start for k in col.data[last]):
            return "a coupling column leaves the tail space"
        image = [oracle.scalar_value(v) for k, v in col.data[last].items()
                 if k >= h2_start + p]
        if any(v != oracle.ZERO for v in image):
            return "S*A != 0 recomputed exactly"
    return None


def _window_of_vectors(cols, spaces, l2_size):
    sizes, starts, total = oracle.window_layout(
        [{"kind": sp.kind, "dim": sp.dim} for sp in spaces], l2_size)
    out = [[oracle.ZERO] * len(cols) for _ in range(total)]
    for j, col in enumerate(cols):
        for ci, comp in enumerate(col.data):
            for k, v in comp.items():
                if k >= sizes[ci]:
                    raise ValueError("vector support outside the window")
                out[starts[ci] + k][j] = oracle.scalar_value(v)
    return out


def _upper_window(a_win, b_cols, c_rows):
    """Window of [[a, b], [0, c]] from the window of a and exact columns."""
    na, n = len(a_win), len(c_rows)
    rows = [list(a_win[i]) + [b_cols[i][j] for j in range(n)] for i in range(na)]
    rows += [[oracle.ZERO] * na + [c_rows[i][j] for j in range(n)] for i in range(n)]
    return rows


def _check_inverse(inv, a, b, c):
    """Both products of the inverse with the assembled operator equal the
    identity, in this module's exact arithmetic, on a window that holds the
    finite support of every block."""
    if not inv.exact or inv.residual != 0.0:
        return "inverse not reported exact"
    support = [k for v in list(b) + list(inv.y_cols) for comp in v.data for k in comp]
    l2_size = max(support, default=0) + 2
    a_dict = serialize.operator_to_json_dict(a)
    ainv_dict = serialize.operator_to_json_dict(inv.a_inv)
    if any(sp["kind"] == "l2" for sp in a_dict["spaces"]) and \
            (oracle.max_bandwidth(a_dict) or oracle.max_bandwidth(ainv_dict)):
        return "banded (1,1) blocks are outside this check"
    a_win = oracle.dense_window(a_dict, l2_size)
    ainv_win = oracle.dense_window(ainv_dict, l2_size)
    m = _upper_window(a_win, _window_of_vectors(b, a.spaces, l2_size),
                      [[oracle.scalar_value(v) for v in row] for row in c])
    x = _upper_window(ainv_win, _window_of_vectors(inv.y_cols, a.spaces, l2_size),
                      [[oracle.scalar_value(v) for v in row] for row in inv.c_inv])
    if not oracle.is_identity(oracle.mat_mul(m, x)):
        return "assembled times inverse is not the identity"
    if not oracle.is_identity(oracle.mat_mul(x, m)):
        return "inverse times assembled is not the identity"
    return None


def _check_not_normal(cert):
    if cert.normal:
        return f"a proper isometric tail was certified normal ({cert.route})"
    return None


def _check_normal(cert, zero):
    route = "KernelDimPath" if zero else "InvertiblePath"
    if not cert.normal or cert.route != route:
        return f"normal fixture got route {cert.route}, normal={cert.normal}; " \
               f"expected {route}"
    if cert.commutator_bound != 0.0:
        return f"commutator bound {cert.commutator_bound} on an exactly normal fixture"
    return None


def exact_ops(inputs):
    ops = []
    s = inputs["sample_seed"]

    def peel(t, params):
        return Op(f"peel_decompose theorem form cs={sum(corner_sizes(t))}",
                  lambda: decomposition.peel_decompose(t, samples=300, seed=s),
                  lambda r: _check_peel(r, params))

    for t, params in inputs["forms"]:
        ops.append(peel(t, params))
        ops.append(Op(f"certify_normal theorem form cs={sum(corner_sizes(t))}",
                      lambda t=t: decomposition.certify_normal(t, samples=300, seed=s),
                      _check_not_normal))
    ops.extend(peel(t, params) for t, params in inputs["median"])
    for i, (t, zero) in enumerate(inputs["normals"]):
        ops.append(Op(f"certify_normal normal{i}",
                      lambda t=t: decomposition.certify_normal(t, samples=200, seed=s),
                      lambda r, z=zero: _check_normal(r, z)))
    for i, (a, b, c) in enumerate(inputs["inverses"]):
        ops.append(Op(f"block_upper_inverse n={len(c)} #{i}",
                      lambda a=a, b=b, c=c: decomposition.block_upper_inverse(a, b, c),
                      lambda r, a=a, b=b, c=c: _check_inverse(r, a, b, c)))
    return ops


# -- refute_sampling -------------------------------------------------------------------

PARANORMAL_SAMPLES = 3000
STAGE2_SAMPLES = 2000
# a k-grid of 32 keeps stage 3 the slowest operation (so latency_p90_ms sits
# among the stage-3 checks) while sampling keeps most of the round's time
STAGE3_K_GRID = 32


def weighted_shift(weights, limit):
    return OperatorExpr((L2,), {(0, 0): BandedBlock(
        {1: DiagonalSeq([Scalar.exact(w) for w in weights], Scalar.exact(limit))})})


def _shift_weights(rng, kind):
    """(weights, limit) of a weighted shift whose weights drop once, so it is
    not hyponormal: star-paranormal ('star', a^2 <= b c), failing
    star-paranormality at e1 ('not_star', a^2 > b c), or failing
    paranormality at e0 ('not_para', a > b)."""
    b = rng.randint(1, 3)
    a = b + rng.randint(1, 2)
    if kind == "star":
        c = -(-a * a // b) + rng.randint(0, 2)
    elif kind == "not_star":
        c = b
    else:
        c = a + rng.randint(0, 2)
    return [Fraction(a), Fraction(b)], Fraction(c)


def refute_inputs(seed):
    rng = random.Random(seed)
    forms = [theorem_fixture(_slot_rng("refute", 0), rng, (1, 2), 1, 2, 1),
             theorem_fixture(_slot_rng("refute", 1), rng, (2, 1), 1, 1, 0)]
    hypo = [("example1", gallery.example1()), ("right_shift", gallery.right_shift()),
            ("jacobi", gallery.jacobi_operator()),
            ("flip(+)2S", direct_sum(gallery.flip_unitary(), gallery.right_shift(2))),
            ("theorem_form", gallery.theorem_form([(3, [[0, 1], [1, 0]])], 2, 1, 1,
                                                  [(1, 0, 1)]))]
    hypo += [(f"theorem form {i}", t) for i, (t, _) in enumerate(forms)]
    shifts = [(kind, _shift_weights(rng, kind))
              for kind in ("star", "star", "star", "not_star", "not_para")]
    return {"hypo": hypo, "shifts": shifts,
            "seeds": [rng.randrange(10 ** 6) for _ in range(len(hypo) + len(shifts))]}


def _check_never_refuted(v):
    if v.status != "Numerical":
        return f"a hyponormal operator came back {v.status} from paranormal_refute"
    return None


def _check_shift_verdict(v, kind, weights, limit):
    if v.status == "Proven":
        return "a weighted shift that is not hyponormal came back Proven"
    # for weighted shifts paranormal and hyponormal coincide
    if kind == "not_para":
        pred, must_refute = "paranormal", not oracle.shift_is_hyponormal(weights, limit)
    else:
        pred, must_refute = "star", not oracle.shift_is_star_paranormal(weights, limit)
    if v.status == "Refuted":
        x = {k: oracle.scalar_value(s) for k, s in v.witness.data[0].items()}
        if not oracle.violates(pred, weights, limit, x):
            return "witness does not violate the inequality when recomputed exactly"
    elif must_refute:
        return f"a basis vector violates the inequality but the verdict is {v.status}"
    return None


def refute_ops(inputs):
    ops = []
    seeds = iter(inputs["seeds"])
    for name, t in inputs["hypo"]:
        s = next(seeds)
        ops.append(Op(f"paranormal_refute {name}",
                      lambda t=t, s=s: predicates.paranormal_refute(
                          t, samples=PARANORMAL_SAMPLES, seed=s),
                      _check_never_refuted))
    for kind, (weights, limit) in inputs["shifts"]:
        s = next(seeds)
        t = weighted_shift(weights, limit)
        label = ",".join(str(w) for w in weights) + f",{limit},..."
        if kind == "not_para":
            call, run = "paranormal_refute", (lambda t=t, s=s: predicates.paranormal_refute(
                t, samples=PARANORMAL_SAMPLES, seed=s))
        else:
            call, run = "star_paranormal_check", (
                lambda t=t, s=s: predicates.star_paranormal_check(
                    t, k_grid=STAGE3_K_GRID, samples=STAGE2_SAMPLES, seed=s))
        ops.append(Op(f"{call} shift({label})", run,
                      lambda r, k=kind, w=weights, lim=limit:
                          _check_shift_verdict(r, k, w, lim)))
    return ops


# -- entry points ----------------------------------------------------------------------

def build_inputs(name, seed):
    return {"cli_session": cli_inputs, "exact_certify": exact_inputs,
            "refute_sampling": refute_inputs}[name](seed)


def make_ops(name, inputs, workdir):
    if name == "cli_session":
        return cli_ops(inputs, workdir)
    if name == "exact_certify":
        return exact_ops(inputs)
    return refute_ops(inputs)


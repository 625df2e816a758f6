"""CLI exit codes, report determinism, and flag handling."""

import io
import json
import math
import os
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from anop.cli import main
from anop.gallery import (diag_operator, example2, jacobi_operator, nilpotent_pair,
                          right_shift)
from anop.blocks import BandedBlock, FiniteRankBlock
from anop.diagonals import DiagonalSeq
from anop.operators import L2, OperatorExpr, adjoint, direct_sum, identity_operator
from anop.ratfn import RationalFn
from anop.scalars import Scalar
from anop.serialize import serialize


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture()
def shift_file(tmp_path):
    code, out = run_cli(["gallery", "right_shift"])
    assert code == 0
    p = tmp_path / "shift.json"
    p.write_text(out)
    return str(p)


def test_check_hyponormal_shift_exit_zero(shift_file):
    code, out = run_cli(["check", shift_file, "--predicate", "hyponormal",
                         "--samples", "200"])
    assert code == 0
    assert "Proven" in out


def test_check_an_example2_adjoint_exit_one(tmp_path):
    p = tmp_path / "ex2_adj.json"
    p.write_text(serialize(adjoint(example2())))
    code, out = run_cli(["check", str(p), "--predicate", "an"])
    assert code == 1


def test_check_star_paranormal_nilpotent_witness(tmp_path):
    p = tmp_path / "nil.json"
    p.write_text(serialize(nilpotent_pair()))
    code, out = run_cli(["check", str(p), "--predicate", "star-paranormal",
                         "--samples", "200", "--json"])
    assert code == 1
    body = json.loads(out)
    assert body["report"]["witness"] is not None


def test_spectrum_modulus_example1(tmp_path):
    code, out = run_cli(["gallery", "example1"])
    p = tmp_path / "ex1.json"
    p.write_text(out)
    code, out = run_cli(["spectrum", str(p), "--of", "modulus", "--json"])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["m"] == 1.0 and rep["m_e"] == 2.0 and rep["norm"] == 2.0


def test_spectrum_identity_ess(tmp_path):
    p = tmp_path / "id.json"
    p.write_text('{"builtin": "identity"}')
    code, out = run_cli(["spectrum", str(p), "--of", "T*T", "--json"])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["ess"][0]["point"] == [1, 0]


def test_spectrum_ttstar_example2(tmp_path):
    p = tmp_path / "ex2.json"
    p.write_text(serialize(example2()))
    code, out = run_cli(["spectrum", str(p), "--of", "TT*", "--json"])
    assert code == 0
    rep = json.loads(out)["report"]
    pts = [e["point"] for e in rep["ess"]]
    assert pts == [[0, 0], [1, 0]]


@pytest.mark.parametrize("trunc, listed", [([], 64), (["--trunc", "32"], 32)])
def test_spectrum_lists_the_first_stream_values(tmp_path, trunc, listed):
    # T*T of example 2 has no corner eigenvalue and one stream 1/(k+1)^2 from
    # k = 1; a report lists its first min(trunc, 64) values
    p = tmp_path / "ex2.json"
    p.write_text(serialize(example2()))
    values = [Fraction(1, (k + 1) ** 2) for k in range(1, listed + 1)]
    code, out = run_cli(["spectrum", str(p), "--of", "T*T", "--json"] + trunc)
    assert code == 0
    assert [(d["exact"], d["mult"]) for d in json.loads(out)["report"]["discrete"]] == \
        [(str(v), 1) for v in values]
    code, out = run_cli(["spectrum", str(p), "--of", "modulus", "--json"] + trunc)
    assert code == 0
    assert [(d["value"], d["mult"]) for d in json.loads(out)["report"]["discrete"]] == \
        [(math.sqrt(float(v)), 1) for v in values]


def test_spectrum_of_shift_gram(shift_file):
    code, out = run_cli(["spectrum", shift_file, "--of", "T*T", "--json"])
    assert code == 0
    assert json.loads(out)["report"]["norm"] == 1.0


def test_decompose_theorem_form_exit_zero(tmp_path):
    code, out = run_cli(["gallery", "theorem_form", "--params",
                         '{"levels": [[3, [[0, 1], [1, 0]]]], "m_e": 2}'])
    assert code == 0
    p = tmp_path / "tf.json"
    p.write_text(out)
    code, out = run_cli(["decompose", str(p), "--samples", "300", "--json"])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["s_star_a_norm"] == 0.0


def test_decompose_refuted_exit_four(tmp_path):
    p = tmp_path / "nil.json"
    p.write_text(serialize(nilpotent_pair()))
    code, _ = run_cli(["decompose", str(p), "--samples", "200"])
    assert code == 4


def test_decompose_not_an_below_exact_m_e_exit_four(tmp_path):
    a, b = Fraction(25001, 25000), Fraction(1, 650859370833500)
    p = tmp_path / "below.json"
    p.write_text(serialize(diag_operator([], limit=a,
                                         rule=RationalFn([a - b, a], [1, 1]))))
    code, _ = run_cli(["decompose", str(p), "--samples", "200"])
    assert code == 4


def _ruled_band():
    """diag 1/(i+1) with off-diagonals 1: a ruled diagonal beside others, a
    tail outside the certified class."""
    return OperatorExpr((L2,), {(0, 0): BandedBlock({
        0: DiagonalSeq(rule=RationalFn([1], [1, 1])), 1: DiagonalSeq(limit=1),
        -1: DiagonalSeq(limit=1)})})


NOT_AN = "anop: NotAN: essential spectrum has positive diameter\n"
# operator whose T*T has a symbolic component -> (exit, stderr) of decompose
# and certify
SYMBOLIC_GRAMS = {
    "jacobi": (jacobi_operator, 4, NOT_AN),
    "two_plus_shift": (lambda: identity_operator((L2,)).scaled(2) + right_shift(1),
                       4, NOT_AN),
    "jacobi_and_ruled_band": (lambda: direct_sum(jacobi_operator(), _ruled_band()), 2,
                              "anop: UncertifiedTail: component tail is not in the "
                              "certified class\n"),
}


@pytest.mark.parametrize("cmd", ["decompose", "certify"])
@pytest.mark.parametrize("name", sorted(SYMBOLIC_GRAMS))
def test_not_an_from_the_symbols_builds_no_window(tmp_path, capsys, monkeypatch,
                                                  cmd, name):
    # an interval in the essential spectrum of T*T refuses T before any
    # window is built; a component outside the certified class still fails
    # first, as the summary of T*T fails
    import anop.decomposition, anop.operators, anop.predicates, anop.spectral
    build, want_code, want_err = SYMBOLIC_GRAMS[name]
    p = tmp_path / f"{name}.json"
    p.write_text(serialize(build()))
    sizes = []
    real = anop.operators.truncate
    for mod in (anop.operators, anop.spectral, anop.predicates, anop.decomposition):
        monkeypatch.setattr(mod, "truncate",
                            lambda op, n: sizes.append(n) or real(op, n))
    code, out = run_cli([cmd, str(p), "--json"])
    assert (code, out, capsys.readouterr().err) == (want_code, "", want_err)
    assert sizes == []


def test_certify_exit_codes(tmp_path, shift_file):
    code, out = run_cli(["gallery", "theorem_form", "--params",
                         '{"levels": [[3, [[0, 1], [1, 0]]]], "m_e": 2, '
                         '"tail_power": 1}'])
    p = tmp_path / "inv.json"
    p.write_text(out)
    # the tail is a strict shift, not invertible: certify should be 2
    code, _ = run_cli(["certify", str(p), "--samples", "200"])
    assert code == 2
    p2 = tmp_path / "scaled_id.json"
    p2.write_text('{"builtin": "identity", "scale": 2}')
    code, _ = run_cli(["certify", str(p2), "--samples", "100"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["theorem_form", "--params", "[1]"],
    ["theorem_form", "--params", '{"foo": 1}'],
    ["theorem_form", "--params", '{"levels": [], "m_e": "x"}'],
    # the operator file would carry a NaN or an out-of-range number
    ["scaled_shift", "--scale", "nan"],
    ["scaled_shift", "--scale", "1e300"],
])
def test_gallery_bad_parameters_exit_64(capsys, argv):
    code, out = run_cli(["gallery"] + argv)
    err = capsys.readouterr().err
    assert code == 64 and out == ""
    assert err.startswith("anop: ") and err.count("\n") == 1


def test_parse_error_exit_65(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    code, _ = run_cli(["check", str(p), "--predicate", "normal"])
    assert code == 65
    _, ex1 = run_cli(["gallery", "example1"])
    _, ex2 = run_cli(["gallery", "example2"])
    dense = '"matrix":[[[1,0],[0,0]],[[0,0],[1,0]]]'
    diagonals = '"diagonals":[{"limit":[2,0],"offset":1,"prefix":[]}]'
    entries = '"entries":[{"c":0,"r":0,"value":[1,0]}]'
    shift = '"limit":[2,0],"offset":1'

    def finite_rank(kind, dim, row, col, r, c):
        """One finite_rank entry (r, c) at (row, col) over (kind, l2)."""
        space = {"kind": kind, "dim": dim} if dim else {"kind": kind}
        return json.dumps({"spaces": [space, {"kind": "l2"}], "blocks": [
            {"row": row, "col": col, "kind": "finite_rank",
             "entries": [{"r": r, "c": c, "value": [5, 0]}]}]})
    assert all(part in ex1 for part in (dense, diagonals, entries, shift))
    hostile = {
        "nan": ex1.replace('"value":[1,0]', '"value":[NaN,0]'),
        "overflow": ex1.replace('"limit":[2,0]', '"limit":[1e400,0]'),
        # beyond the 2**200 bound: ||T^2 x||^2 would overflow the float tier
        "huge_exact": ex1.replace('"limit":[2,0]', f'"limit":[{10 ** 200},0]'),
        "huge_float": ex1.replace('"limit":[2,0]', '"limit":[1e100,0]'),
        "offset": ex1.replace('"offset":1,', '"offset":1.5,'),
        "empty": '{"blocks":[],"spaces":[]}',
        # a rule coefficient is a number like any other
        "rule_num": ex2.replace('"num":[1]', f'"num":[{10 ** 200}]'),
        # a dense matrix is rectangular and has its component's shape
        "ragged": ex1.replace(dense, '"matrix":[[[1,0],[2,0]],[[3,0]]]'),
        "long_row": ex1.replace(dense, '"matrix":[[[1,0],[0,0]],[[0,0],[2,0],[7,0]]]'),
        # a negative entry index once wrapped around to the last row or column
        "negative_col": finite_rank("finite", 2, 0, 0, 0, -1),
        "negative_row_cross": finite_rank("finite", 2, 0, 1, -1, 0),
        "negative_row_l2_diagonal": finite_rank("l2", None, 0, 0, -1, 0),
        # two entries at one (r, c) once kept the last without a word
        "duplicate_entry": finite_rank("finite", 2, 0, 0, 1, 0).replace(
            '"entries": [', '"entries": [{"r": 1, "c": 0, "value": [1, 0]}, '),
        # a number where the format names a list or an object
        "blocks_number": '{"blocks":5,"spaces":[{"kind":"l2"}]}',
        "diagonals_number": ex1.replace(diagonals, '"diagonals":5'),
        "diagonal_number": ex1.replace(diagonals, '"diagonals":[5]'),
        "prefix_number": ex1.replace('"prefix":[]', '"prefix":5', 1),
        "entries_number": ex1.replace(entries, '"entries":5'),
        "entry_number": ex1.replace(entries, '"entries":[5]'),
        "matrix_number": ex1.replace(dense, '"matrix":5'),
        "row_number": ex1.replace(dense, '"matrix":[5]'),
        "diag_entries_number": '{"builtin":"diag","entries":5}',
        # decay certificates need C >= 0 and p > 0, rules a pole-free tail
        "decay_p": ex1.replace(shift, '"decay":{"C":1,"p":-1},' + shift),
        "decay_c": ex1.replace(shift, '"decay":{"C":-1,"p":1},' + shift),
        "rule_pole": ex2.replace('"den":[1,1]', '"den":[-1,1]'),
    }
    for name, text in hostile.items():
        assert text not in (ex1, ex2)
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        for argv in (["check", str(p), "--predicate", "hyponormal"],
                     ["check", str(p), "--predicate", "paranormal"],
                     ["check", str(p), "--predicate", "an"],
                     ["spectrum", str(p)], ["decompose", str(p)],
                     ["certify", str(p)]):
            code, out = run_cli(argv + ["--samples", "50"])
            assert code == 65 and out == "", (name, argv)


def test_unreadable_file_exits_65(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"spaces": "\xff\xfe"}')
    for path in (tmp_path, binary, tmp_path / "missing.json"):
        code, out = run_cli(["spectrum", str(path)])
        assert code == 65 and out == "", path
        err = capsys.readouterr().err
        assert err.startswith("anop: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("power, argv", [
    (400, ["spectrum"]),
    (400, ["decompose", "--samples", "50"]),
    (400, ["check", "--predicate", "an"]),
    (200, ["spectrum"]),
])
def test_crash_exits_70_not_refuted(tmp_path, capsys, monkeypatch, power, argv):
    # an exact limit whose square overflows a float crashes the float tier;
    # the crash must exit 70 (internal error), never 1 (Refuted). Such a
    # limit is refused at parse time (test_parse_error_exit_65), so the
    # range bound is lifted here to let it reach the float tier.
    import importlib
    serialize = importlib.import_module("anop.serialize")
    monkeypatch.setattr(serialize, "_MAX_MAGNITUDE", 10 ** power)
    _, ex1 = run_cli(["gallery", "example1"])
    p = tmp_path / "huge.json"
    p.write_text(ex1.replace('"limit":[2,0]', f'"limit":[{10 ** power},0]'))
    code, out = run_cli([argv[0], str(p)] + argv[1:])
    assert code == 70 and out == ""
    assert "internal error: OverflowError" in capsys.readouterr().err


def _exit_code_within(argv, seconds):
    """run_cli(argv)'s exit code, failing if it runs past the limit; a daemon
    thread keeps a hang from stalling the suite."""
    codes = []
    worker = threading.Thread(target=lambda: codes.append(run_cli(argv)[0]), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"{' '.join(argv)} still running after {seconds} s"
    return codes[0]


def _example2_with_rule(tmp_path, rule):
    _, ex2 = run_cli(["gallery", "example2"])
    p = tmp_path / "rule.json"
    p.write_text(ex2.replace('"rule":{"den":[1,1],"kind":"ratfn","num":[1]}', rule))
    assert rule in p.read_text()
    return str(p)


def test_high_power_rule_finishes(tmp_path):
    # sums and products of a power-5 rule reach degrees in the tens and
    # Cauchy root bounds near 10**12, so rule analysis must not walk every
    # index up to a root bound; such walks once ran past 30 s here
    p = _example2_with_rule(tmp_path, '"rule":{"kind":"power","power":5,"scale":1,"shift":1}')
    assert _exit_code_within(["check", p, "--predicate", "an"], 20) == 1


@pytest.mark.parametrize("argv, code", [
    (["check", "--predicate", "an"], 1),
    (["check", "--predicate", "hyponormal"], 1),
    (["check", "--predicate", "paranormal"], 1),
    (["spectrum"], 0),
    (["decompose"], 4),
], ids=["an", "hyponormal", "paranormal", "spectrum", "decompose"])
def test_huge_root_bound_rule_finishes(tmp_path, argv, code):
    # 1/(i + 10**12): its denominator's root bound is 10**12 + 1, far beyond
    # any walk over the indices below it; the exit codes are example2's own
    p = _example2_with_rule(tmp_path, '"rule":{"kind":"ratfn","num":[1],"den":[%d,1]}'
                            % 10 ** 12)
    assert _exit_code_within(argv[:1] + [p] + argv[1:], 20) == code


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_stdout_closed_by_reader_exits_74(tmp_path, unbuffered):
    # a reader that closes the pipe before the report is written gets EX_IOERR
    # and one line on stderr, from a written or a still-buffered report alike
    _, ex1 = run_cli(["gallery", "example1"])
    p = tmp_path / "e1.json"
    p.write_text(ex1)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        x for x in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if x))
    proc = subprocess.Popen([sys.executable, "-m", "anop.cli", "check", str(p),
                             "--predicate", "an", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 74, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("anop: stdout was closed")


def test_linalg_error_exits_70(shift_file, capsys, monkeypatch):
    import numpy as np
    import anop.predicates

    def broken(t):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(anop.predicates, "is_normal", broken)
    code, _ = run_cli(["check", shift_file, "--predicate", "normal"])
    assert code == 70
    assert "internal error: LinAlgError" in capsys.readouterr().err


def test_value_error_inside_a_command_exits_70(shift_file, capsys, monkeypatch):
    # a ValueError raised while a command runs is an internal fault, not a
    # usage error: usage errors are decided where the arguments are read
    import anop.predicates

    def broken(t):
        raise ValueError("internal fault")
    monkeypatch.setattr(anop.predicates, "is_normal", broken)
    code, out = run_cli(["check", shift_file, "--predicate", "normal"])
    assert code == 70 and out == ""
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal error: ValueError: internal fault" in err


@pytest.mark.parametrize("argv, env", [
    (["gallery", "theorem_form", "--params", "{bad"], {}),
    # a ValueError of the builder reading its parameters
    (["gallery", "theorem_form", "--params", '{"levels": [], "m_e": 1, "h3_dim": "x"}'],
     {}),
    (["check", "FILE", "--predicate", "an"], {"ANOP_SEED": "abc"}),
    (["check", "FILE", "--predicate", "an", "--samples", "0"], {}),
])
def test_argument_errors_exit_64(shift_file, capsys, monkeypatch, argv, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out = run_cli([shift_file if a == "FILE" else a for a in argv])
    err = capsys.readouterr().err
    assert code == 64 and out == ""
    assert err.startswith("anop: ") and "Traceback" not in err


def test_decompose_kernel_below_tail(tmp_path):
    # flip (+) 0 (+) 2I: normal, star-paranormal and AN with a kernel below
    # the tail value; the kernel stays in the residual block
    p = tmp_path / "flip_zero_2i.json"
    p.write_text('{"spaces": [{"kind": "finite", "dim": 2}, '
                 '{"kind": "finite", "dim": 1}, {"kind": "l2"}], "blocks": ['
                 '{"row": 0, "col": 0, "kind": "dense", "matrix": [[0, 1], [1, 0]]}, '
                 '{"row": 2, "col": 2, "kind": "banded", '
                 '"diagonals": [{"offset": 0, "limit": 2}]}]}')
    code, out = run_cli(["decompose", str(p), "--samples", "300", "--json"])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["tier"] == "Exact" and rep["m_e"] == 2.0
    assert rep["delta_spectrum"] == [1.0, 0.0]
    assert rep["absorbed_deltas"] == [0.0]
    assert [(b["value"], b["dim"]) for b in rep["below"]] == [(1.0, 2)]
    assert [[], [[0, [1, 0]]], []] in rep["h3"]["vectors"]
    assert rep["s_star_a_norm"] == 0.0 and rep["s_star_a_exact_zero"]
    assert rep["reconstruction_residual"] == 0.0 and rep["split_residual"] == 0.0


def test_decompose_without_essential_spectrum(tmp_path):
    # 0 (+) flip is finite only: an empty essential spectrum is not the
    # point 0, so its kernel is no tail eigenspace and flip peels at 1
    p = tmp_path / "flip_zero.json"
    p.write_text('{"spaces": [{"kind": "finite", "dim": 1}, '
                 '{"kind": "finite", "dim": 2}], "blocks": ['
                 '{"row": 1, "col": 1, "kind": "dense", "matrix": [[0, 1], [1, 0]]}]}')
    code, out = run_cli(["decompose", str(p), "--samples", "300", "--json"])
    assert code == 0
    rep = json.loads(out)["report"]
    assert [(lvl["value"], lvl["dim"]) for lvl in rep["peeled"]] == [(1.0, 2)]
    assert rep["tail"]["isometry"] is None and rep["h3"] is None
    code, out = run_cli(["certify", str(p), "--samples", "300", "--json"])
    assert code == 0
    assert json.loads(out)["report"]["route"] == "KernelDimPath"


def test_usage_error_exit_64():
    with pytest.raises(SystemExit) as exc:
        run_cli(["check", "x.json", "--predicate", "bogus"])
    assert exc.value.code == 64


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_tol_not_finite_exit_64(tmp_path, capsys, tol):
    # nan <= 0 is False, so a bare sign test lets nan through
    p = tmp_path / "ex1.json"
    p.write_text(run_cli(["gallery", "example1"])[1])
    code, out = run_cli(["decompose", str(p), "--tol", tol])
    assert code == 64 and out == ""
    assert "tol finite" in capsys.readouterr().err


def test_star_paranormal_norm_underflow_is_numerical(tmp_path):
    # T = 10^-200 e0 (x) e1*: T^2 = 0 and ||T*e0||^2 = 10^-400 > 0, so T is
    # not star-paranormal, but ||T||^2 rounds to 0.0 as a float
    t = OperatorExpr((L2,), {(0, 0): FiniteRankBlock({(0, 1): Fraction(1, 10 ** 200)})})
    p = tmp_path / "tiny.json"
    p.write_text(serialize(t))
    code, out = run_cli(["check", str(p), "--predicate", "star-paranormal",
                         "--samples", "200", "--json"])
    report = json.loads(out)["report"]
    assert code == 2 and report["status"] == "Numerical"
    assert report["evidence"]["stage"] == 3
    assert "underflows" in report["evidence"]["rule"]


def test_star_paranormal_subnormal_norm_is_numerical(tmp_path):
    # weights 2, 1, 4, 4, ... times 10^-160: star-paranormal (2^2 <= 1 * 4)
    # but not hyponormal; ||T||^2 = 1.6e-319 is a positive subnormal float,
    # and the k-grid's lower end 2e-6 ||T||^2 underflows to 0.0
    e = Fraction(1, 10 ** 160)
    t = OperatorExpr((L2,), {(0, 0): BandedBlock(
        {1: DiagonalSeq([2 * e, e], Scalar.exact(4 * e))})})
    p = tmp_path / "subnormal.json"
    p.write_text(serialize(t))
    code, out = run_cli(["check", str(p), "--predicate", "star-paranormal",
                         "--samples", "300", "--json"])
    report = json.loads(out)["report"]
    assert code == 2 and report["status"] == "Numerical"
    assert report["evidence"]["stage"] == 3
    assert "underflows" in report["evidence"]["rule"]


def test_parser_built_once_per_process(shift_file, capsys):
    from anop import cli
    cli._parser.cache_clear()
    report = ["check", shift_file, "--predicate", "normal", "--json"]
    bogus = ["check", shift_file, "--predicate", "bogus"]
    first = run_cli(report)
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run_cli(bogus)
        assert exc.value.code == 64
        errors.append(capsys.readouterr().err)
        assert run_cli(report) == first
    assert cli._parser.cache_info().misses == 1
    # a parser built afresh gives the same usage error
    with pytest.raises(SystemExit):
        cli._parser.__wrapped__().parse_args(bogus)
    assert errors == [capsys.readouterr().err] * 2
    assert "invalid choice: 'bogus'" in errors[0]


def test_reports_byte_identical(shift_file):
    argv = ["check", shift_file, "--predicate", "star-paranormal",
            "--samples", "300", "--json"]
    c1, out1 = run_cli(argv)
    c2, out2 = run_cli(argv)
    assert c1 == c2 and out1.encode() == out2.encode()


def test_report_embeds_config_and_version(shift_file):
    _, out = run_cli(["check", shift_file, "--predicate", "normal", "--json"])
    body = json.loads(out)
    assert body["version"]
    assert set(body["config"]) == {"tol", "trunc", "samples", "seed", "k_grid",
                                   "max_peel", "output"}


def test_env_seed_override(shift_file, monkeypatch):
    monkeypatch.setenv("ANOP_SEED", "7")
    _, out = run_cli(["check", shift_file, "--predicate", "paranormal",
                      "--samples", "50", "--json"])
    body = json.loads(out)
    assert body["config"]["seed"] == 7


def test_audit_command():
    code, out = run_cli(["audit", "--samples", "800"])
    assert code == 0
    assert "DISAGREE" in out and "example2.ess_TTstar" in out

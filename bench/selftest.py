"""The benchmark's own tests: every check rejects a wrong answer.

    python3 bench/selftest.py            (or: python3 -m pytest bench/selftest.py)

Each test takes a right answer from the program, shows that the check
accepts it, then hands the check a wrong one (a dropped level, a flipped
exit code, a perturbed witness, ...) and shows that it is rejected.
"""

import copy
import dataclasses
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from anop import decomposition, predicates  # noqa: E402
from anop.scalars import Scalar  # noqa: E402
from anop.vectors import VectorExpr  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def _fixture():
    return wl.theorem_fixture(random.Random(3), random.Random(4), (2, 1), 2, 2, 1)


def test_peel_check_rejects_a_dropped_level_and_a_wrong_value():
    t, params = _fixture()
    cert = decomposition.peel_decompose(t, samples=300)
    assert wl._check_peel(cert, params) is None
    dropped = dataclasses.replace(cert, peeled=cert.peeled[1:])
    assert "levels" in wl._check_peel(dropped, params)
    moved = copy.copy(cert.peeled[0])
    moved.value += 1e-6
    assert wl._check_peel(dataclasses.replace(cert, peeled=[moved] + cert.peeled[1:]),
                          params) is not None


def test_peel_check_rejects_a_coupling_that_s_star_does_not_kill():
    t, params = _fixture()
    cert = decomposition.peel_decompose(t, samples=300)
    assert cert.a_cols, "the fixture needs a coupling"
    last = len(cert.spaces) - 1
    start = params["h3_dim"] + 2 * params["power"]
    bad = VectorExpr(cert.spaces, [{} for _ in range(last)] + [{start: Scalar.exact(1)}])
    assert "S*A" in wl._check_peel(dataclasses.replace(cert, a_cols=[bad]), params)


def test_normality_checks_reject_wrong_routes():
    inputs = wl.exact_inputs(5)
    t, zero = inputs["normals"][3]
    cert = decomposition.certify_normal(t, samples=200)
    assert wl._check_normal(cert, zero) is None
    assert wl._check_normal(dataclasses.replace(cert, normal=False), zero) is not None
    assert wl._check_normal(cert, not zero) is not None
    assert wl._check_not_normal(dataclasses.replace(cert, normal=True)) is not None


def test_inverse_check_rejects_a_perturbed_inverse():
    rng = random.Random(8)
    for kind in (0, 1, 2):
        a, b, c = wl._inverse_fixture(rng, rng, 3, kind)
        inv = decomposition.block_upper_inverse(a, b, c)
        assert wl._check_inverse(inv, a, b, c) is None
        c_inv = [list(row) for row in inv.c_inv]
        c_inv[0][0] = c_inv[0][0] + Scalar.exact(Fraction(1, 7))
        assert "identity" in wl._check_inverse(
            dataclasses.replace(inv, c_inv=c_inv), a, b, c)


def test_report_check_rejects_a_flipped_exit_code_and_bad_reports():
    rows = oracle.EXIT_TABLE["right_shift"]
    with tempfile.TemporaryDirectory() as tmp:
        files = {"right_shift": wl.run_cli(["gallery", "right_shift"])[1]}
        path = os.path.join(tmp, "s.json")
        with open(path, "w") as fh:
            fh.write(files["right_shift"])
        code, text, err = wl.run_cli(["check", path, "--predicate", "hyponormal", "--json"])
        row = rows["hyponormal"]
        assert wl._check_report("hyponormal", row, (code, text, err)) is None
        assert "exit" in wl._check_report("hyponormal", row, (1, text, err))
        assert "parse" in wl._check_report("hyponormal", row, (code, text[:-3], err))
        body = json.loads(text)
        body["report"]["status"] = "Refuted"
        assert "disagrees" in wl._check_report("hyponormal", row,
                                               (code, json.dumps(body), err))
        code, text, err = wl.run_cli(["spectrum", path, "--of", "modulus", "--json"])
        opdict = json.loads(files["right_shift"])
        assert wl._check_report("spectrum", (0, ""), (code, text, err), opdict) is None
        body = json.loads(text)
        body["report"]["norm"] = 1.5
        assert "norm" in wl._check_report("spectrum", (0, ""),
                                          (code, json.dumps(body), err), opdict)


def test_report_check_rejects_a_missing_report():
    # an internal error that cli.main maps to exit 2 prints no report
    paranormal = oracle.EXIT_TABLE["right_shift"]["paranormal"]
    crashed = (2, "", "anop: AnopError: internal\n")
    assert wl._check_report("paranormal", paranormal, crashed) == "no report"
    for want in (0, 1):
        assert wl._check_report("x", (want, ""), (want, "", "")) == "no report"
    # rows that expect no report name the error class on stderr
    jacobi = oracle.EXIT_TABLE["jacobi"]["m-star-equals-m"]
    refused = (2, "", "anop: NotNormAttaining: operator does not attain its norm\n")
    assert wl._check_report("m-star-equals-m", jacobi, refused) is None
    assert "expected NotNormAttaining" in wl._check_report("m-star-equals-m", jacobi,
                                                           crashed)
    assert "report where" in wl._check_report("m-star-equals-m", jacobi,
                                              (2, "{}", refused[2]))
    not_an = oracle.EXIT_TABLE["jacobi"]["decompose"]
    assert wl._check_report("decompose", not_an, (4, "", "anop: NotAN: x\n")) is None
    assert wl._check_report("decompose", not_an, (4, "", "")) is not None


def test_repeated_reports_must_be_byte_identical():
    op = wl.Op("cmd", None, lambda r: None)
    expected = [run.fingerprint((0, "a", ""))]
    assert run.tally_round([op], [(0, "a", "")], expected) == (0, [])
    assert run.tally_round([op], [(0, "a ", "")], expected) == (0, ["cmd"])
    assert run.tally_round([op], [ValueError("boom")], expected) == (1, ["cmd"])


def test_hostile_operations_fail_until_they_exit_65():
    op = wl.Op("hostile", None, lambda r: None, hostile=True)
    assert op.failed((1, "", "")) and op.failed((0, "", "")) \
        and not op.failed((65, "", ""))
    assert run.check_results([op], [(1, "", "")]) == []
    regular = wl.Op("regular", None, lambda r: None)
    assert run.check_results([regular], [ValueError("boom")])


def test_witness_check_rejects_a_perturbed_witness():
    weights, limit = [Fraction(3), Fraction(2)], Fraction(2)
    t = wl.weighted_shift(weights, limit)
    v = predicates.star_paranormal_check(t, samples=200, seed=1)
    assert v.status == "Refuted"
    assert wl._check_shift_verdict(v, "not_star", weights, limit) is None
    x = {k: oracle.scalar_value(s) for k, s in v.witness.data[0].items()}
    assert oracle.violates("star", weights, limit, x)
    # moving the witness to e0 makes ||T*x|| vanish: no violation
    bad = dataclasses.replace(v, witness=VectorExpr(t.spaces, [{0: Scalar.exact(1)}]))
    assert "witness" in wl._check_shift_verdict(bad, "not_star", weights, limit)
    assert "basis vector" in wl._check_shift_verdict(
        dataclasses.replace(v, status="Numerical", witness=None), "not_star",
        weights, limit)


def test_shift_and_hyponormal_checks_reject_wrong_statuses():
    weights, limit = [Fraction(2), Fraction(1)], Fraction(4)
    assert oracle.shift_is_star_paranormal(weights, limit)
    assert not oracle.shift_is_hyponormal(weights, limit)
    proven = predicates.PredicateVerdict("star_paranormal", "Proven")
    assert "Proven" in wl._check_shift_verdict(proven, "star", weights, limit)
    refuted = predicates.PredicateVerdict("paranormal", "Refuted")
    assert wl._check_never_refuted(refuted) is not None
    assert wl._check_never_refuted(predicates.PredicateVerdict("paranormal", "Numerical")) is None


def test_window_reader_matches_numpy_singular_values():
    # example1: sigma(|T|) = {2, sqrt 2, 1}
    opdict = json.loads(wl.run_cli(["gallery", "example1"])[1])
    report = {"ess": [{"point": [2, 0]}], "discrete": [
        {"value": 2 ** 0.5, "mult": 1}, {"value": 1.0, "mult": 1}],
        "norm": 2.0, "m": 1.0, "m_e": 2.0}
    assert oracle.modulus_report_matches(report, opdict, n=32) == []
    report["discrete"] = report["discrete"][:1]
    assert oracle.modulus_report_matches(report, opdict, n=32)


if __name__ == "__main__":
    names = sorted(n for n in dir() if n.startswith("test_"))
    for name in names:
        globals()[name]()
        print(f"ok  {name}")
    print(f"{len(names)} checks reject their wrong answers")

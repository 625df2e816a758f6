"""CLI exit codes, report determinism, and flag handling."""

import io
import json
import os
import sys
import threading
from contextlib import redirect_stdout

import pytest

from anop.cli import main
from anop.gallery import example2, nilpotent_pair
from anop.operators import adjoint
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


def test_parse_error_exit_65(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    code, _ = run_cli(["check", str(p), "--predicate", "normal"])
    assert code == 65
    _, ex1 = run_cli(["gallery", "example1"])
    _, ex2 = run_cli(["gallery", "example2"])
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


def test_high_power_rule_finishes(tmp_path):
    # sums and products of rules used to rescan every index below the root
    # bound of their product denominator, which for a power-5 rule ran past
    # 30 s; a daemon thread keeps a hang from stalling the suite
    _, ex2 = run_cli(["gallery", "example2"])
    p = tmp_path / "power5.json"
    p.write_text(ex2.replace('"rule":{"den":[1,1],"kind":"ratfn","num":[1]}',
                             '"rule":{"kind":"power","power":5,"scale":1,"shift":1}'))
    assert '"power":5' in p.read_text()
    codes = []
    worker = threading.Thread(
        target=lambda: codes.append(run_cli(["check", str(p), "--predicate", "an"])[0]),
        daemon=True)
    worker.start()
    worker.join(20)
    assert not worker.is_alive(), "check --predicate an still running after 20 s"
    assert codes == [1]


def test_linalg_error_exits_70(shift_file, capsys, monkeypatch):
    import numpy as np
    import anop.predicates

    def broken(t):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(anop.predicates, "is_normal", broken)
    code, _ = run_cli(["check", shift_file, "--predicate", "normal"])
    assert code == 70
    assert "internal error: LinAlgError" in capsys.readouterr().err


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


def test_usage_error_exit_64():
    with pytest.raises(SystemExit) as exc:
        run_cli(["check", "x.json", "--predicate", "bogus"])
    assert exc.value.code == 64


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

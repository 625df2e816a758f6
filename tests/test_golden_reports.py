"""Golden CLI reports: exit codes and `--json` stdout, byte for byte.

`tests/golden/operators/` holds the operator files and
`tests/golden/reports.json` the exit code and stdout of each command on
each of them. The test replays every command and compares bytes, so a
refactor that changes any verdict, witness, figure or key order fails here.

To re-record after a deliberate change of report content, run
`PYTHONPATH=src python tests/test_golden_reports.py --record` and review
the diff of `tests/golden/` like any other change.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from anop.cli import PREDICATES, main

GOLDEN = Path(__file__).parent / "golden"
OPERATORS = GOLDEN / "operators"
REPORTS = GOLDEN / "reports.json"

# name -> argv of `anop gallery` that writes the operator file
GALLERY_ARGV = {
    "example1": ["gallery", "example1"],
    "example2": ["gallery", "example2"],
    "right_shift": ["gallery", "right_shift"],
    "nilpotent": ["gallery", "nilpotent"],
    "jacobi": ["gallery", "jacobi"],
    "flip_unitary": ["gallery", "flip_unitary"],
    "scaled_shift": ["gallery", "scaled_shift"],
    "theorem_form": ["gallery", "theorem_form", "--params",
                     '{"levels": [[4, [[0, 1], [1, 0]]]], "m_e": 3, '
                     '"tail_power": 1, "h3_dim": 2, "a_entries": [[2, 0, 2]], '
                     '"b_matrix": [[0, 0], [0, 1]]}'],
}

SAMPLES = ["--samples", "500", "--json"]

# `decompose` on flip (+) 0 (+) 2I, whose kernel sits below the tail, is
# checked for a valid certificate in test_cli rather than byte for byte
SKIPPED = {("flip_zero_2i", "decompose")}


def _commands():
    cmds = {f"check-{p}": ["check", "{file}", "--predicate", p] + SAMPLES
            for p in PREDICATES}
    cmds["spectrum-modulus"] = ["spectrum", "{file}", "--of", "modulus"] + SAMPLES
    cmds["decompose"] = ["decompose", "{file}"] + SAMPLES
    cmds["certify"] = ["certify", "{file}"] + SAMPLES
    return cmds


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _load_reports():
    return json.loads(REPORTS.read_text())


def _case_ids():
    return sorted(_load_reports()) if REPORTS.exists() else []


@pytest.mark.parametrize("case", _case_ids())
def test_golden_report(case):
    want = _load_reports()[case]
    argv = [a.replace("{file}", str(OPERATORS / f"{want['operator']}.json"))
            for a in want["argv"]]
    code, out = run_cli(argv)
    assert code == want["exit"]
    assert out == want["stdout"]


@pytest.mark.parametrize("name", sorted(GALLERY_ARGV))
def test_gallery_files_unchanged(name):
    code, out = run_cli(GALLERY_ARGV[name])
    assert code == 0
    assert out == (OPERATORS / f"{name}.json").read_text()


def test_golden_set_covers_every_command():
    reports = _load_reports()
    names = {p.stem for p in OPERATORS.glob("*.json")}
    for name in names:
        for cmd in _commands():
            if (name, cmd) not in SKIPPED:
                assert f"{name}/{cmd}" in reports


def _record():
    """Write operator files for the gallery names (the others must already
    exist) and record every command's exit code and stdout."""
    OPERATORS.mkdir(parents=True, exist_ok=True)
    for name, argv in GALLERY_ARGV.items():
        code, out = run_cli(argv)
        assert code == 0, name
        (OPERATORS / f"{name}.json").write_text(out)
    reports = {}
    for path in sorted(OPERATORS.glob("*.json")):
        for cmd, argv in _commands().items():
            if (path.stem, cmd) in SKIPPED:
                continue
            code, out = run_cli([a.replace("{file}", str(path)) for a in argv])
            reports[f"{path.stem}/{cmd}"] = {"operator": path.stem, "argv": argv,
                                             "exit": code, "stdout": out}
    REPORTS.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    _record()

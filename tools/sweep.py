"""Differential sweep of the `anop` CLI: every report command on a fixed set
of operator files, one JSON line per run.

    python3 tools/sweep.py > sweep.jsonl

The operators are the golden operator files of `tests/golden/operators/`,
`random_theorem_form` seeds 1-40 as drawn and seeds 1-30 scaled by 0.7, and
operators whose T*T or TT* takes the symbolic path (`symbolic_operators`):
some have a window with every value certified inside the essential
interval, some a discrete eigenvalue or a window too wide or not real,
which eigvalsh lists. On
each runs every `check` predicate, `spectrum` of T*T, TT* and the modulus,
`spectrum` of T*T with `--trunc 32` (below the 64 stream values a report
lists by default), `decompose` and `certify`, all with `--json --samples
300`. Then come `audit --json` and `gallery NAME` for every named gallery
operator (bare `theorem_form` exits 64: it needs parameters). All run through
`anop.cli.main` in one process. Each line holds the argv (the operator file
named by its stem), the exit code, the sha256 of stdout and the last line
of stderr.

After the CLI lines comes one line per operator of the sweep with the
library's operator equality, `ops_equal_exact`, of four pairs: T and
parse(serialize(T)), T*T and (T*T)*, TT* and (TT*)*, and T*T and TT* (the
normality question). A pair whose construction or comparison raises shows
the exception's class name. The program is imported from `src/` next to
`tools/`, so two checkouts compare by a `diff` of their outputs.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# one BLAS thread, as in bench/run.py, so float sums keep one order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from anop import (L2, BandedBlock, DiagonalSeq, OperatorExpr, Scalar,  # noqa: E402
                  adjoint, cli, direct_sum, identity_operator, load, multiply,
                  ops_equal_exact, parse)
from anop.gallery import (example1, jacobi_operator, random_theorem_form,  # noqa: E402
                          right_shift)
from anop.serialize import serialize  # noqa: E402

OPTIONS = ["--json", "--samples", "300"]
COMMANDS = ([["check", "--predicate", p] for p in cli.PREDICATES]
            + [["spectrum", "--of", of] for of in ("T*T", "TT*", "modulus")]
            + [["spectrum", "--of", "T*T", "--trunc", "32"]]
            + [["decompose"], ["certify"]])
GALLERY = ("example1", "example2", "right_shift", "nilpotent", "jacobi",
           "flip_unitary", "scaled_shift", "theorem_form")


def _band2(prefix=()):
    """S^2 + S*^2 with the main diagonal `prefix` then 0."""
    one = DiagonalSeq(limit=1)
    return OperatorExpr((L2,), {(0, 0): BandedBlock(
        {0: DiagonalSeq(prefix), 2: one, -2: one})})


def symbolic_operators():
    """(name, operator) of the operators of the symbolic path."""
    free, prefix5 = jacobi_operator(), jacobi_operator(diag=DiagonalSeq([5]))
    i = Scalar.exact(0, 1)
    return [("jacobi_x0.7", free.scaled(0.7)),
            ("jacobi_prefix5", prefix5),
            ("jacobi_prefix5_x0.7", prefix5.scaled(0.7)),
            ("jacobi+2I", direct_sum(free, identity_operator((L2,)).scaled(2))),
            ("jacobi+example1", direct_sum(free, example1())),
            ("jacobi+right_shift", direct_sum(free, right_shift())),
            ("iS-iS*", right_shift().scaled(i) - adjoint(right_shift()).scaled(i)),
            ("band2", _band2()),
            ("band2_prefix3", _band2([3]))]


def operator_files(workdir):
    """(name, path) of every operator of the sweep."""
    golden = ROOT / "tests" / "golden" / "operators"
    files = [(p.stem, p) for p in sorted(golden.glob("*.json"))]
    drawn = [(f"rtf{seed}", random_theorem_form(seed)[0]) for seed in range(1, 41)]
    drawn += [(f"rtf{seed}x0.7", random_theorem_form(seed)[0].scaled(0.7))
              for seed in range(1, 31)]
    drawn += symbolic_operators()
    for name, t in drawn:
        path = Path(workdir) / f"{name}.json"
        path.write_text(serialize(t))
        files.append((name, path))
    return files


def run(argv):
    """(exit code, stdout, stderr) of `anop.cli.main(argv)`; an uncaught
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


def report(shown, argv):
    """Run argv and print its line, with `shown` as the argv."""
    code, out, err = run(argv)
    lines = err.strip().splitlines()
    print(json.dumps({"argv": shown, "exit": code,
                      "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
                      "stderr_last": lines[-1] if lines else ""}), flush=True)


def _with_adjoint(a):
    return a, adjoint(a)


# the pairs of the equality line, each built from the operator T
EQUALITIES = {
    "T=parse(serialize(T))": lambda t: (t, parse(serialize(t))),
    "T*T=(T*T)*": lambda t: _with_adjoint(multiply(adjoint(t), t)),
    "TT*=(TT*)*": lambda t: _with_adjoint(multiply(t, adjoint(t))),
    "T*T=TT*": lambda t: (multiply(adjoint(t), t), multiply(t, adjoint(t))),
}


def equality_report(name, path):
    """Print the equality line of the operator file at path."""
    line = {"operator": name}
    for key, pair in EQUALITIES.items():
        try:
            line[key] = ops_equal_exact(*pair(load(path)))
        except Exception as exc:
            line[key] = type(exc).__name__
    print(json.dumps(line), flush=True)


def main():
    with tempfile.TemporaryDirectory() as workdir:
        files = operator_files(workdir)
        for name, path in files:
            for cmd in COMMANDS:
                report([cmd[0], name] + cmd[1:] + OPTIONS,
                       [cmd[0], str(path)] + cmd[1:] + OPTIONS)
        report(["audit", "--json"], ["audit", "--json"])
        for name in GALLERY:
            report(["gallery", name], ["gallery", name])
        for name, path in files:
            equality_report(name, path)


if __name__ == "__main__":
    main()

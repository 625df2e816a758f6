"""The traced benchmark run wraps functions by name (`TARGETS` in
`bench/tracing.py`); a refactor that deletes or renames one of them fails
here instead of in a traced run."""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
TARGETS = runpy.run_path(str(TRACING))["TARGETS"]


def _resolve(modname, path):
    owner = importlib.import_module(f"anop.{modname}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


@pytest.mark.parametrize("modname, path", [(m, p) for m, p, _ in TARGETS])
def test_traced_target_resolves(modname, path):
    assert callable(_resolve(modname, path))


@pytest.mark.parametrize("modname, path",
                         [(m, p) for m, p, stats in TARGETS if "generator" in stats])
def test_generator_target_is_a_generator_function(modname, path):
    # the tracer drives these with next() and times each resume
    assert inspect.isgeneratorfunction(_resolve(modname, path))

"""The traced benchmark run wraps functions by name (`TARGETS` in
`bench/tracing.py`); a refactor that deletes or renames one of them fails
here instead of in a traced run."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    return [(modname, path) for modname, path, _ in targets]


@pytest.mark.parametrize("modname, path", _targets())
def test_traced_target_resolves(modname, path):
    owner = importlib.import_module(f"anop.{modname}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)

"""The benchmark's tracer swaps package attributes by name; each must exist and come back."""

import importlib
from pathlib import Path

import quiver_cones
from quiver_cones import cli, cones, redundancy, schofield

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _attributes():
    owners = (cli, cones, redundancy, schofield, schofield.ExtTable)
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_traced_names_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = _attributes()
    with tracing.installed(tracing.Tracer(), quiver_cones):
        swapped = {key for key, value in _attributes().items() if before.get(key) is not value}
    assert len(swapped) == 15
    assert _attributes() == before

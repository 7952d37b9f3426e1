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


def test_reduce_is_one_traced_span_with_no_lp_span(monkeypatch, d5hat, d5hat_table):
    # reduce re-solves one warm tableau (redundancy._Farkas) and never calls
    # redundancy.solve_max, so the benchmark's lp_calls and lp_p50_ms, which count
    # solve_max spans, read 0 on reduce; its time is in the irredundant_core span
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    calls, contains = [], redundancy._Farkas.contains

    def recording(lp, c):
        calls.append(c)
        return contains(lp, c)

    monkeypatch.setattr(redundancy._Farkas, "contains", recording)
    q, _ = d5hat
    system = cones.inequalities(d5hat_table, quiver_cones.DimVector(q, (1, 2, 3, 3, 2, 1)), "dw")
    with tracing.installed(tracing.Tracer(), quiver_cones) as tracer:
        core = cli.irredundant_core(system)
    assert len(tracer.durations("redundancy.irredundant_core")) == 1
    assert tracer.durations("redundancy.solve_max") == []
    assert len(calls) == 59 + 11  # one per row, then one per survivor of the filter
    assert (len(system.normals), len(core.normals)) == (59, 8)

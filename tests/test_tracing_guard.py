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


def test_every_lp_of_reduce_is_one_traced_span(monkeypatch, d5hat, d5hat_table):
    # the benchmark's lp_calls and lp_p50_ms count redundancy.solve_max spans:
    # one per LP that reduce runs, whatever the signature of solve_max
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    calls, solve_max = [], redundancy.solve_max

    def recording(*args):
        calls.append(args)
        return solve_max(*args)

    monkeypatch.setattr(redundancy, "solve_max", recording)
    q, _ = d5hat
    system = cones.inequalities(d5hat_table, quiver_cones.DimVector(q, (1, 2, 3, 3, 2, 1)), "dw")
    with tracing.installed(tracing.Tracer(), quiver_cones) as tracer:
        core = redundancy.irredundant_core(system)
    assert calls and len(tracer.durations("redundancy.solve_max")) == len(calls)
    assert (len(system.normals), len(core.normals)) == (59, 8)

"""Tests of the benchmark itself, on its smoke inputs.

Run with:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _run(*argv, cwd=None, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *argv], capture_output=True,
                          text=True, timeout=300, cwd=cwd)


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_end_to_end(name):
    metrics = _result(_run("--workload", name, "--seed", "3", "--seconds", "0.2",
                           "--trace", "0", "--smoke"))
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", ["reduce", "member-warm"])
def test_smoke_per_layer(name):
    metrics = _result(_run("--workload", name, "--seed", "3", "--seconds", "0.2",
                           "--trace", "1", "--smoke"))
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    layer = "redundancy" if name == "reduce" else "cones"
    assert metrics[f"{layer}.self_s"]["value"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_checks_reject_wrong_answers():
    goldens = {}
    path = HERE.parent / "tests" / "goldens.py"
    exec(compile(path.read_text(), str(path), "exec"), goldens)
    ctx = workloads.Context(None, goldens, "unused.quiver", None, [])

    counts = workloads.make("d5hat-counts", goldens)
    assert counts.check(ctx, 0, (0, "1,1,1,1,1,1\t9\t9\t5\n"))
    assert not counts.check(ctx, 0, (0, "1,1,1,1,1,1\t9\t9\t6\n"))
    assert not counts.check(ctx, 0, (2, "1,1,1,1,1,1\t9\t9\t5\n"))

    reduce = workloads.make("reduce", goldens)
    reduce.full[0] = {"0\t1\t0", "0\t0\t1", "1\t1\t0", "1\t0\t1", "9\t9\t9"}
    assert reduce.check(ctx, 0, (0, "0\t1\t0\n0\t0\t1\n1\t1\t0\n1\t0\t1\n"))
    assert not reduce.check(ctx, 0, (0, "0\t1\t0\n0\t0\t1\n1\t1\t0\n"))
    assert not reduce.check(ctx, 0, (0, "0\t1\t0\n0\t0\t1\n1\t1\t0\n9\t9\t9\n"))
    assert not reduce.check(ctx, 1, (0, ""))

    member = workloads.make("member-warm", goldens)
    assert member.check(ctx, ("dw", (0, 0, 0)), True)
    assert member.check(ctx, ("antiinv", (0, 0, 1)), False)
    assert not member.check(ctx, ("inductive", (0, 0, 1)), True)


def test_member_weights_follow_the_seed():
    class Basis:
        def from_coords(self, coords):
            return coords

    work = workloads.MemberWarm(weights_per_pass=5)
    work.basis = Basis()
    keys = lambda seed: [k for k, _ in work.queries(None, seed, 0)]
    assert keys(1) == keys(1) and keys(1) != keys(2)


def test_refuses_a_checkout_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracing.py", "workloads.py"):
        shutil.copy(HERE / name, bench / name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "reduce", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=bench / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

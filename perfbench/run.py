"""Benchmark for quiver-cones: exact answers, checked, timed from outside.

Run one workload (what the result line reports is described in README.md):

    python3 perfbench/run.py --workload d5hat-counts --seed 1 --seconds 10 --trace 0

Run every workload, each in its own fresh process, and print a table:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1] [--smoke]

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 gives the end-to-end metrics,
--trace 1 the per-layer ones.  A wrong or failed answer makes the exit code 1;
a program that cannot be loaded makes it 2, with no result line.
"""

import os

# Single-threaded by design; no BLAS/OpenMP pool may grow past one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB",
    "query_p50_ms": "ms", "query_p99_ms": "ms",
}
PER_LAYER = {
    "quiverfile.parse_s": "s",
    "schofield.subdims_s": "s", "schofield.box_points": "count", "schofield.n1": "count",
    "schofield.subdim_yield": "ratio", "schofield.ext_calls": "count",
    "quiver.euler_form_calls": "count",
    "schofield.disc_s": "s", "schofield.witness_s": "s",
    "cones.n2_s": "s", "cones.i0_s": "s",
    "cones.n2": "count", "cones.n3": "count", "cones.ineq_rows": "count",
    "cones.member_dw_s": "s", "cones.member_inductive_s": "s", "cones.member_antiinv_s": "s",
    "cones.accept_frac": "ratio",
    "redundancy.reduce_s": "s", "redundancy.lp_calls": "count", "redundancy.lp_p50_ms": "ms",
    "redundancy.rows_in": "count", "redundancy.rows_out": "count", "redundancy.keep_frac": "ratio",
    **{f"{layer}.self_{kind}": unit
       for layer in ("cli", "quiverfile", "schofield", "cones", "redundancy")
       for kind, unit in (("s", "s"), ("frac", "ratio"))},
    "trace.solve_s": "s", "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}


def percentile(values, p):
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def current_cpu():
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def commit():
    """HEAD of the checkout's git metadata, read directly; 'unknown' without one."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "blas_threads": 1, "commit": commit(),
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "smoke": args.smoke}


def load_program():
    """(quiver_cones package, golden tables); raises if the checkout lacks them."""
    if not (SRC / "quiver_cones" / "__init__.py").is_file():
        raise ImportError(f"no quiver_cones package under {SRC}")
    sys.path.insert(0, str(SRC))
    qc = importlib.import_module("quiver_cones")
    for sub in ("cli", "cones", "redundancy", "schofield"):
        importlib.import_module(f"quiver_cones.{sub}")
    goldens_path = ROOT / "tests" / "goldens.py"
    goldens = {}
    exec(compile(goldens_path.read_text(), str(goldens_path), "exec"), goldens)
    return qc, goldens


def import_seconds(probe):
    """Import time of quiver_cones in a fresh interpreter, in reference seconds."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import quiver_cones; print(time.perf_counter() - t)")
    start = time.perf_counter()
    with probe.busy():
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=120)
    end = time.perf_counter()
    probe.between()
    return float(done.stdout) * probe.factor(start, end)


def set_up(work, qc, goldens, probe, reps):
    """Repeat import, then zoo -> quiver file -> parse (-> warm-up), reps times.

    Returns the context, the quiver file, and the medians of set-up and parse
    time, in reference seconds."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{work.name}-{os.getpid()}.quiver"
    imports, prepares, parses = [], [], []
    for _ in range(reps):
        imports.append(import_seconds(probe))
        with probe.busy():
            start = time.perf_counter()
            code, text = workloads.cli_call(qc.cli.main, list(work.zoo))
            if code != 0:
                raise RuntimeError(f"zoo {work.zoo} exited {code}")
            path.write_text(text)
            parse_start = time.perf_counter()
            quiver, involutions = qc.parse_quiver_file(path.read_text())
            parse_end = time.perf_counter()
            ctx = workloads.Context(qc, goldens, str(path), quiver, involutions)
            work.prepare(ctx)
            end = time.perf_counter()
        probe.between()
        parses.append((parse_start, parse_end))
        prepares.append((start, end))
    probe.settle()
    prepare = statistics.median(probe.scaled(*i) for i in prepares)
    parse = statistics.median(probe.scaled(*i) for i in parses)
    return ctx, path, statistics.median(imports) + prepare, parse


class Tally:
    """Answers checked pass by pass, outside the timed calls, so none pile up."""

    def __init__(self, work, ctx):
        self.work, self.ctx = work, ctx
        self.attempted = self.failed = self.accepted = 0

    def check(self, answers):
        for key, answer in answers:
            self.attempted += 1
            self.accepted += answer is True
            if isinstance(answer, Exception) or not self.work.check(self.ctx, key, answer):
                self.failed += 1
                print(f"perfbench: wrong answer for {self.work.name} query {key!r}: {answer!r}",
                      file=sys.stderr)


def run_pass(queries, probe):
    """(start, end) wall interval and answer of each query."""
    spans, answers = [], []
    for key, fn in queries:
        with probe.busy():
            start = time.perf_counter()
            try:
                answer = fn()
            except Exception as exc:  # a failed answer is counted, not fatal
                traceback.print_exc()
                answer = exc
            spans.append((start, time.perf_counter()))
        answers.append((key, answer))
        probe.between()
    return spans, answers


def timed_phase(work, ctx, seed, tally, probe, seconds=None, passes=None, tracer=None):
    """Whole passes: `passes` of them, or while one more fits in `seconds` of
    query wall time (at least one).

    Returns the reference seconds of each pass and of each query."""
    pass_spans, walls = [], []
    while True:
        if passes is not None:
            if len(pass_spans) >= passes:
                break
        elif walls and sum(walls) + statistics.median(walls) > seconds:
            break
        queries = work.queries(ctx, seed, len(pass_spans), tracer)
        gc.collect()
        with tracer.span("bench.pass") if tracer else nullcontext():
            spans, answers = run_pass(queries, probe)
        pass_spans.append(spans)
        walls.append(sum(end - start for start, end in spans))
        tally.check(answers)
    probe.settle()
    pass_times, query_times = [], []
    for spans in pass_spans:
        times = [probe.scaled(start, end) for start, end in spans]
        pass_times.append(sum(times))
        query_times.extend(times)
    return pass_times, query_times


def mirror(work, ctx, probe):
    """`counts` step by step on cold tables: generic_subdims, then
    inequalities(inductive), then enumerate_I0 per involution.

    Returns (metrics, answers attempted, wrong answers)."""
    qc = ctx.qc
    tracer = tracing.Tracer()
    n1 = n2 = n3 = box_points = failed = 0
    with tracing.installed(tracer, qc), probe.busy():
        for alpha, inv_names, want_n1, want_n2, want_n3s in work.mirror_rows:
            table = qc.ExtTable(ctx.quiver)
            a = qc.DimVector(ctx.quiver, alpha)
            subs = table.generic_subdims(a)
            system = qc.cones.inequalities(table, a, "inductive")
            pairs = [qc.cones.enumerate_I0(table, a, ctx.involution(name)) for name in inv_names]
            got = (len(subs), len(system.normals), tuple(len(p) for p in pairs))
            if got != (want_n1, want_n2, tuple(want_n3s)):
                failed += 1
                print(f"perfbench: mirror of counts at {alpha} gave {got}", file=sys.stderr)
            n1, n2, n3 = n1 + got[0], n2 + got[1], n3 + sum(got[2])
            points = 1
            for x in alpha:
                points *= x + 1
            box_points += points
    probe.settle()
    scale = probe.scaled
    metrics = {
        "schofield.subdims_s": sum(tracer.durations("schofield.generic_subdims", scale)),
        "cones.n2_s": sum(tracer.durations("cones.inequalities", scale)),
        "cones.i0_s": sum(tracer.durations("cones.enumerate_I0", scale)),
        "schofield.box_points": box_points, "schofield.n1": n1,
        "schofield.subdim_yield": n1 / box_points if box_points else 0.0,
        "cones.n2": n2, "cones.n3": n3,
    }
    return metrics, len(work.mirror_rows), failed


def layer_metrics(tracer, probe, passes, tally, traced_solve, untraced_solve):
    """Per-pass layer numbers from the traced phase, in reference seconds.

    Span times are scaled one by one; self times, which mix spans, are scaled
    by the probe's median over the whole traced phase."""
    per_pass = lambda x: x / passes
    scale = probe.scaled
    phase = [(start, end) for name, start, end, _ in tracer.spans if name == "bench.pass"]
    total = sum(end - start for start, end in phase)
    factor = probe.factor(phase[0][0], phase[-1][1])
    selfs = tracer.self_times()
    lp = tracer.durations("redundancy.solve_max", scale)
    counts = tracer.counts
    metrics = {
        "schofield.ext_calls": per_pass(counts["schofield.ext_calls"]),
        "quiver.euler_form_calls": per_pass(counts["quiver.euler_form_calls"]),
        "schofield.disc_s": per_pass(sum(tracer.durations("schofield.disc", scale))),
        "schofield.witness_s": per_pass(sum(tracer.durations("schofield.disc_witness", scale))),
        "cones.ineq_rows": per_pass(counts["cones.ineq_rows"]),
        "cones.accept_frac": tally.accepted / tally.attempted,
        "redundancy.reduce_s": per_pass(sum(tracer.durations("redundancy.irredundant_core", scale))),
        "redundancy.lp_calls": per_pass(len(lp)),
        "redundancy.lp_p50_ms": 1e3 * statistics.median(lp) if lp else 0.0,
        "redundancy.rows_in": per_pass(counts["redundancy.rows_in"]),
        "redundancy.rows_out": per_pass(counts["redundancy.rows_out"]),
        "redundancy.keep_frac": (counts["redundancy.rows_out"] / counts["redundancy.rows_in"]
                                 if counts["redundancy.rows_in"] else 0.0),
        "trace.solve_s": traced_solve,
        "trace.overhead_s": traced_solve - untraced_solve,
        "trace.overhead_frac": (traced_solve - untraced_solve) / untraced_solve,
    }
    for method in ("dw", "inductive", "antiinv"):
        spans = tracer.durations(f"cones.member_{method}", scale)
        metrics[f"cones.member_{method}_s"] = per_pass(sum(spans))
    for layer in ("cli", "quiverfile", "schofield", "cones", "redundancy"):
        metrics[f"{layer}.self_s"] = per_pass(selfs[layer] * factor)
        metrics[f"{layer}.self_frac"] = selfs[layer] / total
    return metrics


def run_workload(args):
    try:
        qc, goldens = load_program()
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    work = workloads.make(args.workload, goldens, smoke=args.smoke)
    # the probe must time the CPU the work runs on
    os.sched_setaffinity(0, {current_cpu()})
    with speed.Probe() as probe:
        ctx, path, setup_s, parse_s = set_up(work, qc, goldens, probe,
                                             2 if args.smoke else SETUP_REPS)
        try:
            work.reference(ctx)
            tally = Tally(work, ctx)
            pass_times, query_times = timed_phase(work, ctx, args.seed, tally, probe,
                                                  seconds=args.seconds)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            attempted, failed = tally.attempted, tally.failed
            solve_s = statistics.median(pass_times)
            if args.trace:
                tracer, traced = tracing.Tracer(), Tally(work, ctx)
                with tracing.installed(tracer, qc):
                    traced_times, _ = timed_phase(work, ctx, args.seed, traced, probe,
                                                  passes=len(pass_times), tracer=tracer)
                attempted, failed = attempted + traced.attempted, failed + traced.failed
                metrics = layer_metrics(tracer, probe, len(pass_times), traced,
                                        statistics.median(traced_times), solve_s)
                mirrored, tried, wrong = mirror(work, ctx, probe)
                metrics.update(mirrored)
                metrics["quiverfile.parse_s"] = parse_s
                attempted, failed = attempted + tried, failed + wrong
                units = PER_LAYER
                trace_path = WORK / f"trace-{work.name}-seed{args.seed}.json"
                trace_path.write_text(json.dumps({"env": environment(args),
                                                  "spans": tracer.spans,
                                                  "probe_units": probe.units}))
            else:
                metrics = {
                    "setup_s": setup_s, "solve_s": solve_s, "peak_rss_mib": peak_rss_mib,
                    "query_p50_ms": 1e3 * percentile(query_times, 50),
                    "query_p99_ms": 1e3 * percentile(query_times, 99),
                }
                units = END_TO_END
        finally:
            path.unlink(missing_ok=True)
        speed_factor = probe.factor(probe.units[0][0], probe.units[-1][1])
    info = dict(environment(args), passes=len(pass_times), queries=len(query_times),
                error_rate=failed / attempted, probe_units=len(probe.units),
                speed_factor=speed_factor)
    print(json.dumps({"env": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in its own fresh process; one table of every metric."""
    status = 0
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}\tno result (exit {done.returncode})")
            status = 2
            continue
        env, result = json.loads(lines[-2])["env"], json.loads(lines[-1])
        status = max(status, done.returncode)
        print(f"# {name}: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
              f"commit {env['commit']}, seed {env['seed']}, passes {env['passes']}, "
              f"queries {env['queries']}")
        print(f"{name}\terror_rate\t{env['error_rate']:.6g}\tratio")
        for metric, cell in result["metrics"].items():
            print(f"{name}\t{metric}\t{cell['value']:.6g}\t{cell['unit']}")
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=workloads.NAMES)
    target.add_argument("--all", action="store_true", help="run every workload in its own process")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, same checks and metric names")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters recorded from outside the program.

The benchmark never edits `src/`: it swaps public functions of quiver_cones
for wrappers while a traced phase runs and puts the originals back after.
A span is (name, start, end, parent index); spans stay in memory until the
run writes them out.  The hot per-point calls (`ExtTable.ext`, the checked
`euler_form`) only bump counters, because a span per call would cost more
than the call.
"""

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result
        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def durations(self, name, scale=None):
        """Duration of each span called name; scale(start, end) converts them."""
        return [scale(start, end) if scale else end - start
                for n, start, end, _ in self.spans if n == name]

    def self_times(self):
        """Self time per layer: span duration minus what its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            layers[name.split(".", 1)[0]] += end - start - covered
        return layers


def _count_rows(counts, args, system):
    counts["cones.ineq_rows"] += len(system.normals)


def _count_reduction(counts, args, core):
    counts["redundancy.rows_in"] += len(args[0].normals)
    counts["redundancy.rows_out"] += len(core.normals)


@contextmanager
def installed(tracer, qc):
    """Route the layer boundaries of the quiver_cones package `qc` through tracer."""
    cli, cones, redundancy, schofield = qc.cli, qc.cones, qc.redundancy, qc.schofield
    table = schofield.ExtTable
    spans = [
        (cli, "parse_quiver_file", "quiverfile.parse_quiver_file", None),
        (cli, "counts", "cones.counts", None),
        (cli, "inequalities", "cones.inequalities", _count_rows),
        (cli, "irredundant_core", "redundancy.irredundant_core", _count_reduction),
        (cones, "inequalities", "cones.inequalities", _count_rows),
        (cones, "enumerate_I0", "cones.enumerate_I0", None),
        (cones, "member_dw", "cones.member_dw", None),
        (cones, "member_inductive", "cones.member_inductive", None),
        (cones, "member_antiinv", "cones.member_antiinv", None),
        (table, "generic_subdims", "schofield.generic_subdims", None),
        (table, "disc", "schofield.disc", None),
        (table, "disc_witness", "schofield.disc_witness", None),
        (redundancy, "solve_max", "redundancy.solve_max", None),
    ]
    counters = [
        (table, "ext", "schofield.ext_calls"),
        (schofield, "euler_form", "quiver.euler_form_calls"),
    ]
    saved = []
    try:
        for owner, attr, name, on_result in spans:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], on_result))
        for owner, attr, name in counters:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.count(name, owner.__dict__[attr]))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

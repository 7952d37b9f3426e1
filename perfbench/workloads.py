"""The benchmark's workloads: fixed inputs, the calls of one pass, answer checks.

Each workload is a closed loop with a single caller: a pass issues its calls
one after another, each waiting for the previous answer.  Why each workload
exists is written down in README.md next to this file.

A query is (key, fn); fn() returns the answer that check() judges.  Command
queries run `quiver_cones.cli.main` in-process with stdout captured, exactly
as the `quiver-cones` entry point would, so each gets a cold `ExtTable`.
"""

import io
import random
from contextlib import nullcontext, redirect_stdout

EXAMPLE1_ALPHA = (2, 3, 4, 4, 3, 2)
EXAMPLE1_REPS = "x4,x5,x6"
# Sun(6,2) at (1,2)x6 in vertex order 0.1, 0.2, 1.1, ...: the counts line the
# initial release prints.  tests/goldens.py has no Sun(6,2) row.
SUN_WIDE_ROW = ((1, 2) * 6, 673, 377, 84, 128)
# Sun(6,1) at (2,...,2), the smoke stand-in, is a row of SUN61_TABLE.
SUN_SMOKE_ALPHA = (2, 2, 2, 2, 2, 2)


def alpha_literal(vertices, values):
    return ",".join(f"{v}={x}" for v, x in zip(vertices, values))


def cli_call(main, argv, tracer=None):
    """(exit code, stdout) of one in-process command-line call."""
    out = io.StringIO()
    with tracer.span("cli.main") if tracer else nullcontext(), redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class Context:
    """What set-up leaves for the timed phase: the program, the parsed quiver
    file and its path, and the golden tables."""

    def __init__(self, qc, goldens, path, quiver, involutions):
        self.qc, self.goldens, self.path = qc, goldens, path
        self.quiver, self.involutions = quiver, involutions
        self.table = None

    def involution(self, name):
        return next(inv for inv in self.involutions if inv.name == name)


class Workload:
    name = ""
    zoo = ()          # `quiver-cones zoo ...` arguments that print the quiver file
    mirror_rows = ()  # (alpha, involution names, n1, n2, n3s) for the traced mirror

    def prepare(self, ctx):
        """Extra set-up after the quiver file is parsed; timed as set-up."""

    def queries(self, ctx, seed, pass_no, tracer=None):
        raise NotImplementedError

    def reference(self, ctx):
        """Untimed extra data check() needs, computed once before the timed phase."""

    def check(self, ctx, key, answer):
        raise NotImplementedError


class Counts(Workload):
    """`counts` rows through the command line, one cold table per row."""

    def __init__(self, name, zoo, rows, involutions):
        self.name, self.zoo, self.involutions = name, zoo, involutions
        # rows: (alpha, n1, n2, n3 per involution)
        self.rows = rows
        self.mirror_rows = [(r[0], involutions, r[1], r[2], tuple(r[3:])) for r in rows]

    def queries(self, ctx, seed, pass_no, tracer=None):
        out = []
        for i, row in enumerate(self.rows):
            argv = ["counts", ctx.path, "--alpha", alpha_literal(ctx.quiver.vertices, row[0])]
            for name in self.involutions:
                argv += ["--involution", name]
            out.append((i, lambda argv=argv: cli_call(ctx.qc.cli.main, argv, tracer)))
        return out

    def check(self, ctx, key, answer):
        alpha, *numbers = self.rows[key]
        line = "\t".join([",".join(map(str, alpha))] + [str(n) for n in numbers]) + "\n"
        return answer == (0, line)


class Reduce(Workload):
    """`reduce` calls through the command line; each output must be a subset
    of the full system `inequalities` prints and have the initial release's
    row count."""

    name = "reduce"
    zoo = ("zoo", "d5hat")

    def __init__(self, calls, mirror_rows):
        # calls: (alpha, method, extra arguments, expected row count)
        self.calls = calls
        self.mirror_rows = mirror_rows
        self.full = {}

    def _args(self, ctx, call):
        alpha, method, extra, _ = call
        return [ctx.path, "--alpha", alpha_literal(ctx.quiver.vertices, alpha),
                "--method", method, *extra]

    def queries(self, ctx, seed, pass_no, tracer=None):
        return [(i, lambda argv=["reduce"] + self._args(ctx, call):
                 cli_call(ctx.qc.cli.main, argv, tracer))
                for i, call in enumerate(self.calls)]

    def reference(self, ctx):
        for i, call in enumerate(self.calls):
            code, out = cli_call(ctx.qc.cli.main, ["inequalities"] + self._args(ctx, call))
            self.full[i] = set(out.splitlines()) if code == 0 else None

    def check(self, ctx, key, answer):
        alpha, method, extra, expected_rows = self.calls[key]
        code, out = answer
        lines = out.splitlines()
        full = self.full.get(key)
        ok = code == 0 and full is not None and len(lines) == expected_rows
        ok = ok and set(lines) <= full
        if ok and method == "antiinv" and tuple(alpha) == EXAMPLE1_ALPHA:
            rows = {tuple(int(c) for c in line.split("\t")) for line in lines}
            ok = rows <= ctx.goldens["EXAMPLE1_ROWS"]
        return ok


class MemberWarm(Workload):
    """Seeded anti-symmetric weights on D5-hat at the Example 1 alpha, each put
    through the three membership tests on one warm table built in set-up.

    The 9 rows of EXAMPLE1_ROWS (each c meaning c . coords <= 0) are an
    independent oracle: every method's verdict must equal theirs."""

    name = "member-warm"
    zoo = ("zoo", "d5hat")
    methods = ("dw", "inductive", "antiinv")

    def __init__(self, weights_per_pass, coord_bound=3):
        self.weights_per_pass = weights_per_pass
        self.coord_bound = coord_bound

    def prepare(self, ctx):
        qc = ctx.qc
        self.alpha = qc.DimVector(ctx.quiver, EXAMPLE1_ALPHA)
        self.tau = ctx.involution("tau")
        self.basis = qc.antisym_basis(ctx.quiver, self.tau, EXAMPLE1_REPS.split(","))
        ctx.table = qc.ExtTable(ctx.quiver)
        zero = self.basis.from_coords((0, 0, 0))
        for method in self.methods:
            self._member(ctx, method, zero)

    def _member(self, ctx, method, weight):
        cones = ctx.qc.cones
        if method == "antiinv":
            return bool(cones.member_antiinv(ctx.table, weight, self.alpha, self.tau))
        member = cones.member_dw if method == "dw" else cones.member_inductive
        return bool(member(ctx.table, weight, self.alpha))

    def queries(self, ctx, seed, pass_no, tracer=None):
        rng = random.Random(f"member-warm:{seed}:{pass_no}")
        b = self.coord_bound
        out = []
        for _ in range(self.weights_per_pass):
            coords = tuple(rng.randint(-b, b) for _ in range(3))
            weight = self.basis.from_coords(coords)
            for method in self.methods:
                out.append(((method, coords),
                            lambda m=method, w=weight: self._member(ctx, m, w)))
        return out

    def check(self, ctx, key, answer):
        _, coords = key
        expected = all(sum(c * x for c, x in zip(row, coords)) <= 0
                       for row in ctx.goldens["EXAMPLE1_ROWS"])
        return answer is expected


def make(name, goldens, smoke=False):
    """The workload called name; smoke picks tiny inputs with the same checks."""
    d5 = {row[0]: row for row in goldens["D5HAT_TABLE"]}
    if name == "d5hat-counts":
        rows = goldens["D5HAT_TABLE"]
        if smoke:
            rows = [r for r in rows if max(r[0]) <= 2 and sum(r[0]) <= 6]
        return Counts(name, ("zoo", "d5hat"), rows, ("tau",))
    if name == "sun-wide":
        if smoke:
            row = next(r for r in goldens["SUN61_TABLE"] if r[0] == SUN_SMOKE_ALPHA)
            return Counts(name, ("zoo", "sun", "--k", "3", "--n", "1"), [row], ("tau", "rho"))
        return Counts(name, ("zoo", "sun", "--k", "3", "--n", "2"), [SUN_WIDE_ROW], ("tau", "rho"))
    if name == "reduce":
        antiinv = ("--involution", "tau", "--representatives", EXAMPLE1_REPS, "--coords")
        small = (1, 1, 1, 1, 1, 1) if smoke else (1, 2, 3, 3, 2, 1)
        calls = [
            (EXAMPLE1_ALPHA, "antiinv", antiinv, 4),
            (small, "inductive", (), 5) if smoke else (EXAMPLE1_ALPHA, "inductive", (), 7),
            (small, "dw", (), 5 if smoke else 8),
        ]
        mirror = [(a, ("tau",), *d5[a][1:3], d5[a][3:]) for a in dict.fromkeys(c[0] for c in calls)]
        return Reduce(calls, mirror)
    if name == "member-warm":
        work = MemberWarm(weights_per_pass=20 if smoke else 100)
        work.mirror_rows = [(EXAMPLE1_ALPHA, ("tau",), *d5[EXAMPLE1_ALPHA][1:3],
                             d5[EXAMPLE1_ALPHA][3:])]
        return work
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("d5hat-counts", "sun-wide", "reduce", "member-warm")

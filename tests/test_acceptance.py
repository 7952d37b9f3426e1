"""Acceptance suite: one pass/fail line per criterion, all tolerances exact.

The golden count tables (criteria 1 and 2) and the Example 1 inequality
system (criterion 3) are produced through the command-line entry point, not
through library calls, so the full quiver-file -> parse -> compute -> print
pipeline is what gets certified.
"""

import io
import time
from contextlib import redirect_stdout

import pytest

from quiver_cones import (
    DimVector,
    ExtTable,
    antisym_basis,
    counts,
    euler_col,
    euler_form,
    inequalities,
    is_redundant,
    make_kronecker,
    make_line,
    member_antiinv,
    member_dw,
    member_inductive,
    tau_dim,
)
from quiver_cones.cli import main

from goldens import D5HAT_TABLE, EXAMPLE1_ROWS, SUN61_TABLE
from oracle import all_pairs_up_to_mass, generic_hom_ext

ROW_BUDGET = 60.0
TABLE_BUDGET = 300.0


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {label}: {detail}")
    assert ok, f"criterion {label}: {detail}"


def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _cli_quiver_file(tmp_path, name, zoo_argv):
    code, text = _cli(zoo_argv)
    assert code == 0
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _alpha_literal(vertices, values):
    return ",".join(f"{v}={x}" for v, x in zip(vertices, values))


def _run_golden_table(path, vertices, rows, involutions):
    """Each row through `counts` on the CLI; returns (mismatches, slowest row, total)."""
    bad, slowest, total = [], 0.0, 0.0
    for row in rows:
        alpha, expected = row[0], row[1:]
        argv = ["counts", path, "--alpha", _alpha_literal(vertices, alpha)]
        for name, want in zip(involutions, expected[2:]):
            if want is not None:
                argv += ["--involution", name]
        start = time.perf_counter()
        code, out = _cli(argv)
        elapsed = time.perf_counter() - start
        slowest, total = max(slowest, elapsed), total + elapsed
        cells = out.strip().split("\t")
        got = tuple(int(c) for c in cells[1:])
        want = tuple(v for v in expected if v is not None)
        if code != 0 or got != want:
            bad.append((alpha, got, want))
    return bad, slowest, total


def test_criterion_1_d5hat_golden_table(tmp_path, capsys):
    path = _cli_quiver_file(tmp_path, "d5hat.quiver", ["zoo", "d5hat"])
    vertices = ["x1", "x2", "x3", "x4", "x5", "x6"]
    bad, slowest, total = _run_golden_table(path, vertices, D5HAT_TABLE, ["tau"])
    ok = not bad and slowest < ROW_BUDGET and total < TABLE_BUDGET
    _report(
        capsys, "1", ok,
        f"D5-hat golden table via CLI, 10/10 rows exact "
        f"(mismatches={bad}, slowest row {slowest:.1f}s, table {total:.1f}s)",
    )


def test_criterion_2_sun_golden_table(tmp_path, capsys):
    path = _cli_quiver_file(tmp_path, "sun.quiver", ["zoo", "sun", "--k", "3", "--n", "1"])
    vertices = [f"{i}.1" for i in range(6)]
    bad, slowest, total = _run_golden_table(path, vertices, SUN61_TABLE, ["tau", "rho"])
    ok = not bad and slowest < ROW_BUDGET and total < TABLE_BUDGET
    _report(
        capsys, "2", ok,
        f"(6,1)-Sun golden table via CLI incl. tau/rho split, 10/10 rows exact "
        f"(mismatches={bad}, slowest row {slowest:.1f}s, table {total:.1f}s)",
    )


def test_criterion_3_example1_inequalities(tmp_path, capsys):
    path = _cli_quiver_file(tmp_path, "d5hat.quiver", ["zoo", "d5hat"])
    code, out = _cli([
        "inequalities", path,
        "--alpha", "x1=2,x2=3,x3=4,x4=4,x5=3,x6=2",
        "--method", "antiinv", "--representatives", "x4,x5,x6", "--coords",
    ])
    rows = {tuple(int(c) for c in line.split("\t")) for line in out.splitlines()}
    ok = code == 0 and rows == EXAMPLE1_ROWS
    _report(
        capsys, "3", ok,
        f"Example 1 reduced system via CLI equals the 9 reference rows (got {sorted(rows)})",
    )


def test_criterion_4_redundancy(d5hat, d5hat_table, capsys):
    q, inv = d5hat
    system = inequalities(
        d5hat_table, DimVector(q, (2, 3, 4, 4, 3, 2)), "antiinv", inv=inv,
        representatives=("x4", "x5", "x6"),
    )
    rows = system.restricted_rows()
    ok = (
        is_redundant(system, rows.index((0, 3, 2)))
        and not is_redundant(system, rows.index((0, 1, 0)))
        and not is_redundant(system, rows.index((0, 0, 1)))
    )
    _report(
        capsys, "4", ok,
        "3 sigma(x5) + 2 sigma(x6) <= 0 is flagged redundant against the others; "
        "the two generating rows are not",
    )


def test_criterion_5_oracle_equivalence(capsys):
    cases = [make_line(2)[0], make_line(3)[0], make_kronecker(2)[0]]
    bad = []
    for q in cases:
        t = ExtTable(q)
        for a, b in all_pairs_up_to_mass(len(q.vertices), 4):
            hom, ext = generic_hom_ext(q, a, b)
            if (t.hom(a, b), t.ext(a, b)) != (hom, ext):
                bad.append((q.name, a, b))
    _report(
        capsys, "5", not bad,
        f"recursion matches the random-matrix rank oracle on A2, A3, Theta2 "
        f"for all pairs of mass <= 4 (mismatches={bad})",
    )


def test_criterion_6_property_suite(d5hat, sun31, d5hat_table, sun31_table, capsys):
    import random

    start = time.perf_counter()
    rng = random.Random(1009)
    failures = []

    def rd(q, hi=3):
        return DimVector(q, [rng.randint(0, hi) for _ in q.vertices])

    # (a) hom - ext = Euler form, 500 pairs per zoo quiver
    zoo_tables = [
        ExtTable(make_line(3)[0]), ExtTable(make_kronecker(2)[0]),
        d5hat_table, sun31_table,
    ]
    for t in zoo_tables:
        q = t.quiver
        if any(
            t.hom(a, b) - t.ext(a, b) != euler_form(q, a, b)
            for a, b in ((rd(q), rd(q)) for _ in range(500))
        ):
            failures.append(f"(a) on {q.name}")

    # (b) Schofield's equation: ext(a,b) = disc(a, -<., b>), 200 pairs
    q = d5hat_table.quiver
    for _ in range(200):
        a, b = rd(q), rd(q)
        if d5hat_table.ext(a, b) != d5hat_table.disc(a, -euler_col(q, b)):
            failures.append(f"(b) at {a.values},{b.values}")

    # (c) ext and subdim duality under each involution, 200 samples each
    for t, invs in ((d5hat_table, [d5hat[1]]), (sun31_table, sun31[1])):
        q = t.quiver
        for inv in invs:
            for _ in range(200):
                a = rd(q)
                b = DimVector(q, [rng.randint(0, x) for x in a.values])
                if t.ext(a, b) != t.ext(tau_dim(inv, b), tau_dim(inv, a)):
                    failures.append(f"(c) ext {inv.name} on {q.name}")
                if t.is_generic_subdim(b, a) != t.is_generic_subdim(
                    tau_dim(inv, a - b), tau_dim(inv, a)
                ):
                    failures.append(f"(c) subdim {inv.name} on {q.name}")

    # (d) the three membership tests agree on 1000 anti-symmetric weights;
    # (e) membership invariant under sigma -> k sigma for k in {2, 3}
    cfgs = [
        (d5hat_table, d5hat[1], (2, 3, 4, 4, 3, 2)),
        (sun31_table, sun31[1][0], (2, 2, 2, 2, 2, 2)),
    ]
    for t, inv, alpha in cfgs:
        q = t.quiver
        a = DimVector(q, alpha)
        basis = antisym_basis(q, inv)
        k = len(basis.swapped)
        for i in range(1000):
            s = basis.from_coords([rng.randint(-6, 6) for _ in range(k)])
            verdicts = {
                bool(member_dw(t, s, a)),
                bool(member_inductive(t, s, a)),
                bool(member_antiinv(t, s, a, inv)),
            }
            if len(verdicts) != 1:
                failures.append(f"(d) on {q.name} at {s.values}")
                continue
            if i % 20 == 0 and any(
                bool(member_dw(t, s.scaled(m), a)) != (True in verdicts)
                for m in (2, 3)
            ):
                failures.append(f"(e) on {q.name} at {s.values}")

    # (f) n2 <= n1 on every golden row
    for t, rows in ((d5hat_table, D5HAT_TABLE), (sun31_table, SUN61_TABLE)):
        for row in rows:
            n1, n2, _ = counts(t, DimVector(t.quiver, row[0]))
            if n2 > n1:
                failures.append(f"(f) at {row[0]}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(
        capsys, "6", ok,
        f"property suite (a)-(f) all exact in {elapsed:.1f}s "
        f"(budget 60s, failures={failures})",
    )


def test_criterion_7_sharp_form_substitute(d5hat_table, capsys):
    # The sharp circ-value theorems are out of scope; their nonvanishing
    # relaxation (circ != 0 iff generic hom = ext = 0) is checked directly
    # here, and its consequences are certified by criteria 1-3 and 6(d).
    import random

    rng = random.Random(1013)
    q = d5hat_table.quiver
    ok = True
    for _ in range(300):
        a = DimVector(q, [rng.randint(0, 3) for _ in q.vertices])
        b = DimVector(q, [rng.randint(0, 3) for _ in q.vertices])
        expected = d5hat_table.hom(a, b) == 0 and d5hat_table.ext(a, b) == 0
        if d5hat_table.circ_nonzero(a, b) != expected:
            ok = False
            break
    _report(
        capsys, "7", ok,
        "sharp circ values substituted by the nonvanishing relaxation "
        "(circ != 0 iff hom = ext = 0, 300 samples), with the reduced-system "
        "consequences covered by criteria 1-3 and 6(d)",
    )

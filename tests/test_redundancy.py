import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import quiver_cones.redundancy as redundancy
from quiver_cones import (
    DimVector,
    ExtTable,
    antisym_basis,
    inequalities,
    irredundant_core,
    is_redundant,
    make_d5hat,
    make_kronecker,
    make_line,
    make_sun,
    redundant_row,
    solve_max,
)
from quiver_cones.cones import InequalitySystem, primitive_row
from quiver_cones.errors import DimensionTooLargeError, LPInvariantError

import reference_lp
from goldens import D5HAT_TABLE, SUN61_TABLE
from oracle import random_involution_quiver

ALPHA_BIG = (2, 3, 4, 4, 3, 2)


def _example1_system(d5hat, d5hat_table):
    q, inv = d5hat
    return inequalities(
        d5hat_table, DimVector(q, ALPHA_BIG), "antiinv", inv=inv, representatives=("x4", "x5", "x6")
    )


def test_solve_max_simple():
    assert solve_max([1, 1], [[1, 0], [0, 1]], [2, 3]) == 5


def test_solve_max_fractional_optimum():
    assert solve_max([1], [[3]], [1]) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [0.5, "1/2", Decimal("0.1"), np.float64(0.5), 1j, None,
                                 Fraction(1, 2), Fraction(2)],
                         ids=["float", "str", "decimal", "numpy-float", "complex", "none",
                              "fraction", "whole-fraction"])
@pytest.mark.parametrize("where", ["objective", "row", "rhs"])
def test_solve_max_accepts_only_integers(bad, where):
    # LP data is integer like a vector entry: a Fraction, even a whole one, is refused
    objective, rows, rhs = [1], [[1]], [3]
    if where == "objective":
        objective = [bad]
    elif where == "row":
        rows = [[bad]]
    else:
        rhs = [bad]
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        solve_max(objective, rows, rhs)


def test_solve_max_takes_numpy_integers():
    objective, rows, rhs = [3, 2], [[2, 1], [1, 3]], [4, 5]
    as_numpy = (np.array(objective, dtype=np.int64), list(np.array(rows, dtype=np.int64)),
                list(np.array(rhs, dtype=np.int64)))
    assert solve_max(*as_numpy) == solve_max(objective, rows, rhs) == Fraction(33, 5)


def test_solve_max_builds_one_fraction_on_integer_data(monkeypatch):
    built = []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    lp = ([3, 2, 4], [[1, 1, 2], [2, 0, 3], [2, 1, 3]], [4, 5, 7])
    expected = reference_lp.solve_max(*lp)
    monkeypatch.setattr(redundancy, "Fraction", counting_fraction)
    assert solve_max(*lp) == expected
    assert len(built) == 1, built


def test_solve_max_rejects_negative_rhs():
    with pytest.raises(LPInvariantError):
        solve_max([1], [[1]], [-1])


def test_solve_max_variables_are_nonnegative():
    # max -x over x <= 1 is unbounded for free x; with x >= 0 it is 0
    assert solve_max([-1], [[1]], [1]) == 0
    with pytest.raises(LPInvariantError):
        solve_max([1], [[-1]], [1])


@pytest.mark.parametrize("objective, rows, rhs", [
    ([1, 1], [[1]], [1]),  # x2 has no entry: the LP would be unbounded
    ([1], [[1, 5]], [1]),  # a column with no variable
    ([1], [[1]], [1, 2]),  # a rhs with no row
    ([1], [[1], [1]], [1]),  # a row with no rhs
], ids=["short-row", "long-row", "extra-rhs", "missing-rhs"])
def test_solve_max_rejects_ragged_data(objective, rows, rhs):
    with pytest.raises(LPInvariantError):
        solve_max(objective, rows, rhs)


def _outcome(solve, lp):
    try:
        return solve(*lp)
    except LPInvariantError as exc:
        return str(exc)


def _random_lp(rng, kind):
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    # up to 10^9: the pivots' products run through multi-word ints
    bound = 10**9 if kind == "large" else 4

    def entry():
        return rng.randint(-bound, bound)

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    objective = [entry() for _ in range(n)]
    rhs = [abs(entry()) for _ in range(m)]
    if kind == "degenerate":
        # equal ratios in many rows: Bland's tie-break on the basis index decides
        rhs = [rng.choice((0, 0, 2)) for _ in range(m)]
        rows = [[rng.randint(0, 2) * 2 for _ in range(n)] if rng.random() < 0.5 else r for r in rows]
    elif kind == "zero-objective":
        objective = [0] * n
    elif kind == "unbounded":
        j = rng.randrange(n)
        objective[j] = rng.randint(1, 4)
        for r in rows:
            r[j] = -abs(r[j])
    return objective, rows, rhs


@pytest.mark.parametrize("kind", ["integer", "large", "degenerate", "zero-objective", "unbounded"])
def test_solve_max_matches_fraction_reference(kind, monkeypatch):
    # both solvers pick the entering variable by one next() per pivot;
    # recording its answers compares the Bland pivot sequences too
    entered = []

    def recording_next(iterator, default):
        entered.append(next(iterator, default))
        return entered[-1]

    for module in (redundancy, reference_lp):
        monkeypatch.setattr(module, "next", recording_next, raising=False)

    def run(solve, lp):
        entered.clear()
        return _outcome(solve, lp), list(entered)

    rng = random.Random(f"lp-{kind}")
    outcomes = []
    for _ in range(300):
        lp = _random_lp(rng, kind)
        (got, got_path), (want, want_path) = run(solve_max, lp), run(reference_lp.solve_max, lp)
        assert got == want and type(got) is type(want), (lp, got, want)
        assert got_path == want_path, lp
        outcomes.append(want)
    optima = [x for x in outcomes if isinstance(x, Fraction)]
    if kind == "unbounded":
        assert outcomes == ["unbounded LP"] * len(outcomes)
    elif kind == "zero-objective":
        assert optima == [0] * len(outcomes)
    else:
        assert "unbounded LP" in outcomes and len(set(optima)) > 10
    if kind == "large":
        assert any(x.denominator > 2**64 for x in optima)


def _record_decisions(monkeypatch):
    """Record every decision of a `_Farkas` tableau, with its certificate read off the final
    tableau: (rows, blocked row indices, target, whether it is in the cone, certificate)."""
    decisions, contains = [], redundancy._Farkas.contains

    def recording(lp, c):
        inside = contains(lp, c)
        blocked = {j - 2 * lp.d for j in lp.blocked}
        decisions.append((list(lp.rows), blocked, c, inside,
                          lp.multipliers() if inside else lp.witness()))
        return inside

    monkeypatch.setattr(redundancy._Farkas, "contains", recording)
    return decisions


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def _certified(rows, blocked, c, inside, certificate):
    """Whether the certificate proves the decision, by exact integer dot products and no LP:
    (D, m) with D > 0, m >= 0, m zero on the blocked rows and sum_j m_j rows[j] = D.c when c
    is in the cone; else y with c.y > 0 and r.y <= 0 for every unblocked row r."""
    if inside:
        D, m = certificate
        combination = [sum(x * r[k] for x, r in zip(m, rows)) for k in range(len(c))]
        return (D > 0 and len(m) == len(rows) and min(m, default=0) >= 0
                and not any(m[j] for j in blocked) and combination == [D * x for x in c])
    return _dot(c, certificate) > 0 and all(_dot(r, certificate) <= 0
                                            for j, r in enumerate(rows) if j not in blocked)


def test_reduce_lps_match_fraction_reference(d5hat, d5hat_table, monkeypatch):
    decisions = _record_decisions(monkeypatch)
    q, _ = d5hat
    for method in ("dw", "inductive"):
        irredundant_core(inequalities(d5hat_table, DimVector(q, (1, 2, 3, 3, 2, 1)), method))
    irredundant_core(_example1_system(d5hat, d5hat_table))
    assert len(decisions) > 50
    # reduce hands the LP layer plain ints only
    entries = [x for rows, _, c, _, _ in decisions for part in (c, *rows) for x in part]
    assert {type(x) for x in entries} == {int}
    for rows, blocked, c, inside, _ in decisions:
        cone = [r for j, r in enumerate(rows) if j not in blocked]
        assert inside == reference_lp.redundant_row([*cone, c], len(cone), reference_lp.solve_max)


@pytest.mark.parametrize("rows", [[(1,), (1, 0)], [(1, 0), (1,)]], ids=["short-target", "long-target"])
def test_redundant_row_rejects_rows_of_different_lengths(rows):
    with pytest.raises(LPInvariantError):
        redundant_row(rows, 0)


@pytest.mark.parametrize("index", [-1, 2], ids=["minus-one", "len"])
def test_redundant_row_rejects_an_index_out_of_range(d5hat, d5hat_table, index):
    # with -1 no row was left out, so the last row was tested against itself
    with pytest.raises(ValueError, match="outside"):
        redundant_row([(1, 0), (0, 1)], index)
    q, _ = d5hat
    system = inequalities(d5hat_table, DimVector(q, (1, 2, 3, 3, 2, 1)), "dw")
    with pytest.raises(ValueError, match="outside"):
        is_redundant(system, index if index < 0 else len(system.normals))


def _primal_redundant(rows, index):
    """Reference test: max c.x over the other rows and c.x <= 1 is <= 0,
    with x free written as u - v, u, v >= 0."""
    def split(r):
        return list(r) + [-x for x in r]

    target = rows[index]
    other = [r for i, r in enumerate(rows) if i != index]
    return solve_max(split(target), [split(r) for r in other + [target]],
                     [0] * len(other) + [1]) <= 0


def _random_rows(rng, d):
    rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 6))]
    base = rng.choice(rows)
    rows += [
        (0,) * d,
        tuple(rng.randint(1, 3) * x for x in base),  # parallel
        tuple(-x for x in rng.choice(rows)),  # negated
        rng.choice(rows),  # duplicate
    ]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("d", range(6))
def test_farkas_matches_primal_reference(d):
    import random

    rng = random.Random(100 + d)
    for _ in range(60):
        rows = _random_rows(rng, d)
        for i in range(len(rows)):
            assert redundant_row(rows, i) == _primal_redundant(rows, i), (rows, i)


def test_duplicate_row_is_redundant():
    rows = [(1, 0), (1, 0), (0, 1)]
    assert redundant_row(rows, 0)
    assert redundant_row(rows, 1)
    assert not redundant_row(rows, 2)


def test_single_row_not_redundant():
    assert not redundant_row([(1, -1)], 0)


def test_scaled_row_is_redundant():
    assert redundant_row([(2, 4), (1, 2)], 0)


def test_sum_of_rows_is_redundant():
    rows = [(1, 0), (0, 1), (1, 1)]
    assert redundant_row(rows, 2)
    assert not redundant_row(rows, 0)
    assert not redundant_row(rows, 1)


def test_example1_redundant_inequality(d5hat, d5hat_table):
    # 3 sigma(x5) + 2 sigma(x6) <= 0 follows from the other eight
    system = _example1_system(d5hat, d5hat_table)
    rows = system.restricted_rows()
    idx = rows.index((0, 3, 2))
    assert is_redundant(system, idx)
    idx2 = rows.index((1, 1, 0))
    assert not is_redundant(system, idx2)


def test_example1_core(d5hat, d5hat_table):
    system = _example1_system(d5hat, d5hat_table)
    core = irredundant_core(system)
    rows = {r for r in core.restricted_rows() if any(r)}
    assert rows == {(0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)}


def test_raw_alpha_is_bound_before_reduction(d5hat_table):
    # the system keeps a DimVector, so the reduction can read alpha off it
    system = inequalities(d5hat_table, (1, 2, 3, 3, 2, 1), "dw")
    assert isinstance(system.alpha, DimVector)
    assert system.normals[0].values == (0,) * 6 and is_redundant(system, 0)
    assert [b.values for b in irredundant_core(system).normals] == [
        (0, 1, 1, 1, 1, 0), (0, 2, 2, 2, 2, 1), (0, 2, 2, 3, 2, 1), (0, 2, 3, 3, 2, 1),
        (1, 1, 2, 2, 1, 1), (1, 1, 2, 2, 2, 1), (1, 1, 2, 3, 2, 1), (1, 1, 3, 3, 2, 1)]


def test_core_idempotent(d5hat, d5hat_table):
    system = _example1_system(d5hat, d5hat_table)
    core = irredundant_core(system)
    again = irredundant_core(core)
    assert again.normals == core.normals


def _cone_member(rows, point):
    return all(
        sum(Fraction(c) * x for c, x in zip(row, point)) <= 0 for row in rows
    )


def test_core_cuts_same_cone(d5hat, d5hat_table):
    import random

    system = _example1_system(d5hat, d5hat_table)
    full = [r for r in system.restricted_rows() if any(r)]
    core = [r for r in irredundant_core(system).restricted_rows() if any(r)]
    rng = random.Random(31)
    for _ in range(1000):
        p = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(3))
        assert _cone_member(full, p) == _cone_member(core, p)


def test_core_order_robust(d5hat, d5hat_table):
    system = _example1_system(d5hat, d5hat_table)
    reversed_system = InequalitySystem(
        system.alpha, tuple(reversed(system.normals)), system.coordinate_space
    )
    a = {tuple(r) for r in irredundant_core(system).restricted_rows()}
    b = {
        tuple(r)
        for r in irredundant_core(reversed_system).restricted_rows()
    }
    assert a == b


def test_ambient_core_dw_a2(a2):
    from quiver_cones import ExtTable, inequalities as ineqs

    q, _ = a2
    t = ExtTable(q)
    system = ineqs(t, DimVector(q, (1, 1)), "dw")
    core = irredundant_core(system)
    # on the line sigma(x1) = -sigma(x2) one inequality suffices
    nontrivial = [b.values for b in core.normals if any(b.values)]
    assert len(nontrivial) == 1


def test_ambient_dimension_guard():
    from quiver_cones import ExtTable, make_sun, inequalities as ineqs

    q, _ = make_sun(5, 1)  # 10 vertices, ambient dimension 9 > guard
    t = ExtTable(q)
    system = ineqs(t, DimVector(q, (1,) * 10), "dw")
    with pytest.raises(DimensionTooLargeError):
        irredundant_core(system)


def test_a_normal_off_the_support_of_alpha_is_refused():
    # rows are read on supp(alpha) only; (0,1,1) would lose its entry at vertex 3 and
    # make (0,1,0) look redundant, though at sigma = (-1,1,-2) it is the only violated row
    q, _ = make_line(3)
    beta, other = DimVector(q, (0, 1, 0)), DimVector(q, (0, 1, 1))
    system = InequalitySystem(DimVector(q, (1, 1, 0)), (beta, other))
    for reduce in (irredundant_core, lambda s: is_redundant(s, 0)):
        with pytest.raises(ValueError, match="must be <= alpha"):
            reduce(system)


def _assert_core_is_the_greedy(system, seed):
    """irredundant_core keeps what the one-LP-per-row greedy keeps, with the system in
    canonical order, reversed and in one seeded shuffle.  The greedy's choice among
    parallel rows and rows of the lineality space depends on the order (reversing changes
    the kept normals at 33 of the 40 golden dw and inductive systems), so the reordered
    systems test that the greedy on the filtered rows makes the same choices."""
    shuffled = list(system.normals)
    random.Random(seed).shuffle(shuffled)
    for normals in (system.normals, system.normals[::-1], tuple(shuffled)):
        reordered = InequalitySystem(system.alpha, normals, system.coordinate_space)
        assert irredundant_core(reordered).normals == reference_lp.greedy_core(reordered), seed


def _core_with_plane(system):
    """The greedy core in ambient coordinates by the primal reference test,
    with sigma(alpha) = 0 kept as the two rows alpha and -alpha."""
    alpha = system.alpha.values
    plane = [alpha, tuple(-x for x in alpha)]
    rows = [b.values for b in system.normals]
    keep = list(range(len(rows)))
    i = 0
    while i < len(keep):
        if _primal_redundant([rows[j] for j in keep] + plane, i):
            del keep[i]
        else:
            i += 1
    return tuple(system.normals[j] for j in keep)


_QUIVERS = {"line3": make_line(3)[0], "kronecker": make_kronecker(2)[0], "d5hat": make_d5hat()[0],
            "sun62": make_sun(3, 2)[0]}
_PLANE_CASES = [
    ("line3", (0, 2, 1)),  # alpha_0 = 0: the eliminated vertex is not the first
    ("line3", (1, 2, 1)),
    ("kronecker", (2, 3)),
    ("d5hat", (0, 1, 2, 2, 1, 0)),
    ("d5hat", (1, 1, 2, 2, 1, 1)),
    ("d5hat", (0, 0, 0, 0, 0, 0)),
    ("sun62", (0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0)),  # 12 vertices, 3 in supp(alpha)
]


@pytest.mark.parametrize("method", ["dw", "inductive"])
@pytest.mark.parametrize("family, alpha", _PLANE_CASES,
                         ids=[f"{f}-{''.join(map(str, a))}" for f, a in _PLANE_CASES])
def test_core_in_alpha_perp_matches_core_with_plane(family, alpha, method):
    q = _QUIVERS[family]
    system = inequalities(ExtTable(q), DimVector(q, alpha), method)
    assert irredundant_core(system).normals == _core_with_plane(system)
    _assert_core_is_the_greedy(system, f"{family}-{alpha}-{method}")


def _implied(rows, by):
    """Whether every row is a nonnegative combination of the rows of by: one exact Farkas LP each."""
    return all(redundant_row([*by, row], len(by)) for row in rows)


def _golden_pairs(d5hat, d5hat_table, sun31, sun31_table):
    """(table, alpha, involutions with a golden n3 at alpha) for the 20 golden alpha."""
    (d5q, d5inv), (sq, sinvs) = d5hat, sun31
    for alpha, *_ in D5HAT_TABLE:
        yield d5hat_table, DimVector(d5q, alpha), [d5inv]
    for alpha, _, _, *n3s in SUN61_TABLE:
        yield sun31_table, DimVector(sq, alpha), [i for i, n3 in zip(sinvs, n3s) if n3 is not None]


def _assert_cones_equal(t, alpha, invs):
    """The three characterisations cut out one cone at alpha, by exact LPs instead of
    sampled weights: the inductive rows imply every dw row in alpha^perp, and on
    anti-symmetric weights the antiinv rows and the restricted dw rows imply each
    other.  The inductive normals are dw rows, so the converse is immediate."""
    dw, inductive = (redundancy._system_rows(inequalities(t, alpha, method))
                     for method in ("dw", "inductive"))
    assert _implied(dw, inductive), alpha
    for inv in invs:
        basis = antisym_basis(t.quiver, inv)
        antiinv = inequalities(t, alpha, "antiinv", inv=inv).restricted_rows()
        # the distinct primitive rows cut out the same cone as all of them
        restricted = sorted({primitive_row(basis.restrict_normal(b))
                             for b in t.generic_subdims(alpha)})
        assert _implied(restricted, antiinv) and _implied(antiinv, restricted), (alpha, inv.name)


def test_golden_cones_are_equal_exactly(d5hat, d5hat_table, sun31, sun31_table):
    pairs = 0
    for t, alpha, invs in _golden_pairs(d5hat, d5hat_table, sun31, sun31_table):
        _assert_cones_equal(t, alpha, invs)
        pairs += len(invs)
    assert pairs == 22


def _random_cases(seed):
    """(table, [alpha, alpha'], tau): 4 to 9 vertices on a line, tau their reversal; two
    nonzero tau-symmetric alpha with entries <= 4, so |supp alpha| <= 9 stays within the
    exact-LP guard."""
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    q, tau = random_involution_quiver(rng, n)
    alphas = []
    for _ in range(2):
        half = [0]
        while not any(half):
            half = [rng.randint(0, 4) for _ in range((n + 1) // 2)]
        alphas.append(DimVector(q, half + half[:n // 2][::-1]))
    return ExtTable(q), alphas, tau


@pytest.mark.parametrize("seed", range(12))
def test_cones_are_equal_on_random_quivers_with_an_involution(seed):
    t, alphas, tau = _random_cases(seed)
    for alpha in alphas:
        _assert_cones_equal(t, alpha, [tau])


_GOLDEN_ALPHAS = ([("d5hat", alpha) for alpha, *_ in D5HAT_TABLE]
                  + [("sun61", alpha) for alpha, *_ in SUN61_TABLE])


@pytest.mark.parametrize("family, alpha", _GOLDEN_ALPHAS,
                         ids=[f"{f}-{''.join(map(str, a))}" for f, a in _GOLDEN_ALPHAS])
def test_core_is_the_greedy_at_golden_alpha(family, alpha, d5hat, d5hat_table, sun31,
                                            sun31_table):
    table = d5hat_table if family == "d5hat" else sun31_table
    t, a, invs = next(case for case in _golden_pairs(d5hat, d5hat_table, sun31, sun31_table)
                      if case[0] is table and case[1].values == alpha)
    for method in ("dw", "inductive"):
        _assert_core_is_the_greedy(inequalities(t, a, method), f"{family}-{alpha}-{method}")
    for inv in invs:
        _assert_core_is_the_greedy(inequalities(t, a, "antiinv", inv=inv),
                                   f"{family}-{alpha}-antiinv-{inv.name}")


@pytest.mark.parametrize("seed", range(12))
def test_core_is_the_greedy_on_random_quivers_with_an_involution(seed):
    t, alphas, tau = _random_cases(seed)
    for alpha in alphas:
        for method in ("dw", "inductive"):
            _assert_core_is_the_greedy(inequalities(t, alpha, method), f"{seed}-{alpha}-{method}")
        _assert_core_is_the_greedy(inequalities(t, alpha, "antiinv", inv=tau),
                                   f"{seed}-{alpha}-antiinv")


def test_reduce_lps_are_output_sized(sun31, sun31_table, monkeypatch):
    # Sun(6,1) at (3,2,4,3,2,4): 924 dw rows, 10 survive the reverse filter, 6 the greedy.
    # One re-solve per row in the filter and one per survivor in the greedy, on one tableau
    # that never holds more row columns than survivors; the one-LP-per-row greedy had LPs
    # of up to 923 columns
    q, _ = sun31
    system = inequalities(sun31_table, DimVector(q, (3, 2, 4, 3, 2, 4)), "dw")
    decisions = _record_decisions(monkeypatch)
    built, init = [], redundancy._Farkas.__init__

    def counting(lp, *args):
        built.append(lp)
        init(lp, *args)

    monkeypatch.setattr(redundancy._Farkas, "__init__", counting)
    core = irredundant_core(system)
    assert (len(system.normals), len(core.normals)) == (924, 6)
    assert len(built) == 1
    assert [bool(blocked) for _, blocked, *_ in decisions] == [False] * 924 + [True] * 10
    assert max(len(rows) for rows, *_ in decisions) == 10


def _certificate_cases(d5hat, d5hat_table, sun31, sun31_table):
    """The dw, inductive and antiinv systems at every golden alpha and on the seeded random
    quivers with an involution."""
    for t, alpha, invs in _golden_pairs(d5hat, d5hat_table, sun31, sun31_table):
        yield from (inequalities(t, alpha, method) for method in ("dw", "inductive"))
        yield from (inequalities(t, alpha, "antiinv", inv=inv) for inv in invs)
    for seed in range(12):
        t, alphas, tau = _random_cases(seed)
        for alpha in alphas:
            yield from (inequalities(t, alpha, method) for method in ("dw", "inductive"))
            yield inequalities(t, alpha, "antiinv", inv=tau)


def test_every_decision_of_reduce_is_certified(d5hat, d5hat_table, sun31, sun31_table,
                                               monkeypatch):
    decisions = _record_decisions(monkeypatch)
    systems = 0
    for system in _certificate_cases(d5hat, d5hat_table, sun31, sun31_table):
        irredundant_core(system)
        systems += 1
    assert systems == 20 * 2 + 22 + 12 * 2 * 3
    assert all(_certified(*decision) for decision in decisions)
    inside = [decision for decision in decisions if decision[3]]
    # both kinds are exercised, by filter and greedy decisions alike
    assert {bool(d[1]) for d in inside} == {bool(d[1]) for d in decisions if not d[3]} == {
        False, True}
    assert any(any(d[4][1]) for d in inside)


def test_planted_wrong_certificates_are_refused(d5hat, d5hat_table, monkeypatch):
    decisions = _record_decisions(monkeypatch)
    q, _ = d5hat
    for method in ("dw", "inductive"):
        irredundant_core(inequalities(d5hat_table, DimVector(q, ALPHA_BIG), method))
    irredundant_core(_example1_system(d5hat, d5hat_table))
    refused = {True: 0, False: 0}
    for rows, blocked, c, inside, certificate in decisions:
        if inside:
            # one multiplier off by one, on an unblocked nonzero row
            D, m = certificate
            j = next((j for j, r in enumerate(rows) if any(r) and j not in blocked), None)
            if j is None:
                continue
            certificate = D, [x + (i == j) for i, x in enumerate(m)]
        else:
            # the witness read off the a- columns: z[a-_k] - D = -D.y_k
            certificate = [-x for x in certificate]
        assert not _certified(rows, blocked, c, inside, certificate)
        refused[inside] += 1
    assert refused[True] > 100 and refused[False] > 20, refused

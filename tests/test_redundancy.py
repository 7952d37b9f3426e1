from fractions import Fraction

import pytest

from quiver_cones import (
    DimVector,
    ExtTable,
    RationalLP,
    antisym_basis,
    inequalities,
    irredundant_core,
    is_redundant,
    make_d5hat,
    make_kronecker,
    make_line,
    redundant_row,
    solve_max,
)
from quiver_cones.errors import DimensionTooLargeError, LPInvariantError

ALPHA_BIG = (2, 3, 4, 4, 3, 2)


def _example1_system(d5hat, d5hat_table):
    q, inv = d5hat
    basis = antisym_basis(q, inv, representatives=("x4", "x5", "x6"))
    return inequalities(
        d5hat_table, DimVector(q, ALPHA_BIG), "antiinv", inv=inv, basis=basis
    )


def test_solve_max_simple():
    lp = RationalLP(objective=[1, 1], rows=[[1, 0], [0, 1]], rhs=[2, 3])
    assert solve_max(lp) == 5


def test_solve_max_fractional_optimum():
    lp = RationalLP(objective=[1], rows=[[3]], rhs=[1])
    assert solve_max(lp) == Fraction(1, 3)


def test_solve_max_rejects_floats():
    with pytest.raises(LPInvariantError):
        solve_max(RationalLP(objective=[0.5], rows=[[1]], rhs=[1]))


def test_solve_max_rejects_negative_rhs():
    with pytest.raises(LPInvariantError):
        solve_max(RationalLP(objective=[1], rows=[[1]], rhs=[-1]))


def test_solve_max_variables_are_nonnegative():
    # max -x over x <= 1 is unbounded for free x; with x >= 0 it is 0
    assert solve_max(RationalLP(objective=[-1], rows=[[1]], rhs=[1])) == 0
    with pytest.raises(LPInvariantError):
        solve_max(RationalLP(objective=[1], rows=[[-1]], rhs=[1]))


@pytest.mark.parametrize("objective, rows, rhs", [
    ([1, 1], [[1]], [1]),  # x2 has no entry: the LP would be unbounded
    ([1], [[1, 5]], [1]),  # a column with no variable
    ([1], [[1]], [1, 2]),  # a rhs with no row
    ([1], [[1], [1]], [1]),  # a row with no rhs
], ids=["short-row", "long-row", "extra-rhs", "missing-rhs"])
def test_solve_max_rejects_ragged_data(objective, rows, rhs):
    with pytest.raises(LPInvariantError):
        solve_max(RationalLP(objective=objective, rows=rows, rhs=rhs))


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
    lp = RationalLP(
        objective=split(target),
        rows=[split(r) for r in other + [target]],
        rhs=[0] * len(other) + [1],
    )
    return solve_max(lp) <= 0


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
    rows = system.restricted_rows(primitive=True)
    idx = rows.index((0, 3, 2))
    assert is_redundant(system, idx)
    idx2 = rows.index((1, 1, 0))
    assert not is_redundant(system, idx2)


def test_example1_core(d5hat, d5hat_table):
    system = _example1_system(d5hat, d5hat_table)
    core = irredundant_core(system)
    rows = {r for r in core.restricted_rows(primitive=True) if any(r)}
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
    from quiver_cones.cones import InequalitySystem

    system = _example1_system(d5hat, d5hat_table)
    reversed_system = InequalitySystem(
        system.alpha, tuple(reversed(system.normals)), system.coordinate_space
    )
    a = {tuple(r) for r in irredundant_core(system).restricted_rows(primitive=True)}
    b = {
        tuple(r)
        for r in irredundant_core(reversed_system).restricted_rows(primitive=True)
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


def _core_with_plane(system):
    """The greedy core in ambient coordinates by the primal reference test,
    with sigma(alpha) = 0 kept as the two rows alpha and -alpha."""
    alpha = system.alpha.values
    plane = [alpha, tuple(-x for x in alpha)]
    rows = system.ambient_rows()
    keep = list(range(len(rows)))
    i = 0
    while i < len(keep):
        if _primal_redundant([rows[j] for j in keep] + plane, i):
            del keep[i]
        else:
            i += 1
    return tuple(system.normals[j] for j in keep)


_QUIVERS = {"line3": make_line(3)[0], "kronecker": make_kronecker(2)[0], "d5hat": make_d5hat()[0]}
_PLANE_CASES = [
    ("line3", (0, 2, 1)),  # alpha_0 = 0: the eliminated vertex is not the first
    ("line3", (1, 2, 1)),
    ("kronecker", (2, 3)),
    ("d5hat", (0, 1, 2, 2, 1, 0)),
    ("d5hat", (1, 1, 2, 2, 1, 1)),
    ("d5hat", (0, 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("method", ["dw", "inductive"])
@pytest.mark.parametrize("family, alpha", _PLANE_CASES,
                         ids=[f"{f}-{''.join(map(str, a))}" for f, a in _PLANE_CASES])
def test_core_in_alpha_perp_matches_core_with_plane(family, alpha, method):
    q = _QUIVERS[family]
    system = inequalities(ExtTable(q), DimVector(q, alpha), method)
    assert irredundant_core(system).normals == _core_with_plane(system)

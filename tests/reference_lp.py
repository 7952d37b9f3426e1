"""Reference LPs: the dense Fraction tableau simplex that
`quiver_cones.redundancy.solve_max` replaced with integer-preserving pivots; the
Farkas test that `quiver_cones.redundancy` replaced with one warm-started
tableau; and the one-LP-per-row greedy that
`quiver_cones.redundancy.irredundant_core` replaced with a reverse filter and a
greedy on the rows that survive it.

`solve_max` has the same contract (max objective.x over rows.x <= rhs, x >= 0,
rhs >= 0; Bland's rule from the slack basis) and the same three integer
arguments, every entry read as a `fractions.Fraction`.  `redundant_row` builds
one cold LP per call, with no artificial columns, dual pivots or warm starts,
so it shares no code with the tableau it checks beyond the public `solve_max`,
which its own differential test pins pivot by pivot to the `Fraction` one.
All are kept only as the oracles of the differential tests in
tests/test_redundancy.py.
"""

from fractions import Fraction

from quiver_cones import redundancy
from quiver_cones.errors import LPInvariantError


def redundant_row(rows, index, solve=redundancy.solve_max):
    """Whether rows[index] is a nonnegative combination lam of the other rows, A.lam = c.

    Coordinate k is multiplied by the sign of c_k, so b = |c| >= 0 and sum(A.lam) <= sum(b)
    over A.lam <= b, lam >= 0, with equality iff A.lam = b: one LP solved by solve.
    """
    target = rows[index]
    other = [r for i, r in enumerate(rows) if i != index]
    signs = [-1 if x < 0 else 1 for x in target]
    objective = [sum(s * x for s, x in zip(signs, r)) for r in other]
    by_coordinate = [[s * r[k] for r in other] for k, s in enumerate(signs)]
    rhs = [abs(x) for x in target]
    return solve(objective, by_coordinate, rhs) == sum(rhs)


def greedy_core(system):
    """The normals that greedy removal in canonical order keeps: each row is tested
    against the kept rows and all later rows, one LP per row."""
    rows, keep = redundancy._system_rows(system), []
    for i in range(len(rows)):
        if not redundant_row([rows[j] for j in keep] + rows[i:], len(keep)):
            keep.append(i)
    return tuple(system.normals[j] for j in keep)


def solve_max(objective, rows, rhs):
    """Optimum of the LP; requires rhs >= 0 (the origin must be feasible)."""
    if len(rhs) != len(rows) or any(len(r) != len(objective) for r in rows):
        raise LPInvariantError("LP needs one rhs per row and one entry per variable in each row")
    c = [Fraction(x) for x in objective]
    A = [[Fraction(x) for x in r] for r in rows]
    b = [Fraction(x) for x in rhs]
    if any(x < 0 for x in b):
        raise LPInvariantError("origin-infeasible system; this solver assumes rhs >= 0")
    m, n = len(A), len(c)
    # tableau rows: [A | I | b]; objective row holds negated reduced costs
    T = [list(A[i]) + [Fraction(int(i == k)) for k in range(m)] + [b[i]] for i in range(m)]
    z = [-x for x in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if z[j] < 0), None)
        if enter is None:
            return z[-1]
        best, leave = None, None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise LPInvariantError("unbounded LP")
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        if z[enter]:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, T[leave])]
        basis[leave] = enter

"""Reference LP solver: the dense Fraction tableau simplex that
`quiver_cones.redundancy.solve_max` replaced with integer-preserving pivots.

Same contract (max c.x over A.x <= b, x >= 0, b >= 0; Bland's rule from the
slack basis), every entry a `fractions.Fraction`.  Kept only as the oracle of
the differential tests in tests/test_redundancy.py.
"""

from fractions import Fraction

from quiver_cones.errors import LPInvariantError


def _frac(x):
    if isinstance(x, float):
        raise LPInvariantError("floating-point value in exact LP data")
    return Fraction(x)


def solve_max(lp):
    """Optimum of the LP; requires rhs >= 0 (the origin must be feasible)."""
    if len(lp.rhs) != len(lp.rows) or any(len(r) != len(lp.objective) for r in lp.rows):
        raise LPInvariantError("LP needs one rhs per row and one entry per variable in each row")
    c = [_frac(x) for x in lp.objective]
    A = [[_frac(x) for x in r] for r in lp.rows]
    b = [_frac(x) for x in lp.rhs]
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

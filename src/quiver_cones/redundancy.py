"""Exact-rational redundancy elimination for cone inequality systems.

A row c.x <= 0 of a cone is redundant iff the other rows imply it, which by
Farkas' lemma holds iff c is a nonnegative combination of them: an LP with
one row per coordinate.  The cone lies in the hyperplane sigma(alpha) = 0
(Derksen-Weyman), so rows are taken in coordinates of alpha^perp.  Each LP is
solved by a dense tableau simplex over fractions.Fraction with Bland's rule,
so every pivot is exact and the method terminates.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionTooLargeError, LPInvariantError
from .cones import InequalitySystem

_MAX_AMBIENT_DIM = 8


@dataclass
class RationalLP:
    """max objective.x  s.t.  rows.x <= rhs, x >= 0."""

    objective: list
    rows: list
    rhs: list


def _frac(x):
    if isinstance(x, float):
        raise LPInvariantError("floating-point value in exact LP data")
    return Fraction(x)


def solve_max(lp):
    """Optimum of the LP; requires rhs >= 0 (the origin must be feasible).

    Tableau simplex with Bland's rule from the slack basis.
    """
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


def _system_rows(system):
    """Integer rows of the system in coordinates of alpha^perp.

    For ambient rows take the first k with alpha_k > 0: the entries sigma_j,
    j != k, parametrise alpha^perp (sigma_k follows from sigma(alpha) = 0),
    and row c becomes alpha_k * c(sigma) = (alpha_k c_j - c_k alpha_j)_{j != k},
    a positive multiple of the same functional, so every LP flags the same
    rows as redundant.  With alpha = 0 there is no hyperplane to remove.
    """
    if system.coordinate_space is not None:
        # sigma(alpha) = 0 is automatic for anti-symmetric sigma on symmetric alpha
        return system.restricted_rows()
    alpha = system.alpha.values
    if len(alpha) - 1 > _MAX_AMBIENT_DIM:
        raise DimensionTooLargeError(
            f"ambient dimension {len(alpha) - 1} exceeds the exact-LP guard ({_MAX_AMBIENT_DIM})"
        )
    rows = system.ambient_rows()
    k = next((j for j, a in enumerate(alpha) if a > 0), None)
    if k is None:
        return rows
    others = [j for j in range(len(alpha)) if j != k]
    return [tuple(alpha[k] * c[j] - c[k] * alpha[j] for j in others) for c in rows]


def redundant_row(rows, index):
    """Whether rows[index].x <= 0 is implied by the other rows.

    Farkas: iff c = A.lam for some lam >= 0, A having the other rows as
    columns.  Coordinate k is multiplied by the sign of c_k, so b = |c| >= 0
    and sum(A.lam) <= sum(b) over A.lam <= b, with equality iff A.lam = b.
    """
    if len({len(r) for r in rows}) > 1:
        raise LPInvariantError("rows of different lengths")
    if not 0 <= index < len(rows):
        raise ValueError(f"row index {index} is outside 0..{len(rows) - 1}")
    target = rows[index]
    other = [r for i, r in enumerate(rows) if i != index]
    signs = [-1 if x < 0 else 1 for x in target]
    lp = RationalLP(
        objective=[sum(s * x for s, x in zip(signs, r)) for r in other],
        rows=[[s * r[k] for r in other] for k, s in enumerate(signs)],
        rhs=[abs(x) for x in target],
    )
    return solve_max(lp) == sum(lp.rhs)


def is_redundant(system, index):
    """Whether the index-th inequality of the system is implied by the others."""
    return redundant_row(_system_rows(system), index)


def irredundant_core(system):
    """Greedy removal, in canonical order, of rows redundant against the survivors."""
    rows = _system_rows(system)
    keep = list(range(len(rows)))
    i = 0
    while i < len(keep):
        current = [rows[j] for j in keep]
        if redundant_row(current, i):
            del keep[i]
        else:
            i += 1
    return InequalitySystem(
        system.alpha,
        tuple(system.normals[j] for j in keep),
        coordinate_space=system.coordinate_space,
    )

"""Exact-rational redundancy elimination for cone inequality systems.

An inequality row c_i.x <= 0 of a cone is redundant iff maximizing c_i.x over
the remaining rows plus the normalization c_i.x <= 1 yields optimum <= 0.
The cone lies in the hyperplane sigma(alpha) = 0 (Derksen-Weyman), so the LPs
are solved in coordinates of alpha^perp and carry no equality rows.  Each LP
is solved by a dense tableau simplex over fractions.Fraction with Bland's
rule, so every pivot is exact and the method terminates.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionTooLargeError, LPInvariantError
from .cones import InequalitySystem

_MAX_AMBIENT_DIM = 8


@dataclass
class RationalLP:
    """max objective.x  s.t.  rows.x <= rhs, x free."""

    objective: list
    rows: list
    rhs: list


def _frac(x):
    if isinstance(x, float):
        raise LPInvariantError("floating-point value in exact LP data")
    return Fraction(x)


def solve_max(lp):
    """Optimum of the LP; requires rhs >= 0 (the origin must be feasible)."""
    c = [_frac(x) for x in lp.objective]
    rows = [[_frac(x) for x in r] for r in lp.rows]
    rhs = [_frac(x) for x in lp.rhs]
    if any(b < 0 for b in rhs):
        raise LPInvariantError("origin-infeasible system; this solver assumes rhs >= 0")
    # free x -> x = u - v with u, v >= 0
    A = [r + [-x for x in r] for r in rows]
    obj = c + [-x for x in c]
    return _bland_simplex(obj, A, rhs)


def _bland_simplex(c, A, b):
    """Tableau simplex, Bland's rule, slack starting basis; returns the optimum."""
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
            raise LPInvariantError("unbounded LP in redundancy test")
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
    """Whether rows[index].x <= 0 is implied by the other rows."""
    target = list(rows[index])
    other = [list(r) for i, r in enumerate(rows) if i != index]
    lp = RationalLP(objective=target, rows=other + [target], rhs=[0] * len(other) + [1])
    return solve_max(lp) <= 0


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

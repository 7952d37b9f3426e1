"""Exact-rational redundancy elimination for cone inequality systems.

A row c.x <= 0 of a cone is redundant iff the other rows imply it, which by
Farkas' lemma holds iff c is a nonnegative combination of them: an LP with
one row per coordinate.  The cone lies in the hyperplane sigma(alpha) = 0
(Derksen-Weyman), so rows are taken in coordinates of alpha^perp.  Each LP is
solved by a tableau simplex with Bland's rule and integer-preserving pivots
(Bareiss, as in Avis' lrs), so every division is exact and it terminates.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational

from .errors import DimensionTooLargeError, LPInvariantError
from .cones import InequalitySystem

_MAX_AMBIENT_DIM = 8


@dataclass
class RationalLP:
    """max objective.x  s.t.  rows.x <= rhs, x >= 0."""

    objective: list
    rows: list
    rhs: list


def _integer_row(values):
    """The values times the lcm of their denominators, as ints, and that lcm."""
    if all(type(x) is int for x in values):
        return list(values), 1
    if not all(isinstance(x, Rational) for x in values):
        raise LPInvariantError("exact LP data must be rational: int, Fraction or numpy integer")
    scale = lcm(*(int(x.denominator) for x in values))
    return [int(x.numerator) * (scale // int(x.denominator)) for x in values], scale


def solve_max(lp):
    """Optimum of the LP; requires rhs >= 0 (the origin must be feasible).

    Bland's rule from the slack basis, on integers: each row of [A | I | b]
    times the lcm of its denominators (not the slack), so D = 1.  A pivot on
    p = T[r][e] maps each other row x to (p.x - x[e].T[r]) // D, then D = p:
    entries are D times the rational tableau's; ratios are cross-multiplied.
    """
    if len(lp.rhs) != len(lp.rows) or any(len(r) != len(lp.objective) for r in lp.rows):
        raise LPInvariantError("LP needs one rhs per row and one entry per variable in each row")
    c, scale = _integer_row(lp.objective)
    T = [_integer_row([*row, rhs])[0] for row, rhs in zip(lp.rows, lp.rhs)]
    if any(row[-1] < 0 for row in T):
        raise LPInvariantError("origin-infeasible system; this solver assumes rhs >= 0")
    m, n = len(T), len(c)
    T = [row[:-1] + [int(i == k) for k in range(m)] + row[-1:] for i, row in enumerate(T)]
    # the objective row holds D times the negated reduced costs
    z = [-x for x in c] + [0] * (m + 1)
    basis = list(range(n, n + m))
    D = 1
    while True:
        enter = next((j for j in range(n + m) if z[j] < 0), None)
        if enter is None:
            return Fraction(z[-1], D * scale)
        leave = None
        for i, row in enumerate(T):
            if row[enter] > 0:
                d = leave is not None and row[-1] * T[leave][enter] - T[leave][-1] * row[enter]
                if leave is None or d < 0 or (d == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise LPInvariantError("unbounded LP")
        pivot = T[leave]
        p = pivot[enter]
        for i, row in enumerate(T):
            if i != leave:
                f = row[enter]
                T[i] = [(p * x - f * y) // D for x, y in zip(row, pivot)]
        f = z[enter]
        z = [(p * x - f * y) // D for x, y in zip(z, pivot)]
        D = p
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

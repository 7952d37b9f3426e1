"""Exact redundancy elimination for cone inequality systems, by integer LPs.

A row c.x <= 0 of a cone is redundant iff the other rows imply it, which by
Farkas' lemma holds iff c is a nonnegative combination of them: an LP with
one row per coordinate.  The cone lies in the hyperplane sigma(alpha) = 0
(Derksen-Weyman), so rows are taken in coordinates of alpha^perp on supp(alpha).
Each LP is solved by a tableau simplex with Bland's rule and integer-preserving
pivots (Bareiss, as in Avis' lrs), so every division is exact and it terminates.
"""

import operator
from fractions import Fraction

from .errors import DimensionTooLargeError, LPInvariantError
from .cones import InequalitySystem

_MAX_AMBIENT_DIM = 8


def solve_max(objective, rows, rhs):
    """max objective.x  s.t.  rows.x <= rhs, x >= 0; requires rhs >= 0 (the origin is feasible).

    Every entry must be an integer (operator.index): a float or a Fraction is a TypeError.
    Bland's rule from the slack basis on the integer tableau [A | I | b], with D = 1.
    A pivot on p = T[r][e] maps each other row x to (p.x - x[e].T[r]) // D, then D = p:
    entries are D times the rational tableau's; ratios are cross-multiplied.
    """
    if len(rhs) != len(rows) or any(len(r) != len(objective) for r in rows):
        raise LPInvariantError("LP needs one rhs per row and one entry per variable in each row")
    m, n = len(rows), len(objective)
    # the objective row holds D times the negated reduced costs
    z = [-operator.index(x) for x in objective] + [0] * (m + 1)
    T = [[*map(operator.index, row), *(int(i == k) for k in range(m)), operator.index(b)]
         for i, (row, b) in enumerate(zip(rows, rhs))]
    if any(row[-1] < 0 for row in T):
        raise LPInvariantError("origin-infeasible system; this solver assumes rhs >= 0")
    basis = list(range(n, n + m))
    D = 1
    while True:
        enter = next((j for j in range(n + m) if z[j] < 0), None)
        if enter is None:
            return Fraction(z[-1], D)
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


def check_ambient_dim(alpha):
    """Refuse alpha if |supp(alpha)| - 1, the row count of its LPs, is above the exact-LP guard."""
    dim = sum(1 for a in alpha if a > 0) - 1
    if dim > _MAX_AMBIENT_DIM:
        raise DimensionTooLargeError(
            f"ambient dimension {dim} exceeds the exact-LP guard ({_MAX_AMBIENT_DIM})"
        )


def _system_rows(system):
    """Integer rows of the system in coordinates of alpha^perp on supp(alpha).

    Every normal must be <= alpha (those of inequalities() are), so every row vanishes
    off supp(alpha).  With k the first vertex of supp(alpha), the sigma_j for the other
    j in supp(alpha) parametrise alpha^perp there, and row c becomes alpha_k * c(sigma) =
    (alpha_k c_j - c_k alpha_j)_j, a positive multiple of the same functional, so every
    LP flags the same rows as redundant.  On alpha = 0 every row is empty.
    """
    if system.coordinate_space is not None:
        # sigma(alpha) = 0 is automatic for anti-symmetric sigma on symmetric alpha
        return system.restricted_rows()
    alpha = system.alpha.values
    check_ambient_dim(alpha)
    if not all(b <= system.alpha for b in system.normals):
        raise ValueError("every normal of the system must be <= alpha")
    supp = [j for j, a in enumerate(alpha) if a > 0]
    return [tuple(alpha[supp[0]] * b.values[j] - b.values[supp[0]] * alpha[j] for j in supp[1:])
            for b in system.normals]


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
    objective = [sum(s * x for s, x in zip(signs, r)) for r in other]
    by_coordinate = [[s * r[k] for r in other] for k, s in enumerate(signs)]
    rhs = [abs(x) for x in target]
    return solve_max(objective, by_coordinate, rhs) == sum(rhs)


def is_redundant(system, index):
    """Whether the index-th inequality of the system is implied by the others."""
    return redundant_row(_system_rows(system), index)


def irredundant_core(system):
    """The rows G that greedy removal in canonical order keeps (row i tested against the
    kept rows G(<i) and all later rows), found in two passes whose LPs have <= |K| columns:
    1. a reverse filter: from the last row to the first, row i joins K unless it lies in
       cone(K), all of whose rows come after i;
    2. the greedy on K alone, in canonical order.
    (a) G is inside K: a row i of G lies outside cone(G(<i) + rows(>i)), which contains
    cone(K) when i is filtered.  (b) The greedy on any T with G inside T inside rows returns
    G: by induction on i, with G(<i) kept before i, a row of G is tested against
    cone(G(<i) + T(>i)), inside the cone it was tested against on all rows, so it is kept;
    a row of T - G lies in cone(rows) = cone(G) (each dropped row lies in the cone of the
    rows kept or still to come) = cone(G(<i) + G(>i)), inside cone(G(<i) + T(>i)), so it
    is dropped.  So the greedy on K returns G.  Neither fact assumes anything of the rows:
    parallel rows and rows of the lineality space need no special case.
    """
    rows, filtered = _system_rows(system), []
    for i in reversed(range(len(rows))):
        if not redundant_row([rows[j] for j in filtered] + [rows[i]], len(filtered)):
            filtered.append(i)
    later, keep = filtered[::-1], []
    for n, i in enumerate(later):
        if not redundant_row([rows[j] for j in keep + later[n:]], len(keep)):
            keep.append(i)
    return InequalitySystem(
        system.alpha,
        tuple(system.normals[j] for j in keep),
        coordinate_space=system.coordinate_space,
    )

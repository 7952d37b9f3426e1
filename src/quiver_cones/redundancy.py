"""Exact redundancy elimination for cone inequality systems, by integer LPs.

A row c.x <= 0 of a cone is redundant iff the other rows imply it, which by
Farkas' lemma holds iff c is a nonnegative combination of them.  The cone lies
in the hyperplane sigma(alpha) = 0 (Derksen-Weyman), so rows are taken in
coordinates of alpha^perp on supp(alpha), d = |supp(alpha)| - 1 of them.

Every LP here runs on one integer tableau (`_Tableau`) with integer-preserving
pivots (Bareiss, as in Avis' lrs): its entries are D times the rational
tableau's, D = |det B| > 0 for the basis B, so every division is exact.  A pivot
on p = T[r][e] maps each other row x to (p.x - x[e].T[r]) // D, then D = p; a
negative pivot (dual simplex) first negates its row, which negates the whole
new tableau and keeps D > 0.  The objective row z holds D times the reduced
costs of a minimisation, so z >= 0 is optimal.

`_Farkas` decides c in cone(R) as min sum(a+ + a-) s.t. R^T.lam + a+ - a- = c,
all variables >= 0: the optimum is 0 iff c is in the cone.  Its columns are the
d artificials a+ (the identity), the d artificials a- (minus the identity),
then one column per row of R, appended as rows join.
- A new target c changes only the rhs.  The reduced costs do not depend on it,
  so the last optimal basis stays dual feasible: the new rhs D.B^-1.c is read
  off the a+ columns (they hold D.B^-1), and the objective off the duals,
  D.y_k = D - z[a+_k] (a+_k costs 1).  Dual simplex pivots restore primal
  feasibility.
- A row r joining R adds a column (D.B^-1).r with reduced cost
  -sum_k (D - z[a+_k]) r_k.  The rhs is untouched, so the basis stays primal
  feasible and primal pivots re-optimise.
- A column is blocked (taken out of the LP) by never letting it enter; a basic
  one is first pivoted out of its row by the dual ratio test, which keeps every
  other reduced cost >= 0.  Unblocking it may leave z < 0, so primal pivots
  follow.
Both loops use Bland's rule: primal, the first column with z < 0 enters and the
min ratio leaves, ties to the least basic index; dual, the row of least basic
index with a negative rhs leaves and the min ratio z_j / -T[i][j] enters, ties
to the least column.  The dual rule is Bland's rule on the dual LP, so both
terminate.  The LP is always feasible (lam = 0, a = |c|) and bounded below by
0, so each loop ends at an optimum.

Certificates come from the final tableau.  If c is in the cone, the basic lam
give sum_j (D.lam_j) r_j = D.c with D.lam_j >= 0 (the artificials are 0 at
optimum 0).  If it is not, y is dual feasible: r.(D.y) = -z[r] <= 0 for every
unblocked row r, and c.(D.y) = D times the optimum > 0.
"""

import operator
from fractions import Fraction

from .errors import DimensionTooLargeError, LPInvariantError
from .cones import InequalitySystem

_MAX_AMBIENT_DIM = 8


class _Tableau:
    """The integer tableau T = D.B^-1 [A | b] with objective row z = D.(cost - c_B.B^-1 [A | b]);
    basis[i] is the column basic in row i, and a column in blocked never enters."""

    def __init__(self, T, z, basis):
        self.T, self.z, self.basis, self.D, self.blocked = T, z, basis, 1, set()

    def pivot(self, leave, enter):
        T, D = self.T, self.D
        pivot = T[leave]
        p = pivot[enter]
        if p < 0:
            pivot = T[leave] = [-x for x in pivot]
            p = -p
        for i, row in enumerate(T):
            if i != leave:
                f = row[enter]
                T[i] = [(p * x - f * y) // D for x, y in zip(row, pivot)]
        f = self.z[enter]
        self.z = [(p * x - f * y) // D for x, y in zip(self.z, pivot)]
        self.D = p
        self.basis[leave] = enter

    def primal(self):
        """Primal simplex under Bland's rule, from a primal feasible basis (rhs >= 0)."""
        T, basis, blocked = self.T, self.basis, self.blocked
        while True:
            z = self.z
            enter = next((j for j in range(len(z) - 1) if z[j] < 0 and j not in blocked), None)
            if enter is None:
                return
            leave = None
            for i, row in enumerate(T):
                if row[enter] > 0:
                    d = leave is not None and row[-1] * T[leave][enter] - T[leave][-1] * row[enter]
                    if leave is None or d < 0 or (d == 0 and basis[i] < basis[leave]):
                        leave = i
            if leave is None:
                raise LPInvariantError("unbounded LP")
            self.pivot(leave, enter)

    def dual(self):
        """Dual simplex under the dual Bland rule, from a dual feasible basis (z >= 0)."""
        T, basis = self.T, self.basis
        while True:
            negative = [i for i, row in enumerate(T) if row[-1] < 0]
            if not negative:
                return
            self.dual_pivot(min(negative, key=basis.__getitem__))

    def dual_pivot(self, leave):
        """Pivot the basic column of row leave out, the entering column chosen by the dual
        ratio test min z_j / -T[leave][j] over T[leave][j] < 0, so every z stays >= 0."""
        row, z, blocked = self.T[leave], self.z, self.blocked
        enter = None
        for j in range(len(z) - 1):
            # z_j / -row[j] < z_e / -row[e], cross-multiplied by -row[j].-row[e] > 0
            if row[j] < 0 and j not in blocked and (enter is None
                                                    or z[j] * row[enter] > z[enter] * row[j]):
                enter = j
        if enter is None:
            raise LPInvariantError("infeasible LP")
        self.pivot(leave, enter)


def solve_max(objective, rows, rhs):
    """max objective.x  s.t.  rows.x <= rhs, x >= 0; requires rhs >= 0 (the origin is feasible).

    Every entry must be an integer (operator.index): a float or a Fraction is a TypeError.
    Bland's rule from the slack basis on the integer tableau [A | I | b], with D = 1.
    """
    if len(rhs) != len(rows) or any(len(r) != len(objective) for r in rows):
        raise LPInvariantError("LP needs one rhs per row and one entry per variable in each row")
    m, n = len(rows), len(objective)
    T = [[*map(operator.index, row), *(int(i == k) for k in range(m)), operator.index(b)]
         for i, (row, b) in enumerate(zip(rows, rhs))]
    if any(row[-1] < 0 for row in T):
        raise LPInvariantError("origin-infeasible system; this solver assumes rhs >= 0")
    lp = _Tableau(T, [-operator.index(x) for x in objective] + [0] * (m + 1), list(range(n, n + m)))
    lp.primal()
    return Fraction(lp.z[-1], lp.D)


class _Farkas(_Tableau):
    """Whether c lies in the cone of rows, as the LP of the module docstring.

    Built cold from the basis of the artificials that the signs s of c make feasible
    (a+_k if c_k >= 0, else a-_k: B^-1 = diag(s), y = s), then solved by primal pivots.
    Row j of rows is column 2d + j.
    """

    def __init__(self, rows, c):
        d = len(c)
        s = [-1 if x < 0 else 1 for x in c]
        T = [[*(s[k] * (i == k) for i in range(d)), *(-s[k] * (i == k) for i in range(d)),
              *(s[k] * r[k] for r in rows), abs(c[k])] for k in range(d)]
        z = ([1 - x for x in s] + [1 + x for x in s]
             + [-sum(map(operator.mul, s, r)) for r in rows] + [-sum(map(abs, c))])
        super().__init__(T, z, [k if x > 0 else d + k for k, x in enumerate(s)])
        self.d, self.rows = d, list(rows)
        self.primal()

    def contains(self, c):
        """Whether c lies in the cone of the unblocked rows, re-solved by dual pivots from
        the current basis, which every method leaves dual feasible."""
        D = self.D
        for row in self.T:
            row[-1] = sum(map(operator.mul, c, row))
        self.z[-1] = -sum(x * (D - y) for x, y in zip(c, self.z))
        self.dual()
        return self.z[-1] == 0

    def add(self, r):
        """Append r as a column and re-optimise by primal pivots."""
        D = self.D
        for row in self.T:
            row.insert(-1, sum(map(operator.mul, r, row)))
        self.z.insert(-1, -sum(x * (D - y) for x, y in zip(r, self.z)))
        self.rows.append(r)
        self.primal()

    def block(self, j):
        """Take row j out of the LP, pivoting its column out of the basis if it is in."""
        column = 2 * self.d + j
        self.blocked.add(column)
        if column in self.basis:
            self.dual_pivot(self.basis.index(column))

    def unblock(self, j):
        """Put row j back into the LP and re-optimise by primal pivots."""
        self.blocked.discard(2 * self.d + j)
        self.primal()

    def multipliers(self):
        """(D, [D.lam_j for each row j]): sum_j D.lam_j rows[j] = D.c after contains(c) is True."""
        lam = [0] * len(self.rows)
        for row, column in zip(self.T, self.basis):
            if column >= 2 * self.d:
                lam[column - 2 * self.d] = row[-1]
        return self.D, lam

    def witness(self):
        """D.y: r.(D.y) <= 0 for every unblocked row r, and c.(D.y) > 0 after contains(c) is False."""
        return [self.D - x for x in self.z[:self.d]]


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

    Farkas: iff c = A.lam for some lam >= 0, A having the other rows as columns;
    one cold `_Farkas` LP decides it.  Every entry must be an integer.
    """
    if len({len(r) for r in rows}) > 1:
        raise LPInvariantError("rows of different lengths")
    if not 0 <= index < len(rows):
        raise ValueError(f"row index {index} is outside 0..{len(rows) - 1}")
    rows = [tuple(map(operator.index, r)) for r in rows]
    return _Farkas(rows[:index] + rows[index + 1:], rows[index]).z[-1] == 0


def is_redundant(system, index):
    """Whether the index-th inequality of the system is implied by the others."""
    return redundant_row(_system_rows(system), index)


def irredundant_core(system):
    """The rows G that greedy removal in canonical order keeps (row i tested against the
    kept rows G(<i) and all later rows), found in two passes over one `_Farkas` tableau
    whose columns are the rows of K:
    1. a reverse filter: from the last row to the first, row i joins K unless it lies in
       cone(K), all of whose rows come after i;
    2. the greedy on K alone, in canonical order: each row of K is blocked while it is
       tested, unblocked if it is kept, and stays blocked if it is dropped.
    (a) G is inside K: a row i of G lies outside cone(G(<i) + rows(>i)), which contains
    cone(K) when i is filtered.  (b) The greedy on any T with G inside T inside rows returns
    G: by induction on i, with G(<i) kept before i, a row of G is tested against
    cone(G(<i) + T(>i)), inside the cone it was tested against on all rows, so it is kept;
    a row of T - G lies in cone(rows) = cone(G) (each dropped row lies in the cone of the
    rows kept or still to come) = cone(G(<i) + G(>i)), inside cone(G(<i) + T(>i)), so it
    is dropped.  So the greedy on K returns G.  Neither fact assumes anything of the rows:
    parallel rows and rows of the lineality space need no special case.
    """
    rows, filtered, keep = _system_rows(system), [], []
    lp = _Farkas([], (0,) * (len(rows[0]) if rows else 0))
    for i in reversed(range(len(rows))):
        if not lp.contains(rows[i]):
            lp.add(rows[i])
            filtered.append(i)
    # row filtered[j] is column j of K; the greedy visits them in canonical order
    for j in reversed(range(len(filtered))):
        lp.block(j)
        if not lp.contains(rows[filtered[j]]):
            lp.unblock(j)
            keep.append(filtered[j])
    return InequalitySystem(
        system.alpha,
        tuple(system.normals[j] for j in keep),
        coordinate_space=system.coordinate_space,
    )

"""Membership tests and inequality systems for the cone of semi-invariant weights.

Three equivalent characterisations are implemented:

* dw         -- sigma(alpha) = 0 and sigma(beta) <= 0 for every generic
                subdimension beta of alpha;
* inductive  -- the same with beta restricted to 0 <= beta <= alpha such that
                <beta,.> lies in the cone of alpha - beta (tested through the
                nonvanishing pairing);
* antiinv    -- for symmetric alpha and anti-symmetric sigma, one inequality
                per pair (beta, gamma) with alpha = beta + gamma + tau.beta
                and both pairings beta o gamma, beta o tau.beta nonzero;
                each such beta is an inductive normal, so n3 <= n2.
"""

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .errors import NotAntiSymmetricError
from .quiver import (
    DimVector,
    OrbitBasis,
    Weight,
    antisym_basis,
    weight_eval,
)
from .schofield import IsoPair  # noqa: F401  (re-exported; the I0 pairs are table reads)


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    reason: str = ""
    witness: Optional[DimVector] = None

    def __bool__(self):
        return self.member


@dataclass(frozen=True)
class InequalitySystem:
    """sigma(alpha) = 0 together with sigma(beta) <= 0 for each normal beta.

    When coordinate_space is set the system is read in anti-symmetric orbit
    coordinates; restricted_rows() gives the integer coefficient vectors.
    """

    alpha: DimVector
    normals: tuple
    coordinate_space: Optional[OrbitBasis] = None

    def restricted_rows(self, primitive=False):
        """Coefficient vectors in orbit coordinates; primitive divides by the gcd,
        which keeps the halfspace but matches the conventional normal form."""
        if self.coordinate_space is None:
            raise ValueError("system has no coordinate space")
        rows = [self.coordinate_space.restrict_normal(b) for b in self.normals]
        return [primitive_row(r) for r in rows] if primitive else rows

    def ambient_rows(self):
        return [b.values for b in self.normals]


def primitive_row(row):
    g = gcd(*row) if row else 0
    return tuple(c // g for c in row) if g else tuple(row)


def enumerate_I0(t, a, inv):
    """The pairs (beta, gamma): gamma = a - beta - tau.beta >= 0, both pairings nonzero."""
    return t.iso_pairs(a, inv)


def _first_positive(s, betas):
    """Not a member at the first beta with sigma(beta) > 0; a member if there is none."""
    for beta in betas:
        if weight_eval(s, beta) > 0:
            return MembershipResult(False, reason=f"sigma({beta.values}) > 0", witness=beta)
    return MembershipResult(True)


def member_dw(t, s, a):
    """Derksen-Weyman test: sigma(alpha) = 0 and disc(alpha, sigma) = 0."""
    s, a = t._vector(s, Weight), t._vector(a)
    if weight_eval(s, a) != 0:
        return MembershipResult(False, reason=f"sigma(alpha) = {weight_eval(s, a)} != 0")
    d = t.disc(a, s)
    if d != 0:
        _, witness = t.disc_witness(a, s)
        return MembershipResult(False, reason=f"disc = {d} > 0", witness=witness)
    return MembershipResult(True)


def member_inductive(t, s, a):
    """Inductive test over beta <= alpha with <beta,.> in the cone of alpha - beta."""
    s, a = t._vector(s, Weight), t._vector(a)
    if weight_eval(s, a) != 0:
        return MembershipResult(False, reason=f"sigma(alpha) = {weight_eval(s, a)} != 0")
    return _first_positive(s, t.inductive_normals(a))


def member_antiinv(t, s, a, inv):
    """Reduced test for anti-symmetric weights on a tau-symmetric dimension."""
    s, perm = t._vector(s, Weight), t._involution(inv)  # an inv of another quiver raises here
    if any(s.values[p] != -x for p, x in zip(perm, s.values)):  # s != -tau.s
        raise NotAntiSymmetricError(f"weight {s.values} is not anti-symmetric")
    # iso_pairs rejects an alpha that is not tau-symmetric; on one, sigma(alpha) = 0
    return _first_positive(s, (pair.beta for pair in enumerate_I0(t, a, inv)))


def inequalities(t, a, method, inv=None, basis=None):
    """The inequality system of the chosen characterisation.

    For antiinv the system carries the orbit coordinate space, and normals
    whose restricted coefficient vectors coincide are emitted once (first
    occurrence in enumeration order).
    """
    a = t._vector(a)  # a raw tuple is bound to the table's quiver, as the table reads do
    if method == "dw":
        return InequalitySystem(a, tuple(t.generic_subdims(a)))
    if method == "inductive":
        return InequalitySystem(a, tuple(t.inductive_normals(a)))
    if method != "antiinv":
        raise ValueError(f"unknown method {method!r}")
    if inv is None:
        raise ValueError("antiinv requires an involution")
    if basis is None:
        basis = antisym_basis(t.quiver, inv)
    elif basis.quiver != t.quiver or basis.involution != inv:
        raise ValueError("basis built for another quiver or involution")
    pairs = enumerate_I0(t, a, inv)
    # distinct beta may cut out the same halfspace on the anti-symmetric
    # sublattice; compare primitive coefficient vectors
    seen, normals = set(), []
    for p in pairs:
        row = primitive_row(basis.restrict_normal(p.beta))
        if row not in seen:
            seen.add(row)
            normals.append(p.beta)
    return InequalitySystem(a, tuple(normals), coordinate_space=basis)


def counts(t, a, involutions=()):
    """(n1, n2, [n3 per involution]); trivial members are counted.

    n1 = #{beta <= alpha : beta generic subdim}; n2 restricts to nonvanishing
    pairing with alpha - beta; n3 = #I0 pairs for each given involution.
    """
    subs = t.generic_subdims(a)
    n1 = len(subs)
    n2 = len(t.inductive_normals(a))
    n3s = [len(enumerate_I0(t, a, inv)) for inv in involutions]
    return n1, n2, n3s

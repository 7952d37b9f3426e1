"""Membership tests and inequality systems for the cone of semi-invariant weights.

Three equivalent characterisations are implemented:

* dw         -- sigma(alpha) = 0 and sigma(beta) <= 0 for every generic
                subdimension beta of alpha;
* inductive  -- the same with beta restricted to 0 <= beta <= alpha such that
                <beta,.> lies in the cone of alpha - beta (tested through the
                nonvanishing pairing);
* antiinv    -- for symmetric alpha and anti-symmetric sigma, one inequality
                per beta with gamma = alpha - beta - tau.beta >= 0 and both
                pairings beta o gamma, beta o tau.beta nonzero (the I0 betas);
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
    coordinates; restricted_rows() gives the primitive integer coefficient vectors.
    """

    alpha: DimVector
    normals: tuple
    coordinate_space: Optional[OrbitBasis] = None

    def restricted_rows(self):
        """Primitive coefficient vectors in orbit coordinates: dividing by the gcd
        keeps the halfspace and gives the conventional normal form."""
        if self.coordinate_space is None:
            raise ValueError("system has no coordinate space")
        return [primitive_row(self.coordinate_space.restrict_normal(b)) for b in self.normals]


def primitive_row(row):
    g = gcd(*row)
    return tuple(c // g for c in row) if g else tuple(row)


def enumerate_I0(t, a, inv):
    """The I0 betas: gamma = a - beta - tau.beta >= 0, beta o gamma and beta o tau.beta nonzero."""
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
    s = t._vector(s, Weight)
    inv._bound_to(t.quiver)
    if any(s.values[p] != -x for p, x in zip(inv.perm, s.values)):  # s != -tau.s
        raise NotAntiSymmetricError(f"weight {s.values} is not anti-symmetric")
    # iso_pairs rejects an alpha that is not tau-symmetric; on one, sigma(alpha) = 0
    return _first_positive(s, enumerate_I0(t, a, inv))


def inequalities(t, a, method, inv=None, representatives=None):
    """The inequality system of the chosen characterisation.

    Only antiinv reads the involution tau and the orbit representatives (as
    antisym_basis does).  Its system carries that orbit coordinate space, and
    normals whose restricted coefficient vectors coincide are emitted once
    (first occurrence in enumeration order).
    """
    a = t._vector(a)  # a raw tuple is bound to the table's quiver, as the table reads do
    if method not in ("dw", "inductive", "antiinv"):
        raise ValueError(f"unknown method {method!r}")
    if method != "antiinv" and (inv is not None or representatives is not None):
        raise ValueError(f"{method} reads no involution or representatives")
    if method == "dw":
        return InequalitySystem(a, tuple(t.generic_subdims(a)))
    if method == "inductive":
        return InequalitySystem(a, t.inductive_normals(a))
    if inv is None:
        raise ValueError("antiinv requires an involution")
    basis = antisym_basis(t.quiver, inv, representatives)
    # distinct beta may cut out the same halfspace on the anti-symmetric
    # sublattice; compare primitive coefficient vectors
    seen, normals = set(), []
    for beta in enumerate_I0(t, a, inv):
        row = primitive_row(basis.restrict_normal(beta))
        if row not in seen:
            seen.add(row)
            normals.append(beta)
    return InequalitySystem(a, tuple(normals), coordinate_space=basis)


def counts(t, a, involutions=()):
    """(n1, n2, [n3 per involution]); trivial members are counted.

    n1 = #{beta <= alpha : beta generic subdim}; n2 restricts to nonvanishing
    pairing with alpha - beta; n3 = #I0 betas for each given involution.
    """
    key = t._vector(a).values
    n1, n2 = len(t._subdim_rows(key)), len(t._normal_rows(key))
    n3s = [len(enumerate_I0(t, a, inv)) for inv in involutions]
    return n1, n2, n3s

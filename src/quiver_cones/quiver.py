"""Quiver model, involutions, the Euler-Ringel form and the weight pairing.

Vertices and arrows are opaque strings; the canonical order is declaration
order and every enumeration in the package iterates in that order.  The
pairings are checked 64-bit signed: euler_col checks each column of <., b>,
weight_eval each product and running sum, so euler_form, which evaluates the
column weight, checks both; a value outside that range raises
ValueOverflowError instead of wrapping.
"""

import operator
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from types import MappingProxyType

from .errors import (
    AxiomViolationError,
    DanglingEndpointError,
    DuplicateIdError,
    NotSelfInverseError,
    OrientedCycleError,
    ValueOverflowError,
)

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _check64(n):
    if n < _INT64_MIN or n > _INT64_MAX:
        raise ValueOverflowError(f"value {n} exceeds signed 64-bit range")
    return n


@dataclass(frozen=True)
class Quiver:
    """Immutable acyclic directed multigraph, checked once, when made.

    arrows is a tuple of (arrow id, tail vertex, head vertex).  _order holds
    the vertices in the topological order that check found (every tail
    before its head); _vindex maps each vertex to its declaration index.
    """

    name: str
    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arrows", tuple(tuple(a) for a in self.arrows))
        object.__setattr__(self, "_order", validate_quiver(self))
        object.__setattr__(
            self, "_vindex", {v: i for i, v in enumerate(self.vertices)}
        )

    def vertex_index(self, v):
        return self._vindex[v]

    @property
    def arrow_ids(self):
        return tuple(a for a, _, _ in self.arrows)


def _check_id(what, x):
    """A name or id that the quiver file and vector literals can carry."""
    if not isinstance(x, str) or not x or any(c.isspace() or c in "#,=" for c in x):
        raise ValueError(f"{what} {x!r} must be a non-empty str without whitespace, '#', ',' or '='")


def validate_quiver(q):
    """Check ids, their uniqueness, endpoint declarations and acyclicity; return
    the vertices in a topological order (every tail before its head)."""
    _check_id("quiver name", q.name)
    for what, ids in (("vertex", q.vertices), ("arrow", q.arrow_ids)):
        seen = set()
        for x in ids:
            _check_id(f"{what} id", x)
            if x in seen:
                raise DuplicateIdError(f"duplicate {what} id {x!r}")
            seen.add(x)
    tails = {v: [] for v in q.vertices}
    for a, t, h in q.arrows:
        for end, v in (("tail", t), ("head", h)):
            if v not in tails:
                raise DanglingEndpointError(f"arrow {a!r}: unknown {end} {v!r}")
        tails[h].append(t)
    try:
        return tuple(TopologicalSorter(tails).static_order())
    except CycleError as exc:  # args[1] follows the arrows and repeats its first vertex
        raise OrientedCycleError(exc.args[1]) from None


class _VertexVector:
    """Integer vector indexed by the vertices of one fixed quiver."""

    __slots__ = ("quiver", "values")

    def __init__(self, quiver, values):
        values = tuple(map(operator.index, values))  # TypeError for a float or a string
        if len(values) != len(quiver.vertices):
            raise ValueError("vector length does not match vertex count")
        self.quiver = quiver
        self.values = values
        self._validate()

    def _validate(self):
        pass

    @classmethod
    def from_dict(cls, quiver, entries):
        unknown = set(entries) - set(quiver.vertices)
        if unknown:
            raise DanglingEndpointError(f"unknown vertices {sorted(unknown)!r}")
        return cls(quiver, tuple(entries.get(v, 0) for v in quiver.vertices))

    @classmethod
    def zero(cls, quiver):
        return cls(quiver, (0,) * len(quiver.vertices))

    @classmethod
    def unit(cls, quiver, vertex):
        i = quiver.vertex_index(vertex)
        return cls(quiver, tuple(int(j == i) for j in range(len(quiver.vertices))))

    def __getitem__(self, vertex):
        return self.values[self.quiver.vertex_index(vertex)]

    def _bound_to(self, quiver):
        if self.quiver is not quiver and self.quiver != quiver:
            raise ValueError(f"{type(self).__name__} bound to a different quiver")

    def __add__(self, other):
        other._bound_to(self.quiver)
        return type(self)(
            self.quiver, tuple(x + y for x, y in zip(self.values, other.values))
        )

    def __sub__(self, other):
        other._bound_to(self.quiver)
        return type(self)(
            self.quiver, tuple(x - y for x, y in zip(self.values, other.values))
        )

    def __neg__(self):
        return type(self)(self.quiver, tuple(-x for x in self.values))

    def scaled(self, k):
        return type(self)(self.quiver, tuple(k * x for x in self.values))

    def __le__(self, other):
        other._bound_to(self.quiver)
        return all(x <= y for x, y in zip(self.values, other.values))

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.quiver == other.quiver
            and self.values == other.values
        )

    def __hash__(self):
        return hash((type(self).__name__, self.values))

    def __repr__(self):
        return f"{type(self).__name__}({self.values})"


class DimVector(_VertexVector):
    """Dimension vector: nonnegative integer per vertex."""

    __slots__ = ()

    def _validate(self):
        if any(v < 0 for v in self.values):
            raise ValueError(f"negative entry in dimension vector {self.values}")


class Weight(_VertexVector):
    """Weight: arbitrary integer per vertex."""

    __slots__ = ()


def euler_form(q, a, b):
    """Euler-Ringel form sum_x a(x)b(x) - sum_arrows a(tail)b(head): the weight <., b> at a."""
    return weight_eval(euler_col(q, b), a)


def weight_eval(s, a):
    """sigma(alpha) = sum_x sigma(x) alpha(x), checked arithmetic."""
    a._bound_to(s.quiver)
    acc = 0
    for x, y in zip(s.values, a.values):
        acc = _check64(acc + _check64(x * y))
    return acc


def euler_col(q, b):
    """The weight <.,b> : a |-> euler_form(a, b)."""
    b._bound_to(q)
    cols = list(b.values)
    idx = q.vertex_index
    for _, t, h in q.arrows:
        cols[idx(t)] -= b.values[idx(h)]
    return Weight(q, map(_check64, cols))


@dataclass(frozen=True)
class Involution:
    """Self-inverse vertex/arrow maps of one quiver, exchanging heads and tails.

    Checked once, when made; perm[i] is the index of tau(vertex i).  vmap/amap
    may omit fixed points; lookups default to the identity.  Both are
    read-only views of private copies, so they cannot drift from the hash.
    """

    quiver: Quiver = field(repr=False)
    name: str
    vmap: MappingProxyType
    amap: MappingProxyType

    def __post_init__(self):
        _check_id("involution name", self.name)
        object.__setattr__(self, "vmap", MappingProxyType(dict(self.vmap)))
        object.__setattr__(self, "amap", MappingProxyType(dict(self.amap)))
        q, arrow_by_id = self.quiver, {a: (t, h) for a, t, h in self.quiver.arrows}
        for kind, what, m, known in (("vmap", "vertex", self.vmap, set(q.vertices)),
                                     ("amap", "arrow", self.amap, arrow_by_id)):
            for x, y in m.items():
                if x not in known or y not in known:
                    raise DanglingEndpointError(f"{kind} mentions unknown {what} in {x!r} -> {y!r}")
                if m.get(y, y) != x:
                    raise NotSelfInverseError(f"{kind} is not self-inverse at {x!r}")
        for a, (t, h) in arrow_by_id.items():  # h(tau a) = tau(t a), t(tau a) = tau(h a)
            ta, (tt, th) = self.arrow(a), arrow_by_id[self.arrow(a)]
            if th != self.vertex(t):
                raise AxiomViolationError(
                    a, f"head({ta!r})={th!r} != vmap(tail({a!r}))={self.vertex(t)!r}"
                )
            if tt != self.vertex(h):
                raise AxiomViolationError(
                    a, f"tail({ta!r})={tt!r} != vmap(head({a!r}))={self.vertex(h)!r}"
                )
        object.__setattr__(self, "perm", tuple(q.vertex_index(self.vertex(v)) for v in q.vertices))
        object.__setattr__(self, "_hash", hash((self.name, tuple(sorted(self.vmap.items())),
                                                tuple(sorted(self.amap.items())))))

    @classmethod
    def from_pairs(cls, quiver, name, vpairs, apairs):
        """The involution of quiver swapping each (x, y) pair, listed in either
        order; x = x pairs are fixed points and are dropped."""
        maps = ({}, {})
        for m, pairs in zip(maps, (vpairs, apairs)):
            for x, y in pairs:
                if x != y:
                    m[x], m[y] = y, x
        return cls(quiver, name, *maps)

    def vertex(self, v):
        return self.vmap.get(v, v)

    def arrow(self, a):
        return self.amap.get(a, a)

    _bound_to = _VertexVector._bound_to

    def __hash__(self):
        return self._hash


def tau_dim(inv, a):
    """(tau.a)(x) = a(tau x), of the kind of a; inv is bound to a.quiver."""
    inv._bound_to(a.quiver)
    return type(a)(a.quiver, tuple(a.values[p] for p in inv.perm))


@dataclass(frozen=True)
class OrbitBasis:
    """Coordinates for anti-symmetric weights (sigma = -tau.sigma).

    One coordinate per swapped vertex orbit, read off at the chosen
    representative; anti-symmetric weights vanish on fixed vertices.
    """

    quiver: Quiver
    swapped: tuple  # ordered (representative, partner) pairs

    def from_coords(self, coords):
        coords = tuple(map(operator.index, coords))
        if len(coords) != len(self.swapped):
            raise ValueError("coordinate count does not match swapped orbit count")
        entries = {}
        for (rep, other), c in zip(self.swapped, coords):
            entries[rep] = c
            entries[other] = -c
        return Weight.from_dict(self.quiver, entries)

    def restrict_normal(self, beta):
        """Coefficients of sigma(beta) <= 0 in orbit coordinates: beta(rep) - beta(tau rep)."""
        beta._bound_to(self.quiver)
        return tuple(beta[rep] - beta[other] for rep, other in self.swapped)


def antisym_basis(q, inv, representatives=None):
    """Build the orbit coordinate system for anti-symmetric weights.

    By default the representative of a swapped orbit is its lexicographically
    larger vertex id and orbits are sorted by representative; passing an
    ordered representative list overrides both choices.
    """
    inv._bound_to(q)
    partner = {v: inv.vertex(v) for v in q.vertices if inv.vertex(v) != v}
    if representatives is None:
        representatives = sorted(v for v, w in partner.items() if v > w)
    for r in representatives:
        if r not in partner:
            raise ValueError(f"{r!r} is not in a swapped orbit")
    swapped = tuple((r, partner[r]) for r in representatives)
    if sorted(v for pair in swapped for v in pair) != sorted(partner):
        raise ValueError("representatives must cover each swapped orbit exactly once")
    return OrbitBasis(q, swapped)

"""Quiver model, involutions, the Euler-Ringel form and the weight pairing.

Vertices and arrows are opaque strings; the canonical order is declaration
order and every enumeration in the package iterates in that order.  All
public arithmetic is checked 64-bit signed: results (and running partial
sums) outside that range raise ValueOverflowError instead of wrapping.
"""

import operator
from dataclasses import dataclass

from .errors import (
    AxiomViolationError,
    DanglingEndpointError,
    DuplicateIdError,
    NotAntiSymmetricError,
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
    """Immutable acyclic directed multigraph.

    arrows is a tuple of (arrow id, tail vertex, head vertex).
    """

    name: str
    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arrows", tuple(tuple(a) for a in self.arrows))
        validate_quiver(self)
        object.__setattr__(
            self, "_vindex", {v: i for i, v in enumerate(self.vertices)}
        )

    def vertex_index(self, v):
        return self._vindex[v]

    @property
    def arrow_ids(self):
        return tuple(a for a, _, _ in self.arrows)


def validate_quiver(q):
    """Check id uniqueness, endpoint declarations and acyclicity."""
    seen = set()
    for v in q.vertices:
        if v in seen:
            raise DuplicateIdError(f"duplicate vertex id {v!r}")
        seen.add(v)
    vset = seen
    seen = set()
    for a, t, h in q.arrows:
        if a in seen:
            raise DuplicateIdError(f"duplicate arrow id {a!r}")
        seen.add(a)
        if t not in vset:
            raise DanglingEndpointError(f"arrow {a!r}: unknown tail {t!r}")
        if h not in vset:
            raise DanglingEndpointError(f"arrow {a!r}: unknown head {h!r}")
    _topological_order(q)


def _topological_order(q):
    """Kahn's algorithm; raises OrientedCycleError with a witness cycle."""
    succ = {v: [] for v in q.vertices}
    indeg = {v: 0 for v in q.vertices}
    for _, t, h in q.arrows:
        succ[t].append(h)
        indeg[h] += 1
    queue = [v for v in q.vertices if indeg[v] == 0]
    order = []
    while queue:
        v = queue.pop()
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) < len(q.vertices):
        remaining = {v for v in q.vertices if indeg[v] > 0}
        # walk successors inside the remaining set until a vertex repeats
        v = next(iter(sorted(remaining)))
        path, pos = [], {}
        while v not in pos:
            pos[v] = len(path)
            path.append(v)
            v = next(w for w in succ[v] if w in remaining)
        raise OrientedCycleError(path[pos[v]:] + [v])
    return order


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

    def _same_quiver(self, other):
        if self.quiver is not other.quiver and self.quiver != other.quiver:
            raise ValueError("vectors bound to different quivers")

    def __add__(self, other):
        self._same_quiver(other)
        return type(self)(
            self.quiver, tuple(x + y for x, y in zip(self.values, other.values))
        )

    def __sub__(self, other):
        self._same_quiver(other)
        return type(self)(
            self.quiver, tuple(x - y for x, y in zip(self.values, other.values))
        )

    def __neg__(self):
        return type(self)(self.quiver, tuple(-x for x in self.values))

    def scaled(self, k):
        return type(self)(self.quiver, tuple(k * x for x in self.values))

    def __le__(self, other):
        self._same_quiver(other)
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
    """Euler-Ringel form  sum_x a(x)b(x) - sum_arrows a(tail)b(head)."""
    a._same_quiver(b)
    if a.quiver != q:
        raise ValueError("vectors not bound to the given quiver")
    acc = 0
    for x, y in zip(a.values, b.values):
        acc = _check64(acc + _check64(x * y))
    idx = q.vertex_index
    for _, t, h in q.arrows:
        acc = _check64(acc - _check64(a.values[idx(t)] * b.values[idx(h)]))
    return acc


def weight_eval(s, a):
    """sigma(alpha) = sum_x sigma(x) alpha(x), checked arithmetic."""
    s._same_quiver(a)
    acc = 0
    for x, y in zip(s.values, a.values):
        acc = _check64(acc + _check64(x * y))
    return acc


def euler_col(q, b):
    """The weight <.,b> : a |-> euler_form(a, b)."""
    if b.quiver != q:
        raise ValueError("vectors not bound to the given quiver")
    cols = list(b.values)
    idx = q.vertex_index
    for _, t, h in q.arrows:
        cols[idx(t)] -= b.values[idx(h)]
    return Weight(q, map(_check64, cols))


@dataclass(frozen=True)
class Involution:
    """Self-inverse vertex/arrow maps exchanging heads and tails.

    vmap/amap may omit fixed points; lookups default to the identity.
    """

    name: str
    vmap: dict
    amap: dict

    def __post_init__(self):
        object.__setattr__(self, "vmap", dict(self.vmap))
        object.__setattr__(self, "amap", dict(self.amap))
        object.__setattr__(self, "_hash", hash((self.name, tuple(sorted(self.vmap.items())),
                                                tuple(sorted(self.amap.items())))))

    @classmethod
    def from_pairs(cls, name, vpairs, apairs):
        """The involution swapping each (x, y) pair, listed in either order;
        x = x pairs are fixed points and are dropped."""
        maps = ({}, {})
        for m, pairs in zip(maps, (vpairs, apairs)):
            for x, y in pairs:
                if x != y:
                    m[x], m[y] = y, x
        return cls(name, *maps)

    def vertex(self, v):
        return self.vmap.get(v, v)

    def arrow(self, a):
        return self.amap.get(a, a)

    def __hash__(self):
        return self._hash


def validate_involution(q, inv):
    """Check self-inverseness and the exchange axioms h(tau a) = tau(t a), t(tau a) = tau(h a)."""
    arrow_by_id = {a: (t, h) for a, t, h in q.arrows}
    for kind, what, m, known in (("vmap", "vertex", inv.vmap, set(q.vertices)),
                                 ("amap", "arrow", inv.amap, arrow_by_id)):
        for x, y in m.items():
            if x not in known or y not in known:
                raise DanglingEndpointError(f"{kind} mentions unknown {what} in {x!r} -> {y!r}")
            if m.get(y, y) != x:
                raise NotSelfInverseError(f"{kind} is not self-inverse at {x!r}")
    for a, (t, h) in arrow_by_id.items():
        ta, (tt, th) = inv.arrow(a), arrow_by_id[inv.arrow(a)]
        if th != inv.vertex(t):
            raise AxiomViolationError(
                a, f"head({ta!r})={th!r} != vmap(tail({a!r}))={inv.vertex(t)!r}"
            )
        if tt != inv.vertex(h):
            raise AxiomViolationError(
                a, f"tail({ta!r})={tt!r} != vmap(head({a!r}))={inv.vertex(h)!r}"
            )


def tau_dim(inv, a):
    """(tau.a)(x) = a(tau x), of the kind of a: a DimVector or a Weight."""
    q = a.quiver
    return type(a)(q, tuple(a[inv.vertex(v)] for v in q.vertices))


tau_weight = tau_dim


@dataclass(frozen=True)
class OrbitBasis:
    """Coordinates for anti-symmetric weights (sigma = -tau.sigma).

    One coordinate per swapped vertex orbit, read off at the chosen
    representative; anti-symmetric weights vanish on fixed vertices.
    """

    quiver: Quiver
    involution: Involution
    fixed: tuple
    swapped: tuple  # ordered (representative, partner) pairs

    def representatives(self):
        return tuple(rep for rep, _ in self.swapped)

    def to_coords(self, s):
        ts = tau_weight(self.involution, s)
        if s != -ts:
            raise NotAntiSymmetricError(f"weight {s.values} is not anti-symmetric")
        return tuple(s[rep] for rep, _ in self.swapped)

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
        return tuple(beta[rep] - beta[other] for rep, other in self.swapped)


def antisym_basis(q, inv, representatives=None):
    """Build the orbit coordinate system for anti-symmetric weights.

    By default the representative of a swapped orbit is its lexicographically
    larger vertex id and orbits are sorted by representative; passing an
    ordered representative list overrides both choices.
    """
    validate_involution(q, inv)
    fixed = tuple(v for v in q.vertices if inv.vertex(v) == v)
    partner = {v: inv.vertex(v) for v in q.vertices if v not in fixed}
    if representatives is None:
        representatives = sorted(v for v, w in partner.items() if v > w)
    for r in representatives:
        if r not in partner:
            raise ValueError(f"{r!r} is not in a swapped orbit")
    swapped = tuple((r, partner[r]) for r in representatives)
    if sorted(v for pair in swapped for v in pair) != sorted(partner):
        raise ValueError("representatives must cover each swapped orbit exactly once")
    return OrbitBasis(q, inv, fixed, swapped)

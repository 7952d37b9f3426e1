"""Generic ext/hom, generic subdimensions and discrepancy.

Schofield's criterion (General representations of quivers, Proc. LMS 1992,
Thm 5.4) decides generic subdimensions: b is a generic subdimension of t
(b -> t) iff <s, t - b> >= 0 for every generic subdimension s of b.  An
ExtTable evaluates it bottom-up, once per root a that a caller asks about,
over box(a) = {b : 0 <= b <= a} in mixed-radix (lexicographic) order, where
every b <= t with b != t comes before t:

* top-down, mark the root and, for each marked t, its candidates b <= t with
  <b, t - b> >= 0 (the criterion at s = b, which prunes most of the box) and,
  for c = t - b and each vertex v, <b|V, c> >= 0 and <b, c|W> >= 0, V (W) the
  vertices on paths out of (into) v, v included.  V is closed under arrow
  heads and W under arrow tails, so every representation of dimension b (c)
  has a sub (quotient) of dimension b|V (c|W); Ext^1 over kQ is right exact,
  so ext(b, c) >= -<b|V, c>, -<b, c|W>, and as b -> t iff ext(b, c) = 0, only
  b that cannot be generic subdimensions of t are dropped;
* bottom-up, decide each candidate b of t by one vectorised segment minimum
  of <s, t - b> over 0 and the rows s of S_b, the generic subdimensions of b,
  with a negative entry on supp(root): as t - b >= 0 and is zero off that
  support, no other row can make it negative.  Every kept b meets this full
  test, so the filter changes no S_t;
* S_t is a slice of flat indices into one buffer per build, and keys built
  for one root are reused, and their rows re-sorted by that sign test, by
  every later root.

Every other question is a read of those sets: ext(a, b) is
max(0, -min over s in S_a of <s, b>), disc(a, s) is max over S_a of s, the
inductive normals are the b in S_a with <b, a - b> = 0, and the I0 pairs are
the normals beta with a - beta - tau.beta >= 0 passing two ext tests on S_beta.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLargeError, NotSymmetricDimensionError, ValueOverflowError
from .quiver import DimVector, Weight, euler_form, validate_involution, weight_eval
from .quiver import _topological_order, _VertexVector

# largest entry of a dimension vector or weight passed in (see _check_int64)
_ENTRY_BOUND = 2**20
# most points of box(a) one table build may index; checked before allocating
_MAX_BOX_POINTS = 2**20
# most candidates one table build may mark; a box with no arrow inside its
# support makes every point a candidate of every larger point
_MAX_CANDIDATES = 2**24
# (s, b) pairs gathered per segment-minimum step
_CHUNK = 2**16


@dataclass(frozen=True)
class IsoPair:
    """(beta, gamma) with alpha = beta + gamma + tau.beta for the ambient alpha."""

    beta: DimVector
    gamma: DimVector


class _Box:
    """box(root) = {b : 0 <= b <= root}, flat-indexed in mixed-radix order
    with the last vertex fastest."""

    def __init__(self, root):
        self.shape = tuple(x + 1 for x in root)
        self.size = math.prod(self.shape)
        if self.size > _MAX_BOX_POINTS:
            raise DimensionTooLargeError(
                f"box of {root} has {self.size} points, above the budget of {_MAX_BOX_POINTS}"
            )
        self.radix = np.array(self.shape, dtype=np.int64)
        self.strides = np.cumprod(self.radix[::-1])[::-1] // self.radix

    def flat(self, coords):
        return coords @ self.strides

    def coords(self, flat):
        return flat[..., None] // self.strides % self.radix

    def points(self):
        """Every point as a row, in flat order."""
        return self.coords(np.arange(self.size))


def _rowdot(x, y):
    return np.einsum("ij,ij->i", x, y)


def _all_nonneg(buf, start, stop, pe, c):
    """For each j: whether <s, c_j> >= 0 for every box point s at flat index
    buf[start_j:stop_j], where row s of pe is <s, .>.

    With those points the generic subdimensions of b_j, this is ext(b_j, c_j) = 0.
    For c_j >= 0 the rows of S_b_j with a negative entry, and 0, decide the same.
    The (s, j) pairs are gathered about _CHUNK at a time and reduced with one
    segment minimum per chunk; no segment is empty.
    """
    length = stop - start
    ends = np.cumsum(length)
    out = np.empty(len(start), dtype=bool)
    lo = 0
    while lo < len(start):
        base = ends[lo] - length[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK, side="right")))
        seg = length[lo:hi]
        offsets = ends[lo:hi] - seg - base
        pos = np.arange(ends[hi - 1] - base) + np.repeat(start[lo:hi] - offsets, seg)
        values = _rowdot(pe[buf[pos]], np.repeat(c[lo:hi], seg, axis=0))
        out[lo:hi] = np.minimum.reduceat(values, offsets) >= 0
        lo = hi
    return out


class ExtTable:
    """Generic ext values and generic subdimensions for one fixed quiver.

    Everything cached is write-once: values depend only on the quiver, so
    recomputing a key always yields the same answer.  All operations are
    pure; a single-threaded caller is the supported mode.
    """

    def __init__(self, quiver):
        self.quiver = quiver
        n = len(quiver.vertices)
        E = np.eye(n, dtype=np.int64)
        idx = quiver.vertex_index
        for _, t, h in quiver.arrows:
            E[idx(t), idx(h)] -= 1
        self._euler = E
        # int64 bound: |<s, c>| <= (1 + m) * |s|_1 * |c|_1 for s, c >= 0, where m
        # is the largest number of parallel arrows, so every value a build for
        # root alpha forms (0 <= s, c <= alpha, also in the closed-set tests) is
        # at most (1 + m) * |alpha|_1**2; _check_int64 keeps it below 2**63 first
        self._multiplicity = -int(E.min(initial=0))
        # reach[v, w] = 1 iff w is v or on a path out of v: row v is the least
        # head-closed vertex set holding v, column v the least tail-closed one
        pos = {v: i for i, v in enumerate(_topological_order(quiver))}
        self._reach = np.eye(n, dtype=np.int64)
        for t, h in sorted({(t, h) for _, t, h in quiver.arrows}, key=lambda e: -pos[e[0]]):
            self._reach[idx(t)] |= self._reach[idx(h)]  # the row of h is final
        zero = (0,) * n
        # tuple(t) -> (box, buffer, start, stop): S_t is the box points at
        # buffer[start:stop], 0 first
        self._subs = {zero: (_Box(zero), np.zeros(1, dtype=np.int64), 0, 1)}
        self._dense = {}  # tuple(a) -> (S, S @ E) for keys a public call or an I0 test read
        self._reads = {}  # cached reads: inductive normals, I0 pairs, checked involutions

    # -- internal ----------------------------------------------------------

    def _vector(self, x, kind=DimVector):
        """x as a kind bound to self.quiver, every entry below _ENTRY_BOUND in size."""
        if not isinstance(x, kind):
            if isinstance(x, _VertexVector):  # iterating one would index it by position
                raise TypeError(f"expected a {kind.__name__}, got a {type(x).__name__}")
            x = kind(self.quiver, x)  # rejects a wrong length, a non-integer or negative dimension
        elif x.quiver is not self.quiver and x.quiver != self.quiver:
            raise ValueError(f"{kind.__name__} bound to a different quiver")
        if max(map(abs, x.values), default=0) >= _ENTRY_BOUND:
            raise ValueOverflowError("entries too large for the exact int64 path")
        return x

    def _involution(self, inv):
        """perm[i] = index of tau(vertex i); inv is checked against self.quiver once."""
        perm = self._reads.get(("tau", inv))
        if perm is None:
            q = self.quiver
            validate_involution(q, inv)
            perm = [q.vertex_index(inv.vertex(v)) for v in q.vertices]
            self._reads[("tau", inv)] = perm
        return perm

    def _check_int64(self, mass_a, mass_b):
        if (1 + self._multiplicity) * mass_a * mass_b >= 2**63:
            raise ValueOverflowError("Euler form values may exceed the exact int64 path")

    def _build(self, root):
        """Decide S_t, into _subs, for root and the keys it needs that no earlier build decided."""
        self._check_int64(sum(root), sum(root))
        box = _Box(root)
        N = box.size
        points = box.points()
        pe = points @ self._euler
        # every c = t - b below is zero outside supp(root), so those columns of
        # <s, .> never decide a sign; zeroed, fewer rows have a negative entry
        pe[:, np.asarray(root) == 0] = 0
        slack_base = _rowdot(pe, points)  # <b, b>
        del points
        needed = np.zeros(N, dtype=bool)
        needed[N - 1] = True
        start, mid, stop = (np.zeros(N, dtype=np.int64) for _ in range(3))
        known, new = [], []  # (t, S_t) and (t, key, candidates of t)
        marked = 0
        for t in range(N - 1, -1, -1):
            if not needed[t]:
                continue
            top = box.coords(np.int64(t))
            key = tuple(int(v) for v in top)
            hit = self._subs.get(key)
            if hit is not None:
                src, src_buf, lo, hi = hit
                known.append((t, box.flat(src.coords(src_buf[lo:hi]))))
                continue
            grid = _Box(key).points()
            idx = box.flat(grid)
            keep = np.flatnonzero(grid @ (self._euler @ top) >= slack_base[idx])[1:-1]
            b, cands = grid[keep], idx[keep]  # <b, t - b> >= 0, without 0 and t
            c = top - b
            sub = (b * (c @ self._euler.T)) @ self._reach.T  # <b|V, c>
            quot = (pe[cands] * c) @ self._reach  # <b, c|W>
            cands = cands[(sub >= 0).all(axis=1) & (quot >= 0).all(axis=1)]
            marked += len(cands)
            if marked > _MAX_CANDIDATES:
                raise DimensionTooLargeError(
                    f"table build for {root} marks over {_MAX_CANDIDATES} candidates, above the budget"
                )
            needed[cands] = True
            new.append((t, key, cands))
        # S_t is 0, t and some of the candidates of t
        buf = np.empty(sum(len(f) for _, f in known) + sum(len(c) + 2 for _, _, c in new),
                       dtype=np.int64)
        end = 0

        def put(t, subs):
            """S_t at buf[start:stop], 0 and the rows with a negative entry up to mid."""
            nonlocal end
            active = (pe[subs] < 0).any(axis=1)
            active[0] = True  # subs[0] is 0; it keeps every segment nonempty
            start[t], mid[t], stop[t] = end, end + np.count_nonzero(active), end + len(subs)
            buf[end:mid[t]], buf[mid[t]:stop[t]] = subs[active], subs[~active]
            end = stop[t]

        for t, subs in known:
            put(t, subs)
        reused = end
        for t, key, cands in reversed(new):
            c = np.asarray(key, dtype=np.int64) - box.coords(cands)
            cands = cands[_all_nonneg(buf, start[cands], mid[cands], pe, c)]
            put(t, np.concatenate(([0], cands, [t])))
        # the slices copied from earlier builds stay with those builds
        owned = buf[reused:end].copy()
        for t, key, _ in new:
            self._subs[key] = (box, owned, int(start[t]) - reused, int(stop[t]) - reused)

    def _subdim_rows(self, key):
        """(S, M): rows of S the generic subdimensions of key, lexicographic; M = S @ E."""
        dense = self._dense.get(key)
        if dense is None:
            if key not in self._subs:
                self._build(key)
            box, buf, lo, hi = self._subs[key]
            S = box.coords(np.sort(buf[lo:hi]))
            dense = self._dense[key] = (S, S @ self._euler)
        return dense

    # -- operations ---------------------------------------------------------

    def ext(self, a, b):
        """Generic ext value; max(0, max over generic subdims a' of a of -<a', b>)."""
        ka, kb = self._vector(a).values, self._vector(b).values
        if sum(ka) == 0 or sum(kb) == 0:
            return 0
        self._check_int64(sum(ka), sum(kb))
        _, M = self._subdim_rows(ka)
        return max(0, -int((M @ np.asarray(kb, dtype=np.int64)).min()))

    def hom(self, a, b):
        """Generic hom value: <a, b> + ext(a, b); always >= 0."""
        da, db = self._vector(a), self._vector(b)
        return euler_form(self.quiver, da, db) + self.ext(da, db)

    def is_generic_subdim(self, b, a):
        """Whether every representation of dimension a has a subrepresentation of dimension b."""
        kb, ka = self._vector(b).values, self._vector(a).values
        if any(x > y for x, y in zip(kb, ka)):
            return False
        return self.ext(kb, tuple(y - x for x, y in zip(kb, ka))) == 0

    def generic_subdims(self, a):
        """All generic subdimensions of a, in mixed-radix lexicographic order."""
        S, _ = self._subdim_rows(self._vector(a).values)
        return [DimVector(self.quiver, row) for row in S.tolist()]

    def inductive_normals(self, a):
        """The b <= a with b o (a - b) nonzero, lexicographic: the generic
        subdimensions b of a with <b, a - b> = 0."""
        key = self._vector(a).values
        normals = self._reads.get(("inductive", key))
        if normals is None:
            S, M = self._subdim_rows(key)
            isotropic = M @ np.asarray(key, dtype=np.int64) == _rowdot(M, S)  # <b, a> = <b, b>
            normals = [DimVector(self.quiver, row) for row in S[isotropic].tolist()]
            self._reads[("inductive", key)] = normals
        return normals

    def iso_pairs(self, a, inv):
        """The I0 pairs (beta, gamma) of a tau-symmetric a, lexicographic in beta:
        gamma = a - beta - tau.beta >= 0 with beta o gamma and beta o tau.beta nonzero.

        Each such beta is an inductive normal of a: gamma + tau.beta = a - beta,
        so <beta, a - beta> = 0, and ext(beta, a - beta) = 0, since a general V
        of dimension beta has Ext(V, W + W') = 0 for general W, W' of dimensions
        gamma, tau.beta and generic ext is the least over all representations.
        On the normals <beta, gamma> + <beta, tau.beta> = 0, and S_beta (decided
        by the build of a) holds beta, so the ext tests on S_beta imply both
        isotropy tests; <beta, gamma> = 0 is tested first only to skip S_beta.
        """
        key = self._vector(a).values
        pairs = self._reads.get(("I0", key, inv))
        if pairs is not None:
            return pairs
        q, perm = self.quiver, self._involution(inv)
        if tuple(key[p] for p in perm) != key:
            raise NotSymmetricDimensionError(f"{key} is not tau-symmetric")
        root, pairs = np.asarray(key, dtype=np.int64), []
        for beta in self.inductive_normals(key):
            b = np.asarray(beta.values, dtype=np.int64)
            gamma = root - b - b[perm]
            if gamma.min() < 0 or b @ self._euler @ gamma != 0:
                continue
            _, M = self._subdim_rows(beta.values)  # ext(beta, c) = 0 iff min(M @ c) >= 0
            if (M @ np.stack((gamma, b[perm]), axis=1)).min() >= 0:
                pairs.append(IsoPair(beta, DimVector(q, gamma.tolist())))
        self._reads[("I0", key, inv)] = pairs
        return pairs

    def disc(self, a, s):
        """disc(a, s) = max of s(b) over generic subdims b of a; >= 0 since 0 is one."""
        w = np.asarray(self._vector(s, Weight).values, dtype=np.int64)
        S, _ = self._subdim_rows(self._vector(a).values)
        return int((S @ w).max())

    def disc_witness(self, a, s):
        """A generic subdimension attaining disc(a, s) (first in canonical order)."""
        s = self._vector(s, Weight)
        best = max(self.generic_subdims(a), key=lambda b: weight_eval(s, b))
        return weight_eval(s, best), best

    def circ_nonzero(self, a, b):
        """Nonvanishing test for the pairing a o b: <a, b> = 0 and ext(a, b) = 0."""
        da, db = self._vector(a), self._vector(b)
        return euler_form(self.quiver, da, db) == 0 and self.ext(da, db) == 0

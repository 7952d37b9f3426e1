"""Generic ext/hom, generic subdimensions and discrepancy.

Schofield's criterion (General representations of quivers, Proc. LMS 1992,
Thm 5.4) decides generic subdimensions: b is a generic subdimension of t
(b -> t) iff <s, t - b> >= 0 for every generic subdimension s of b.  An
ExtTable evaluates it once per root a that a caller asks about, over
box(a) = {b : 0 <= b <= a}, flat-indexed in mixed-radix order, one mass level
|b| at a time, as every b <= t with b != t is lighter than t:

* top-down, mark the root and, for the marked keys t of one level together,
  in batches of keys with about _CHUNK points b <= t in all, their candidates:
  the b <= t with, for c = t - b, <b|A, c> >= 0 for every prefix A of the
  support's vertices taken sinks first (at A = the support, the criterion at
  s = b, which prunes most of the box), and <b|V, c> >= 0 and <b, c|W> >= 0
  for each vertex v, V (W) the vertices on paths out of (into) v, v included.
  The grid of b is grown one vertex at a time in that order, the new vertex's
  steps outermost, so each step is one operation over the whole grid so far,
  and a b is dropped at the first prefix it fails; one sort of the packed
  (owner, flat index) of the survivors then groups them by t in flat order,
  skipped when those already increase (one key on one vertex).  A and V are
  closed under arrow heads and W under arrow tails, so every representation
  of dimension b (c) has a sub (quotient) of dimension b|A, b|V (c|W);
  Ext^1 over kQ is right exact, so ext(b, c) >= -<b|A, c>, -<b|V, c>,
  -<b, c|W>, and as b -> t iff ext(b, c) = 0, only b that cannot be generic
  subdimensions of t are dropped.  A batch holds B and C = t - B
  vertex-major, one row per vertex of supp(root); with <b, c> = bEc, the sums
  over V are the rows of H(B * EC) (entrywise), those over W of W(bE * C),
  H (W) a 0/1 row per V (W) traced on the support.  A trace that is empty,
  the whole support (its sum is <b, c>, tested first) or one vertex v (a
  closed V has no arrow from v to the rest of the support, a closed W none
  from the rest to v, so the sum is b_v c_v) is not a row;
* bottom-up, level by level, in batches; once S_b is final, push b to every
  key t it is a candidate of with one product of the rows s of S_b with
  a negative entry on supp(root) (a box-sized mask, made once per build)
  against the columns t - b, and accept b for t when the column's minimum is
  >= 0 (a b with no such row is accepted for every t, with no product).  As
  t - b >= 0 and is zero off that support, no other row can make <s, t - b>
  negative, so the filter changes no S_t;
* S_t = 0, the accepted candidates of t and t, in flat order: a slice of flat
  indices into one buffer per build.  A build decides every key it needs in
  its own box, those an earlier build decided too (their entries stay); a
  root that is already a key is read, not built.

A root a of gcd g > 1 is first tried as a sum.  With delta = a / g: if
<delta, delta> < 0, ext(delta, delta) >= -<delta, delta> > 0 and a is built
at once, as it is when box(a) has 2**63 points or more (past the int64 flat
index); otherwise S_delta is decided (delta has gcd 1, so by a build, or read)
and, if ext(delta, delta) = 0, S_a is the g-fold sum S_delta + ... + S_delta,
one copy at a time, deduplicated, as flat indices of box(a) in flat order (its
own buffer, no key marked).  The sum allocates nothing box-sized, so it checks
no box budget; the pairs the copies form are counted against _MAX_CANDIDATES,
first a lower bound on them all, then before each copy the pairs so far, and
past it a is built instead, so every refusal comes from a build.
Why: when
ext(b, c) = ext(c, b) = 0 a general representation of dimension b + c is V + W
with V, W general of dimensions b, c (Kac, Infinite root systems,
representations of graphs and invariant theory II, J. Algebra 78, 1982), and
S_(b+c) = S_b + S_c.  A subrepresentation U of V + W has dimension
dim(U n V) + dim pi_W(U), a sub of V plus a sub of W; for general V, W those
lie in S_b, S_c, as "has a sub of dimension e" is a closed condition, so S_(b+c)
is inside S_b + S_c.  Back, a sub of V plus a sub of W is a sub of V + W, and
by closedness a sub of every representation of dimension b + c.  When
ext(delta, delta) = 0 the general representation of dimension k delta is a sum
of k general ones of dimension delta, so ext(k delta, delta) = ext(delta,
k delta) = 0 and S_((k+1) delta) = S_(k delta) + S_delta for every k.

A build's products run in float64 through BLAS, exact as _build first checks
that every value they form is an integer below 2**53; what it stores and every
read are integer.

Every other question is a read of those sets: ext(a, b) is
max(0, -min over s in S_a of <s, b>), disc(a, s) is max over S_a of s, the
inductive normals are the b in S_a with <b, a - b> = 0, and the I0 betas are
the normals beta with a - beta - tau.beta >= 0 passing two ext tests on S_beta,
all betas at once: one segmented minimum over their S_beta laid end to end.
"""

import math

import numpy as np

from .errors import DimensionTooLargeError, NotSymmetricDimensionError, ValueOverflowError
from .quiver import DimVector, Weight, _VertexVector, euler_form, weight_eval

# largest entry of a dimension vector or weight passed in (see _check_int64)
_ENTRY_BOUND = 2**20
# most points of box(a) one table build may index; checked before allocating
_MAX_BOX_POINTS = 2**20
# most candidates one table build may mark; a box with no arrow inside its
# support makes every point a candidate of every larger point
_MAX_CANDIDATES = 2**24
# entries of one push product, and about as many per array (supp(root) x points) of a
# push batch or of one step of the closed-set screen; points b <= t of the keys of one
# marking batch (or of its one key), so each array of its enumeration has at most
# 1 + max(root) times as many entries
_CHUNK = 2**16


class _Box:
    """box(root) = {b : 0 <= b <= root}, flat-indexed in mixed-radix order
    with the last vertex fastest; its int64 strides are exact below 2**63 points."""

    def __init__(self, root):
        self.radix = np.array(root, dtype=np.int64) + 1
        self.size = math.prod(self.radix.tolist())
        self.strides = np.cumprod(self.radix[::-1])[::-1] // self.radix

    def coords(self, flat):
        return flat[..., None] // self.strides % self.radix


def _rowdot(x, y):
    return np.einsum("ij,ij->i", x, y)


def _nonneg_columns(rows, cols):
    """For each row c of cols, whether r . c >= 0 for every column r of rows
    (the <s, .> of the s that can make some <s, c> negative, vertex-major), in
    products of about _CHUNK entries, float64 ones in a build (exact below 2**53)."""
    step, out = max(1, _CHUNK // rows.shape[1]), np.empty(len(cols), dtype=bool)
    for i in range(0, len(cols), step):
        out[i:i + step] = (cols[i:i + step] @ rows).min(axis=1) >= 0
    return out


def _batches(weight, bound):
    """(lo, hi) of runs of items, cut where the weight before an item passes a multiple of bound."""
    cuts = (np.flatnonzero(np.diff((np.cumsum(weight) - weight) // max(1, bound))) + 1).tolist()
    return zip([0, *cuts], [*cuts, len(weight)]) if len(weight) else ()


def _candidates(tops, w, strides, slack, axes):
    """Flat index and owner (row of tops) of each b <= t with <b|A, t - b> >= 0 for every prefix A
    of axes, w = tops @ E.T and slack[i] = <b, b> at flat index i: grouped by owner, each group in
    flat order.  axes are sinks first, so each prefix A is closed under arrow heads, the running
    dot is <b_A, t> = <b_A, t_A> and slack[idx] = <b_A, b_A>.  Each axis's steps are outermost,
    so every operation on a step runs over the whole grid so far."""
    radix = tops + 1
    most, least = radix.max(axis=0).tolist(), radix.min(axis=0).tolist()
    w, radix = w.T.copy(), radix.T.copy()
    own = np.arange(len(tops))
    idx = dot = np.zeros(len(tops), dtype=np.int64)
    for axis in axes:
        if most[axis] == 1:
            continue
        steps = np.arange(most[axis])[:, None]
        idx = (steps * strides[axis] + idx).ravel()
        dot = (steps * w[axis].take(own) + dot).ravel()
        keep = dot >= slack.take(idx)
        if least[axis] < most[axis]:
            keep &= (steps < radix[axis].take(own)).ravel()
        own = np.tile(own, most[axis])
        if not keep.all():
            at = keep.nonzero()[0]
            idx, dot, own = idx.take(at), dot.take(at), own.take(at)
    # the grid runs the last axis slowest and the owner fastest: sort the packed
    # (owner, flat) keys, unless they already increase (one owner on one axis)
    shift = int(idx.max(initial=0)).bit_length()
    own <<= shift  # packed in place, with no second grid-sized array
    own |= idx
    if (own[1:] <= own[:-1]).any():
        own.sort()
        idx = own & ((1 << shift) - 1)
    own >>= shift
    return idx, own


class ExtTable:
    """Generic ext values and generic subdimensions for one fixed quiver.

    Everything cached is write-once.  A build decides every key it needs in
    its own box and stores only the keys not stored yet: values depend only
    on the quiver, so a key decided again is the same set.  All operations
    are pure; a single-threaded caller is the supported mode.
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
        # root alpha forms (0 <= s, c <= alpha) is at most (1 + m) * |alpha|_1**2;
        # so is each closed-set sum and each partial sum of one, in any order, as
        # sum over v of s_v * |(Ec)_v| and of |(sE)_v| * c_v are. _check_int64 keeps
        # a read below 2**63; _build keeps a build below 2**53, where its float64
        # BLAS products are exact whatever their summation order or thread split
        self._multiplicity = -int(E.min(initial=0))
        # reach[v, w] = 1 iff w is v or on a path out of v: row v is the least
        # head-closed vertex set holding v, column v the least tail-closed one
        pos = {v: i for i, v in enumerate(quiver._order)}
        self._sinks_first = [idx(v) for v in reversed(quiver._order)]  # each prefix closed under arrow heads
        self._reach = np.eye(n, dtype=np.int64)
        for t, h in sorted({(t, h) for _, t, h in quiver.arrows}, key=lambda e: -pos[e[0]]):
            self._reach[idx(t)] |= self._reach[idx(h)]  # the row of h is final
        zero = (0,) * n
        # tuple(t) -> (box, buffer, start, stop): S_t is the box points at
        # buffer[start:stop], in flat order; the keys of one build share its buffer,
        # a root t = g delta with ext(delta, delta) = 0 has its own, the g-fold sum of S_delta
        self._subs = {zero: (_Box(zero), np.zeros(1, dtype=np.int32), 0, 1)}
        self._reads = {}  # tuple(a) -> S, never returned; inductive normals, I0 betas

    # -- internal ----------------------------------------------------------

    def _vector(self, x, kind=DimVector):
        """x as a kind bound to self.quiver, every entry below _ENTRY_BOUND in size."""
        if not isinstance(x, kind):
            if isinstance(x, _VertexVector):  # iterating one would index it by position
                raise TypeError(f"expected a {kind.__name__}, got a {type(x).__name__}")
            x = kind(self.quiver, x)  # rejects a wrong length, a non-integer or negative dimension
        else:
            x._bound_to(self.quiver)
        if max(map(abs, x.values), default=0) >= _ENTRY_BOUND:
            raise ValueOverflowError("entries too large for the exact int64 path")
        return x

    def _check_int64(self, mass_a, mass_b):
        if (1 + self._multiplicity) * mass_a * mass_b >= 2**63:
            raise ValueOverflowError("Euler form values may exceed the exact int64 path")

    def _build(self, root):
        """Decide S_t, into _subs, for root and every key it needs, in box(root)."""
        on = np.flatnonzero(root)
        E = self._euler[np.ix_(on, on)]
        m = self._multiplicity if (E < 0).any() else 0  # E = I on a support with no arrow inside
        if (1 + m) * sum(root) ** 2 >= 2**53:  # the float64 bound of __init__, before allocating
            raise ValueOverflowError("Euler form values may exceed the exact float64 products of a table build")
        box, reach = _Box(root), self._reach
        if box.size > _MAX_BOX_POINTS:  # before the first box-sized array
            raise DimensionTooLargeError(f"box of {root} has {box.size} points, above the budget of {_MAX_BOX_POINTS}")
        # every b <= t <= root and c = t - b lives on supp(root): vectors are held
        # there, vertex-major (one row per vertex of the support, one column per
        # point), and each closed set V or W is tested once, by its trace on it: a 0/1 row of H or W
        H, W = (np.array([row for row in {*map(tuple, r.tolist())} if 1 < sum(row) < len(on)],
                         dtype=np.float64).reshape(-1, len(on)) for r in (reach[:, on], reach[on].T))
        arrows = np.argwhere(E < 0).repeat(-E[E < 0], axis=0).tolist()  # (tail, head), one per arrow
        axis = {v: i for i, v in enumerate(on.tolist())}
        axes = [axis[v] for v in self._sinks_first if root[v]]  # the support's axes, sinks first
        E = E.astype(np.float64)
        points = np.indices(box.radix[on].tolist(), dtype=np.min_scalar_type(max(root))).reshape(len(on), -1)
        pe = points.astype(np.float64)  # <b, .>
        for u, w in arrows:
            pe[w] -= points[u]
        slack_base = _rowdot(pe.T, points.T)  # <b, b>
        neg = (pe < 0).any(axis=0)  # the s whose rows can make some <s, c> negative
        needed = np.zeros(box.size, dtype=bool)
        needed[[0, -1]] = True  # 0 is in every S_t and no key of the build
        # marked keys wait in runs, sorted arrays of (|root| - |b|) << shift | b;
        # every candidate of t is lighter than t, so once a mass is the heaviest
        # left, all its keys are marked
        shift, runs = box.size.bit_length(), [np.array([box.size - 1])]
        levels, counts, edges, marked, step = [], [], [], 0, max(1, _CHUNK // len(on))
        while runs:
            depth = min(int(run[0]) for run in runs) >> shift
            cuts = [np.searchsorted(run, (depth + 1) << shift) for run in runs]
            keys = np.sort(np.concatenate([r[:k] for r, k in zip(runs, cuts)])) & ((1 << shift) - 1)
            runs = [run[cut:] for run, cut in zip(runs, cuts) if cut < len(run)]
            top = box.coords(keys)[:, on]
            levels.append((keys, top))
            for lo, hi in _batches(np.prod(top + 1, axis=1), _CHUNK):
                t = top[lo:hi]
                cands, own = _candidates(t, t @ E.T, box.strides[on], slack_base, axes)
                tc, ok = t.T.astype(np.float64), np.empty(len(cands), dtype=bool)
                for i in range(0, len(cands), step):  # the closed-set screen, step candidates at a time
                    part = slice(i, i + step)
                    b = points.take(cands[part], axis=1)
                    c = (tc.take(own[part], axis=1) if len(t) > 1 else tc) - b
                    x = E @ c
                    x *= b  # summed over V, <b|V, c>
                    ok[part] = (H @ x).min(axis=0, initial=0) >= 0
                    x = pe.take(cands[part], axis=1)
                    x *= c  # summed over W, <b, c|W>
                    ok[part] &= (W @ x).min(axis=0, initial=0) >= 0
                # the edges of each t: 0, its candidates, t (b = 0 and b = t pass every test)
                at = np.flatnonzero(ok)
                cands, own = cands[at], own[at]
                marked += len(cands) - 2 * len(t)
                if marked > _MAX_CANDIDATES:
                    raise DimensionTooLargeError(
                        f"table build for {root} marks over {_MAX_CANDIDATES} candidates, above the budget"
                    )
                counts.append(np.bincount(own, minlength=len(t)))
                edges.append(cands.astype(np.int32))
                unseen = np.flatnonzero(~needed[cands])
                needed[cands] = True
                if len(unseen):
                    mass = points.take(cands[unseen], axis=1).sum(axis=0, dtype=np.int64)
                    run = np.sort((sum(root) - mass) << shift | cands[unseen])
                    runs.append(run[np.diff(run, prepend=-1) > 0])  # each key once
        del points
        # edge e joins tail[e] to the key j (marking order) with e in starts[j]:starts[j + 1];
        # one in-place sort of the pairs (rank of tail[e], e), packed in an int64, with
        # each key ranked 1 + its marking index, puts key j's at ends[j]:ends[j + 1]
        tail, tops = np.concatenate(edges), np.concatenate([top for _, top in levels]).astype(np.float64)
        del edges
        starts = np.cumsum(np.concatenate([[0], *counts]))
        rank = np.zeros(box.size, dtype=np.int64)
        rank[np.concatenate([keys for keys, _ in levels])] = np.arange(1, len(tops) + 1)
        order = rank[tail]
        order[starts[1:] - 1] = 0  # the edge from t to itself, like those from 0, is never pushed
        shift = len(tail).bit_length()
        order <<= shift
        order |= np.arange(len(tail), dtype=np.int32)
        order.sort()
        ends = np.searchsorted(order, np.arange(1, len(tops) + 2) << shift)
        order &= (1 << shift) - 1
        order = order.astype(np.int32)
        accepted = np.zeros(len(tail), dtype=bool)
        accepted[starts[:-1]] = accepted[starts[1:] - 1] = True  # 0 and t
        j = len(tops)
        # by ascending mass, so the S_t of a level are final when it is reached;
        # then each key of the level is pushed to every key it is a candidate of
        for keys, top in reversed(levels):
            j -= len(keys)
            a, z = starts[j], starts[j + len(keys)]
            held = accepted[a:z] & neg.take(tail[a:z])  # the s of each S_b that can make <s, c> < 0
            off = np.concatenate(([0], np.cumsum(held)))[starts[j:j + len(keys) + 1] - a]
            subs = tail[a:z][held]
            lens, got = off[1:] - off[:-1], ends[j + 1:j + len(keys) + 1] - ends[j:j + len(keys)]
            for lo, hi in _batches(lens + got, _CHUNK // (2 * len(on))):
                rows, pos = pe.take(subs[off[lo]:off[hi]], axis=1), order[ends[j + lo]:ends[j + hi]]
                n = got[lo:hi] * (lens[lo:hi] > 0)  # edges of the keys with such rows
                tested = (n > 0).repeat(got[lo:hi])
                row_at, col_at = off[lo:hi + 1] - off[lo], np.concatenate(([0], np.cumsum(n)))
                # c = u - t for the key u of each edge, one product per key
                c = tops[np.searchsorted(starts, pos[tested], side="right") - 1] - top[lo:hi].repeat(n, axis=0)
                keep = [_nonneg_columns(rows[:, row_at[i]:row_at[i + 1]], c[col_at[i]:col_at[i + 1]])
                        for i in n.nonzero()[0].tolist()]
                ok = ~tested  # a key with no such row accepts every edge
                ok[tested] = np.concatenate(keep) if keep else False
                accepted[pos[ok]] = True
        owned = tail[accepted]
        del tail, order, accepted
        spans = [*(owned == 0).nonzero()[0].tolist(), len(owned)]  # each S_t starts with 0
        built = box.coords(np.concatenate([keys for keys, _ in levels])).tolist()
        for key, lo, hi in zip(map(tuple, built), spans, spans[1:]):
            self._subs.setdefault(key, (box, owned, lo, hi))

    def _decide(self, key):
        """Store S_key in _subs unless it is there: with g = gcd(key) > 1 and
        delta = key / g, as the g-fold sum of S_delta when ext(delta, delta) = 0,
        else by a build of key."""
        if key in self._subs:
            return
        g = math.gcd(*key)
        d = np.asarray(key, dtype=np.int64) // g
        Ed = self._euler @ d
        # gcd 1, or ext(delta, delta) >= -<delta, delta> > 0, or a box whose int64 strides would wrap
        if g == 1 or d @ Ed < 0 or math.prod(x + 1 for x in key) >= 2**63:
            return self._build(key)
        box, delta = _Box(key), tuple(d.tolist())
        self._decide(delta)
        S = self._rows(delta)
        if (S @ Ed).min() < 0:  # ext(delta, delta) > 0
            return self._build(key)
        m = len(S)  # |S_(j delta)| >= j (m - 1) + 1, as |A + B| >= |A| + |B| - 1
        if m * ((m - 1) * g * (g - 1) // 2 + g - 1) > _MAX_CANDIDATES:  # the least pairs the sum forms
            return self._build(key)
        step = S @ box.strides  # flat in box(key): b + s <= key has no carry
        flat, pairs = step, 0
        for _ in range(g - 1):
            pairs += len(flat) * len(step)
            if pairs > _MAX_CANDIDATES:  # past the budget, the build decides (or refuses) key
                return self._build(key)
            flat = np.sort((flat[:, None] + step).ravel())  # in flat order
            flat = flat[np.diff(flat, prepend=-1) > 0]  # each point once
        self._subs[key] = (box, flat, 0, len(flat))

    def _rows(self, key):
        """S_key of a decided key, decoded from its slice."""
        box, buf, lo, hi = self._subs[key]
        return box.coords(buf[lo:hi])

    def _subdim_rows(self, key):
        """The generic subdimensions of key as the rows of one array S, lexicographic."""
        S = self._reads.get(key)
        if S is None:
            self._decide(key)
            S = self._reads[key] = self._rows(key)
        return S

    def _normal_rows(self, key):
        """The inductive normals of key as the rows of one array, lexicographic."""
        rows = self._reads.get(("normals", key))
        if rows is None:
            S = self._subdim_rows(key)
            M = S @ self._euler
            isotropic = M @ np.asarray(key, dtype=np.int64) == _rowdot(M, S)  # <b, a> = <b, b>
            rows = self._reads[("normals", key)] = S[isotropic]
        return rows

    # -- operations ---------------------------------------------------------

    def ext(self, a, b):
        """Generic ext value; max(0, max over generic subdims a' of a of -<a', b>)."""
        ka, kb = self._vector(a).values, self._vector(b).values
        if sum(ka) == 0 or sum(kb) == 0:
            return 0
        self._check_int64(sum(ka), sum(kb))
        S = self._subdim_rows(ka)
        return max(0, -int((S @ (self._euler @ np.asarray(kb, dtype=np.int64))).min()))

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
        S = self._subdim_rows(self._vector(a).values)
        return [DimVector(self.quiver, row) for row in S.tolist()]

    def inductive_normals(self, a):
        """The b <= a with b o (a - b) nonzero, lexicographic, as a tuple shared
        by every call: the generic subdimensions b of a with <b, a - b> = 0."""
        key = self._vector(a).values
        normals = self._reads.get(("inductive", key))
        if normals is None:
            normals = tuple(DimVector(self.quiver, row) for row in self._normal_rows(key).tolist())
            self._reads[("inductive", key)] = normals
        return normals

    def iso_pairs(self, a, inv):
        """The I0 betas of a tau-symmetric a, lexicographic, as a tuple shared by
        every call: gamma = a - beta - tau.beta >= 0 with beta o gamma and
        beta o tau.beta nonzero (gamma follows from beta, so it is not kept).

        Each such beta is an inductive normal of a: gamma + tau.beta = a - beta,
        so <beta, a - beta> = 0, and ext(beta, a - beta) = 0, since a general V
        of dimension beta has Ext(V, W + W') = 0 for general W, W' of dimensions
        gamma, tau.beta and generic ext is the least over all representations.
        On the normals <beta, gamma> + <beta, tau.beta> = 0, and S_beta holds
        beta, so the ext tests on S_beta imply both isotropy tests; <beta, gamma>
        = 0 is tested first, on every normal at once, only to skip S_beta.  A
        build of a marks every beta as a key, a sum of copies of S_delta marks
        none, so each beta that is not yet a key is decided first, the same way
        as a root.  S_beta is then decoded from its own slice, and both ext tests
        of every beta are one segmented minimum over them end to end.
        """
        key = self._vector(a).values
        betas = self._reads.get(("I0", key, inv))
        if betas is not None:
            return betas
        inv._bound_to(self.quiver)
        perm = list(inv.perm)  # a tuple would index b[perm] by axis
        if tuple(key[p] for p in perm) != key:
            raise NotSymmetricDimensionError(f"{key} is not tau-symmetric")
        B = self._normal_rows(key)
        T = B[:, perm]  # tau.beta
        G = np.asarray(key, dtype=np.int64) - B - T  # gamma
        on = (G >= 0).all(axis=1) & (_rowdot(B @ self._euler, G) == 0)
        B, T, G = B[on], T[on], G[on]  # never empty: beta = 0 passes
        # each S_beta decoded from its own slice, laid out beta by beta
        keys = list(map(tuple, B.tolist()))
        for beta in keys:
            self._decide(beta)
        S = [self._rows(beta) for beta in keys]
        lens = np.array([len(rows) for rows in S])
        S, firsts = np.concatenate(S), np.cumsum(lens) - lens
        # ext(beta, c) = 0 iff <s, c> >= 0 for every s in S_beta: one segmented minimum
        # over both tests, c = gamma and c = tau.beta
        SE = S @ self._euler
        low = np.minimum(_rowdot(SE, G.repeat(lens, axis=0)), _rowdot(SE, T.repeat(lens, axis=0)))
        ok = np.minimum.reduceat(low, firsts) >= 0
        betas = self._reads[("I0", key, inv)] = tuple(DimVector(self.quiver, row) for row in B[ok].tolist())
        return betas

    def disc(self, a, s):
        """disc(a, s) = max of s(b) over generic subdims b of a; >= 0 since 0 is one."""
        w = np.asarray(self._vector(s, Weight).values, dtype=np.int64)
        S = self._subdim_rows(self._vector(a).values)
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

"""Generic ext/hom, generic subdimensions and discrepancy.

Schofield's criterion (General representations of quivers, Proc. LMS 1992,
Thm 5.4) decides generic subdimensions: b is a generic subdimension of t
(b -> t) iff <s, t - b> >= 0 for every generic subdimension s of b.  An
ExtTable evaluates it once per root a that a caller asks about, over
box(a) = {b : 0 <= b <= a}, flat-indexed in mixed-radix order, in two phases:

* _mark, top-down, breadth-first from the root, wave 0: each later wave holds
  the points the wave before first marked, in flat order; in batches of keys t
  of one wave with about _CHUNK points b <= t in all, it marks their candidates:
  the b <= t with, for c = t - b, <b|A, c> >= 0 for every prefix A of the
  support's vertices taken sinks first (at A = the support, the criterion at
  s = b, which prunes most of the box), and <b|V, c> >= 0 and <b, c|W> >= 0
  for each vertex v, V (W) the vertices on paths out of (into) v, v included.
  The grid of b is grown one vertex at a time in that order, the new vertex's
  steps outermost, so each step is one operation over the whole grid so far,
  and a b is dropped at the first prefix it fails.  A and V are
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
  from the rest to v, so the sum is b_v c_v) is not a row.  The keys are then
  laid out in levels by mass |b|, heaviest first, each mass in flat order: as
  every b <= t with b != t is lighter than t, a level's S_b are final once the
  lighter levels are pushed;
* _push, bottom-up, one pass per level; once the S of a level are final, each
  key s of it with a negative entry on supp(root) (a box-sized mask, made once
  per build) is flagged if S_s holds a pair x, s - x other than {0, s} (one
  packed search per batch of keys), then each key b of the level is pushed
  to every key t it is a candidate of: b is accepted for t iff <s, t - b> >= 0
  for every row s of S_b with a negative entry that is neither b nor flagged
  (a b with no such row is accepted for every t).  All (row, edge) pairs of
  the level are read as <s, t> - <s, b> off one product of the level's
  distinct rows against the keys they meet, in batches of pairs.  The rows
  left out change no S_t: as t - b >= 0 and is zero off supp(root), a row
  with no negative entry there has <s, t - b> >= 0; _mark kept b as a
  candidate of t only where <b, t - b> >= 0; and a flagged s is a sum of two
  lighter rows of S_b.
  Why: if x -> s and s -> b then x -> b, as every representation of
  dimension b has a subrepresentation of dimension s, and that one has one of
  dimension x; so x and s - x lie in S_b, and <s, c> = <x, c> + <s - x, c>.
  By induction on |s|, the minimum over the rows tested is >= 0 iff it is
  over all of S_b.  The rows tested are the Schur roots: x -> s and s - x -> s
  say ext(x, s - x) = ext(s - x, x) = 0, so a general representation of
  dimension s is a direct sum of two of dimensions x and s - x (Kac, below)
  and s is no Schur root; back, a general representation of a dimension that
  is no Schur root is a direct sum of two, each a subrepresentation;
* S_t = 0, the accepted candidates of t and t, in flat order: a slice of flat
  indices into one buffer per build.  A build decides every key it needs in
  its own box, those an earlier build decided too (their entries stay); a
  root that is already a key is read, not built.

A build walks one key per orbit of G, the permutations p of supp(root) that
keep every arrow multiplicity of the full subquiver on supp(root) and fix
root, acting on box(root) by (p.x)[p[u]] = x[u] (_symmetries: a backtracking
search over the vertices grouped by entry, in- and out-multiplicity, which
gives up, keeping the identity alone, past |supp(root)| automorphisms, so
|G| <= |supp(root)|).  The keys walked are the least flat index rep(b) of
their orbits: each candidate b marks rep(b).  With g.rep(b) = b, an edge b -> t
is tested off the rows g.s of S_b = g.S_rep(b), s the rows of S_rep(b), as
<g.s, t> - <s, rep(b)>, that is as rep(b) -> g^-1.t, and each candidate b of a
key that is no key itself is stored with S_b = g.S_rep(b), moved and sorted
(_images, its entries held against _MAX_CANDIDATES too): every candidate of the
root, and so every I0 beta, is stored.  Why: the representations of dimension
x <= root live on the full subquiver on supp(root), and p, an automorphism of
it, carries one of dimension x, and its subrepresentations, to one of
dimension p.x and its subrepresentations, so S_(p.x) = p.S_x; and as p keeps
every arrow multiplicity, <p.x, p.y> = <x, y>.  So b -> t iff
rep(b) -> g^-1.t, and each test reads the same numbers.

An arrow-thin root a, 1 at both ends of each arrow inside supp(a), is read
first, in closed form (_arrow_thin): S_a = {b <= a : b_w = 1 wherever b_u > 0
for an arrow u -> w inside supp(a)}.  Why: the representations of dimension a
whose arrows inside supp(a) are nonzero maps between lines are open and dense,
and their subrepresentations U are those with U_w = k wherever U_u = k, any
subspace at a vertex that no such arrow meets; so a general one has just those
dimensions.  Past _MAX_BOX_POINTS rows (its box is no smaller) the build refuses a.

Every other root a is first tried as a sum of pieces, a = beta_1 + ... + beta_r
(_split).  The generator tries g = gcd(a) copies of a / g, then the layers
1[a >= v], v = 1 ... max(a): each run of equal layers is appended to the pieces
so far, or, where that fails, merged into one copy of an earlier piece, or
else carried into the next layer; if that leaves no split, and the support of
a falls apart into components that no arrow joins, a is the sum of its parts
on them once each part is a key (so such a split builds nothing).  Each step is
certified (_certified): with acc the sum of the pieces before beta,
ext(beta, acc) = 0 and ext(acc, beta) = 0, both read off S_beta alone by the
two forms of Schofield's theorem,
ext(beta, acc) = max(0, -min over s in S_beta of <s, acc>) and
ext(acc, beta) = max(0, -min over s in S_beta of <acc, beta - s>), the second
over the generic quotients beta - s of beta.  Their rows s = beta and s = 0,
<beta, acc> >= 0 and <acc, beta> >= 0, are tested for every step first, so a
split that fails them decides no S.  The steps pass iff ext vanishes both ways
between any two pieces, whatever their order, so they are taken heaviest
piece first, and that piece is decided only once every step has passed (a
piece that its build refuses leaves a to its own build).  k copies of beta
meet acc + j beta, j < k; both tests are minima of functions linear in j, so
the two ends decide them.  The certificate alone makes a sum exact, so any
generator is safe.  S_a is then
the sum of the pieces' S, one piece at a time, deduplicated, as flat indices of
box(a) in flat order (its own buffer, no key marked).  It allocates nothing
box-sized, so it checks no box budget; before each piece, the pairs formed so
far and the fewest the pieces still to come can form (each forms
|S_acc| |S_beta|, and |S_acc| grows by at least |S_beta| - 1, as
|A + B| >= |A| + |B| - 1) are held against _MAX_CANDIDATES, and past it a is
built instead, so every refusal comes from a build.  A root with no certified
split is built, as is one whose box has 2**63 points or more (past the int64
flat index) or whose Euler values may pass int64.
Why: when
ext(b, c) = ext(c, b) = 0 a general representation of dimension b + c is V + W
with V, W general of dimensions b, c (Kac, Infinite root systems,
representations of graphs and invariant theory II, J. Algebra 78, 1982), and
S_(b+c) = S_b + S_c.  A subrepresentation U of V + W has dimension
dim(U n V) + dim pi_W(U), a sub of V plus a sub of W; for general V, W those
lie in S_b, S_c, as "has a sub of dimension e" is a closed condition, so S_(b+c)
is inside S_b + S_c.  Back, a sub of V plus a sub of W is a sub of V + W, and
by closedness a sub of every representation of dimension b + c.  By induction
over the steps, a general representation of dimension a is then a direct sum of
general ones of the pieces, and S_a is the sum of their S.

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
# most candidates one table build may mark, and most entries of the S it stores as images of others';
# a support with no arrow inside is read in closed form
_MAX_CANDIDATES = 2**24
# (row, edge) pairs of one _push batch, S entries of the keys _push flags in one batch,
# multiply-adds of one block of a _push level's product, and about as many entries per array
# (supp(root) x points) of one step of _mark's closed-set screen; points b <= t of the keys of
# one _mark batch, cut from one wave (or of its one key), so each array of its enumeration
# has at most 1 + max(root) times as many entries
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


def _least_pairs(m, runs):
    """The fewest pairs a sum forms from a set of m points on over runs (n, k), k pieces of
    n points each: each piece forms m n, and m grows by at least n - 1 (|A + B| >= |A| + |B| - 1)."""
    pairs = 0
    for n, k in runs:
        pairs += n * (k * m + (n - 1) * k * (k - 1) // 2)
        m += k * (n - 1)
    return pairs


def _components(key, E):
    """key restricted to each connected component of its support, E the Euler matrix (an
    entry off the diagonal is nonzero where an arrow joins two vertices)."""
    left, parts = {i for i, x in enumerate(key) if x}, []
    while left:
        part, grow = set(), {left.pop()}
        while grow:
            part |= grow
            grow = {j for j in left if any(E[i, j] or E[j, i] for i in grow)}
            left -= grow
        parts.append(tuple(x if i in part else 0 for i, x in enumerate(key)))
    return parts


def _symmetries(E, values):
    """The automorphisms of the quiver with Euler matrix E that fix values, as rows p of one array, the
    identity first: (p.x)[p[u]] = x[u]; the identity alone if there are more than len(values) of them.
    A backtracking search, each vertex placed after one it shares an arrow with where it can, its image
    one with the same value, in- and out-multiplicity that keeps every arrow to the vertices placed."""
    n, E = len(values), E.tolist()
    pair = [list(zip(row, col)) for row, col in zip(E, zip(*E))]  # pair[u][v]: the arrows u -> v and v -> u
    sig = [(x, sum(row), sum(col)) for x, row, col in zip(values, E, zip(*E))]
    same = [[w for w in range(n) if sig[w] == sig[u]] for u in range(n)]
    order, i = [], 0
    while len(order) < n:  # breadth-first, component by component
        if i == len(order):
            order.append(next(v for v in range(n) if v not in order))
        order += [v for v in range(n) if (E[order[i]][v] or E[v][order[i]]) and v not in order]
        i += 1
    found, image, used = [], [0] * n, [False] * n

    def extend(k):
        """Whether the search stops: past n automorphisms."""
        if k == n:
            found.append(image.copy())
            return len(found) > n
        u = order[k]
        arrows, images = [pair[u][v] for v in order[:k]], [image[v] for v in order[:k]]
        for w in same[u]:
            if not used[w] and [pair[w][x] for x in images] == arrows:
                image[u], used[w] = w, True
                stop = extend(k + 1)
                used[w] = False
                if stop:
                    return True
        return False

    return np.array([list(range(n))] if extend(0) else sorted(found)).reshape(-1, n)


class _Orbits:
    """The automorphisms perms of _symmetries on supp(root) = on, the identity first, acting on
    box(root): g.x = hi[g, x // size] + lo[g, x % size] is the flat index of y, y[p[u]] = x[u] for
    p = perms[g], read off two tables, each over the points of one half of the axes of supp(root)
    (the last ones, about sqrt(box.size) points, and the rest), so nothing is box-sized."""

    def __init__(self, box, on, perms):
        moved, radix = box.strides[on][perms], box.radix[on].tolist()  # g moves e_u to e_p[u]
        cut, self.size = len(on), 1
        while self.size**2 < box.size:
            cut -= 1
            self.size *= radix[cut]
        self.hi, self.lo = (self._table(radix[a:z], moved[:, a:z]) for a, z in ((0, cut), (cut, len(on))))
        self.group, inverse = np.arange(len(perms))[:, None], np.empty_like(perms)
        inverse[self.group, perms] = np.arange(len(on))  # as rows p^-1: the index of each in perms
        self.inverse = (inverse[:, None] == perms).all(axis=2).argmax(axis=1).astype(np.int8)

    @staticmethod
    def _table(radix, moved):
        """The flat index of g.x for each point x of the box over radix, in its own flat order."""
        return moved @ np.indices(radix).reshape(len(radix), math.prod(radix))

    def image(self, x):
        """g.x for each g of the group (a row) and flat index x (a column)."""
        return self.hi[self.group, x // self.size] + self.lo[self.group, x % self.size]

    def least(self, images):
        """(rep, back) of the points x of images = image(x): the least flat index of x's orbit, and g
        with g.rep(x) = x, off the least (h.x, h) over the group, packed in an int64."""
        shift = len(self.group).bit_length()
        least = (images << shift | self.group).min(axis=0)
        return least >> shift, self.inverse.take(least & ((1 << shift) - 1))


def _images(owned, runs, moves, moved, column):
    """g.S for each S, the runs[i]-th run of owned (each S starts with 0), and g = moves[i], with
    g.s = moved[g, column[s]]: each image sorted, laid end to end, in batches of about _CHUNK entries;
    no walk marked them, so they are held against _MAX_CANDIDATES too."""
    firsts = np.flatnonzero(owned == 0)
    lo = firsts.take(runs)
    n = np.append(firsts[1:], len(owned)).take(runs) - lo
    if n.sum() > _MAX_CANDIDATES:
        raise DimensionTooLargeError(f"table build stores over {_MAX_CANDIDATES} entries, above the budget")
    images = [np.zeros(0, dtype=np.int32)]
    for a, z in _batches(n, _CHUNK):
        m = n[a:z]
        cut = np.cumsum(m) - m
        src = owned.take(np.arange(int(cut[-1] + m[-1])) + (lo[a:z] - cut).repeat(m))
        img = moved.take(moves[a:z].astype(np.intp).repeat(m) * moved.shape[1] + column.take(src))
        shift = int(img.max()).bit_length()
        img |= np.arange(z - a).repeat(m) << shift  # (image, entry) packed, so one sort orders each image
        img.sort()
        images.append((img & ((1 << shift) - 1)).astype(np.int32))
    return np.concatenate(images)


def _rowdot(x, y):
    return np.einsum("ij,ij->i", x, y)


def _batches(weight, bound):
    """(lo, hi) of runs of items, cut where the weight before an item passes a multiple of bound (and at
    both ends, where -1 meets a sum >= 0), made ints as read: a wave of _mark may have a run per box point."""
    if weight.sum() < bound:  # every weight before an item is below bound: one run, or none
        return [(0, len(weight))] if len(weight) else []
    cuts = np.flatnonzero(np.diff((np.cumsum(weight) - weight) // max(1, bound), prepend=-1, append=-1))
    return zip(map(int, cuts[:-1]), map(int, cuts[1:]))


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


def _sums(keys, flat, sizes):
    """The keys s whose S_s holds a pair x, s - x other than {0, s}: S_s, s = keys[i], is the next
    sizes[i] entries of flat, in flat order (as x <= s, x + (s - x) has no carry, so s - x is the
    flat index s - x), each x looked up as s - x, in batches of keys with about _CHUNK entries,
    one packed search each; 0 and s find each other, so a key with more than 2 hits has such a pair."""
    shift, firsts, split = int(keys.max()).bit_length(), np.cumsum(sizes) - sizes, []
    for lo, hi in _batches(sizes, _CHUNK):
        own = np.arange(hi - lo).repeat(sizes[lo:hi])
        f = flat[firsts[lo]:firsts[lo] + len(own)]
        packed = own << shift
        packed |= f  # (own, x): ascending
        query = packed + (keys[lo:hi].take(own) - 2 * f)  # (own, s - x)
        hit = packed.take(np.searchsorted(packed, query), mode="clip") == query
        split.append(keys[lo:hi][np.add.reduceat(hit, firsts[lo:hi] - firsts[lo], dtype=np.intp) > 2])
    return np.concatenate(split)


def _nonneg_pairs(pe, distinct, slot, lens, got, first, tops, targets, moves):
    """For each edge out of the i-th key b = tops[first + i] of a level (got[i] of them, key by
    key) to the key t = tops[targets[e]], whether <s, t - b> >= 0 for each of b's lens[i] rows
    s = distinct[slot[0, r]] (flat indices, key by key), read as <s, t> - <s, b> off one product of
    the distinct rows against the keys from the first t in level order to the level's last; the
    pairs are laid out edge by edge, in batches of about _CHUNK, and an edge fails where one of
    its pairs, so its segment's minimum, is negative (float64, exact below 2**53).  Unless moves is
    None, edge e leaves g.b, g = moves[e], and is tested off the rows g.s = distinct[slot[g, r]]:
    <g.s, t - g.b> = <g.s, t> - <s, b>."""
    lo = int(targets.min())
    # prod[x, i] = <s, x> for the i-th distinct row s and each key x = tops[lo + x], in blocks of
    # keys of about _CHUNK multiply-adds (small enough that OpenBLAS keeps each on one thread)
    keys, cols = tops[lo:first + len(lens)], pe.take(distinct, axis=1)
    prod, step = np.empty((len(keys), len(distinct))), max(1, _CHUNK // cols.size)
    for x in range(0, len(keys), step):
        np.matmul(keys[x:x + step], cols, out=prod[x:x + step])
    prod = prod.ravel()
    at_b = prod.take(slot[0] + (np.arange(first - lo, first - lo + len(lens)) * len(distinct)).repeat(lens))  # <s, b>
    per = lens.repeat(got)  # the rows of each edge
    row = (np.cumsum(lens) - lens).repeat(got)  # the first row of each edge
    out = np.ones(len(per), dtype=bool)
    for a, z in _batches(per, _CHUNK):
        n = per[a:z]
        cut = np.cumsum(n) - n
        at = np.arange(int(cut[-1] + n[-1])) + (row[a:z] - cut).repeat(n)  # the row of each pair
        col = slot.take(at if moves is None else at + (moves[a:z].astype(np.intp) * slot.shape[1]).repeat(n))
        col += ((targets[a:z] - lo) * len(distinct)).repeat(n)  # where each pair's <g.s, t> is
        low = prod.take(col) < at_b.take(at)  # <s, t - b> < 0
        out[a + np.searchsorted(cut, np.flatnonzero(low), side="right") - 1] = False
    return out


def _push(levels, counts, tail, pe, neg, orbits):
    """Bottom-up, the candidates of ExtTable._mark's keys that are generic subdimensions: (extra, owned,
    spans), S_t of the j-th key in level order, then of each point of extra, at owned[spans[j]:spans[j + 1]].
    With orbits (an _Orbits), the keys are the least points of their orbits, each candidate b is g.rep(b)
    for g = back[b], and an edge b -> t is tested off the rows g.s of S_b = g.S_rep(b), s the rows of
    S_rep(b), as <g.s, t> - <s, rep(b)>; extra holds the candidates that are no key, and their S_b."""
    # edge e joins tail[e] to key j (level order), e in starts[j]:starts[j + 1]; one in-place sort
    # of (1 + the index of key rep(tail[e]), e), packed in an int64, puts the edges from key j's
    # orbit at ends[j]:ends[j + 1]
    tops = np.concatenate([top for _, top in levels]).astype(np.float64)
    starts = np.concatenate(([0], np.cumsum(counts)))
    rank, flats = np.zeros(len(neg), dtype=np.int64), np.concatenate([keys for keys, _ in levels])
    rank[flats] = np.arange(1, len(tops) + 1)
    if orbits is not None:  # each candidate x once, in column[x] of moved[g] = g.x, rep and back
        points = np.zeros(len(neg), dtype=bool)
        points[tail] = True
        points, column = np.flatnonzero(points), np.zeros(len(neg), dtype=np.int32)
        column[points] = np.arange(len(points))
        moved = orbits.image(points)
        rep, back = orbits.least(moved)
    order = rank.take(tail if orbits is None else rep.take(column.take(tail)))
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
    test = neg.copy()  # the s to test: a negative entry, and S_s with no pair x, s - x but {0, s}
    j = len(tops)
    # by ascending mass, so the S_t of a level are final when it is reached: its keys that
    # can be rows are flagged, then each key is pushed to every key it is a candidate of
    for keys, _ in reversed(levels):
        j -= len(keys)
        a, z, n = starts[j], starts[j + len(keys)], counts[j:j + len(keys)]
        flat, cut = tail[a:z], starts[j:j + len(keys)] - a
        got = ends[j + 1:j + len(keys) + 1] - ends[j:j + len(keys)]
        can = (got > 0) & neg.take(keys)  # the keys that can be a row to test of a heavier key's S
        if can.any():
            in_s = accepted[a:z] & can.repeat(n)
            flagged = _sums(keys[can], flat[in_s], np.add.reduceat(in_s, cut, dtype=np.intp)[can])
            test[flagged if orbits is None else moved[:, column.take(flagged)]] = False  # and their orbits
        held = accepted[a:z] & test.take(flat)
        held[cut + n - 1] = False  # s = b: _mark kept b for t only where <b, t - b> >= 0
        lens = np.add.reduceat(held, cut, dtype=np.intp)
        pos = order[ends[j]:ends[j + len(keys)]]
        tested = (lens > 0).repeat(got)
        if not tested.any():  # no key of the level has a row to test: every edge out of its keys is accepted
            accepted[pos] = True
            continue
        accepted[pos[~tested]] = True  # a key with no row to test accepts every edge
        pos = pos[tested]
        # the rows of each S_b, and of each image g.S_b: the distinct ones, and where each one is
        rows = flat[held].astype(np.int64)[None] if orbits is None else moved[:, column.take(flat[held])]
        distinct = np.sort(rows, axis=None)
        distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
        targets = np.searchsorted(starts, pos, side="right") - 1  # the key t of each edge
        moves = None if orbits is None else back.take(column.take(tail.take(pos)))
        ok = _nonneg_pairs(pe, distinct, np.searchsorted(distinct, rows), lens, got * (lens > 0), j, tops, targets,
                           moves)
        accepted[pos[ok]] = True
    owned, extra = tail[accepted], np.zeros(0, dtype=np.int64)
    if orbits is not None:  # the S_b of each candidate b that is no key, after the keys'
        other = rep != points
        extra = points[other]
        owned = np.concatenate((owned, _images(owned, rank.take(rep[other]) - 1, back[other], moved, column)))
    return extra, owned, [*(owned == 0).nonzero()[0].tolist(), len(owned)]  # each S_t starts with 0


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
        self._arrows = tuple({(idx(t), idx(h)): None for _, t, h in quiver.arrows})  # (tail, head), parallel ones once
        pos = {idx(v): i for i, v in enumerate(quiver._order)}
        self._sinks_first = [idx(v) for v in reversed(quiver._order)]  # each prefix closed under arrow heads
        self._reach = np.eye(n, dtype=np.int64)
        for t, h in sorted(self._arrows, key=lambda e: -pos[e[0]]):
            self._reach[t] |= self._reach[h]  # the row of h is final
        zero = (0,) * n
        # tuple(t) -> (box, buffer, start, stop): S_t is the box points at
        # buffer[start:stop], in flat order; the keys of one build share its buffer,
        # a root decided as a sum of pieces has its own
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
        if (1 + self._multiplicity) * sum(root) ** 2 >= 2**53:  # the float64 bound of __init__, before allocating
            raise ValueOverflowError("Euler form values may exceed the exact float64 products of a table build")
        if (box := _Box(root)).size > _MAX_BOX_POINTS:  # before the first box-sized array
            raise DimensionTooLargeError(f"box of {root} has {box.size} points, above the budget of {_MAX_BOX_POINTS}")
        levels, *marked = self._mark(root, box)
        extra, owned, spans = _push(levels, *marked)
        built = box.coords(np.concatenate([keys for keys, _ in levels] + [extra])).tolist()
        for key, lo, hi in zip(map(tuple, built), spans, spans[1:]):
            self._subs.setdefault(key, (box, owned, lo, hi))

    def _mark(self, root, box):
        """(levels, counts, tail, pe, neg, orbits): (keys, tops on supp(root)) of each mass level but 0's,
        heaviest first, the keys root needs in flat order; the edges of each key and their int32 tails
        (0, candidates, key) in that order; every <b, .> on supp(root), the b with one negative, and
        the _Orbits of the automorphisms G of the quiver on supp(root) that fix root, None if G is the
        identity alone: the keys are then the least points of their orbits, each candidate b marking rep(b)."""
        on = np.flatnonzero(root)
        E, reach = self._euler[np.ix_(on, on)], self._reach
        perms = _symmetries(E, [root[v] for v in on])
        orbits = _Orbits(box, on, perms) if len(perms) > 1 else None
        # every b <= t <= root and c = t - b lives on supp(root): vectors are held there, vertex-major (a
        # row per vertex, a column per point), each closed set V or W tested once by its trace, a row of H or W
        H, W = (np.array([row for row in {*map(tuple, r.tolist())} if 1 < sum(row) < len(on)],
                         dtype=np.float64).reshape(-1, len(on)) for r in (reach[:, on], reach[on].T))
        arrows = np.argwhere(E < 0).repeat(-E[E < 0], axis=0).tolist()  # (tail, head), one per arrow
        axes = [on.tolist().index(v) for v in self._sinks_first if root[v]]  # the support's axes, sinks first
        E = E.astype(np.float64)
        points = np.indices(box.radix[on].tolist(), dtype=np.min_scalar_type(max(root))).reshape(len(on), -1)
        pe = points.astype(np.float64)  # <b, .>
        for u, w in arrows:
            pe[w] -= points[u]
        slack_base = _rowdot(pe.T, points.T)  # <b, b>
        neg = (pe < 0).any(axis=0)  # the s whose rows can make some <s, c> negative
        needed = np.zeros(box.size, dtype=bool)
        needed[[0, -1]] = True  # 0 is in every S_t and no key of the build
        # breadth-first from the root, each wave the points the wave before first marked, in flat order: a
        # key's candidates do not depend on its batch, so every order marks the same keys and edges
        strides, radix, step = box.strides[on], box.radix[on], max(1, _CHUNK // len(on))
        wave, keys, mass, counts, edges, marked = np.array([box.size - 1]), [], [], [], [], 0
        while len(wave):
            top = wave[:, None] // strides % radix  # on supp(root) alone, as a wave may hold most of the box
            keys.append(wave)
            mass.append(top.sum(axis=1))
            fresh, sizes = [], np.prod(top + 1, axis=1)
            del top  # each batch decodes its own keys, so no wave's tops are all held at once
            for lo, hi in _batches(sizes, _CHUNK):
                t = wave[lo:hi, None] // strides % radix
                cands, own = _candidates(t, t @ E.T, strides, slack_base, axes)
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
                if orbits is not None:
                    cands = orbits.image(cands).min(axis=0)  # b marks rep(b), the key S_b is read off
                fresh.append(cands[~needed[cands]])
                needed[cands] = True
            wave = np.sort(np.concatenate(fresh))
            wave = wave[np.concatenate(([True], wave[1:] != wave[:-1]))[:len(wave)]]  # each point once, if any
        # the levels _push reads: by mass, heaviest first, each mass in flat order
        keys, mass, counts = np.concatenate(keys), np.concatenate(mass), np.concatenate(counts)
        order = np.lexsort((keys, -mass))
        firsts, tail = (np.cumsum(counts) - counts)[order].tolist(), np.concatenate(edges)
        keys, counts, cuts = keys[order], counts[order], np.flatnonzero(np.diff(mass[order])) + 1
        del edges  # each key's edges as one int32 slice, with no gather index as long as the tails
        tail = np.concatenate([tail[a:a + n] for a, n in zip(firsts, counts.tolist())])
        levels = list(zip(np.split(keys, cuts), np.split(keys[:, None] // strides % radix, cuts)))
        return levels, counts, tail, pe, neg, orbits

    def _decide(self, key):
        """Store S_key in _subs unless it is there: in closed form if key is arrow-thin, else as the
        sum of the pieces of a certified split of key, within the pair budget, else by a build."""
        if key in self._subs:
            return
        # a box whose int64 strides would wrap, or values past int64: the build decides (and refuses)
        fits = math.prod(x + 1 for x in key) < 2**63 and (1 + self._multiplicity) * sum(key) ** 2 < 2**63
        if fits and self._arrow_thin(key):
            return
        try:
            runs = self._split(key) if fits else None
            pieces = [(self._subdim_rows(beta), k) for beta, k in runs or ()]  # the heaviest one too
        except DimensionTooLargeError:  # a piece that its build refuses: key's own build decides
            pieces = None
        if not pieces:
            return self._build(key)
        box = _Box(key)
        # k copies of each piece, as flat steps in box(key): b + s <= key has no carry
        runs = [(S @ box.strides, k) for S, k in pieces]
        flat, pairs = runs[0][0], 0
        runs[0] = (flat, runs[0][1] - 1)
        for i, (step, k) in enumerate(runs):
            for j in range(k):
                # the least pairs still to come: each piece forms |S_acc| |S_beta| of them
                rest = [(len(step), k - j)] + [(len(s), n) for s, n in runs[i + 1:]]
                if pairs + _least_pairs(len(flat), rest) > _MAX_CANDIDATES:
                    return self._build(key)  # past the budget, the build decides (or refuses) key
                pairs += len(flat) * len(step)
                flat = np.sort(flat[:, None] + step, axis=None)  # in flat order
                flat = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]  # each point once
        self._subs[key] = (box, flat, 0, len(flat))

    def _arrow_thin(self, key):
        """Whether key is arrow-thin; if so, S_key is decided in closed form (module docstring)."""
        if any(key[u] and key[w] and key[u] + key[w] > 2 for u, w in self._arrows):  # an end > 1 inside supp(key)
            return False
        inside = (self._euler < 0) & (np.outer(key, key) > 0)  # [u, w]: an arrow u -> w inside supp(key)
        box, flat = _Box(key), np.zeros(1, dtype=np.int64)
        for v in (v for v in self._sinks_first if key[v]):  # each head of v is placed before v
            grow = flat[(flat[:, None] // box.strides[inside[v]] % 2).all(axis=1)]  # b_w = 1 at each head w
            if len(flat) + key[v] * len(grow) > _MAX_BOX_POINTS:
                self._build(key)  # the box is no smaller, so the build refuses key
                return True
            flat = np.concatenate([flat, (np.arange(1, key[v] + 1)[:, None] * box.strides[v] + grow).ravel()])
        flat.sort()
        self._subs[key] = (box, flat, 0, len(flat))
        return True

    def _split(self, key):
        """Runs (beta, k), k copies of beta each, that sum to key and pass _certified, or None.
        First g = gcd(key) copies of key / g; else the layers 1[key >= v], v = 1 ... max(key):
        each run of equal layers is appended to the pieces so far, or, where that fails, merged
        into one copy of an earlier piece, or else carried into the next layer; else the parts
        of key on the components of its support, once each is a key."""
        g = math.gcd(*key)
        if g > 1 and self._certified([(delta := tuple(x // g for x in key), g)]):
            return [(delta, g)]
        pieces, carry, below = [], (0,) * len(key), 0
        for v in sorted(set(key) - {0}):
            layer, k = tuple(int(x >= v) for x in key), v - below
            new = [(tuple(c + y for c, y in zip(carry, layer)), 1)] + [(layer, k - 1)] * (k > 1)
            carry, below = tuple(c + k * y for c, y in zip(carry, layer)), v  # all of the new layers
            merged = [(tuple(map(sum, zip(beta, carry))), 1) for beta, _ in pieces]
            trials = [pieces + new] + [pieces[:i] + [(beta, n - 1)] * (n > 1) + pieces[i + 1:] + [merged[i]]
                                       for i, (beta, n) in enumerate(pieces)]
            passed = next(filter(self._certified, trials), None)
            if passed is not None:
                pieces, carry = passed, (0,) * len(key)
        if not any(carry) and pieces != [(key, 1)]:
            return pieces
        # else, a support in several components whose parts are all decided already: no build
        parts = [(part, 1) for part in _components(key, self._euler)]
        if len(parts) > 1 and all(part in self._subs for part, _ in parts) and self._certified(parts):
            return parts
        return None

    def _certified(self, runs):
        """Whether ext(acc, beta) = ext(beta, acc) = 0 for each piece beta of the runs (beta, k)
        and the sum acc of the pieces before it, the heaviest piece first, read off S_beta
        alone (see the module docstring): <s, acc> >= 0 and <acc, beta - s> >= 0 for every s
        in S_beta.  The rows s = beta and s = 0 are tested first, for every piece, so no S_beta
        is decided for a split that fails them; the heaviest piece is not decided here."""
        E, acc, tests = self._euler, 0, []
        for beta, k in sorted(runs, key=lambda run: -sum(run[0])):  # the heaviest piece first
            b = np.array(beta)
            # the copies of beta meet acc + j b, j < k: each test is a minimum of functions
            # linear in j, so its two ends decide it (and at acc + j b = 0 every test passes)
            X = np.array([acc + 0 * b, acc + (k - 1) * b])
            acc = acc + k * b
            if X.any():
                sub, quo = E @ X.T, X @ E  # <s, x> = s @ sub, <x, s> = quo @ s
                if (b @ sub < 0).any() or (quo @ b < 0).any():  # s = beta, s = 0
                    return False
                tests.append((beta, sub, quo, quo @ b))
        for beta, sub, quo, top in tests:
            S = self._subdim_rows(beta)
            if (S @ sub).min() < 0 or (S @ quo.T > top).any():
                return False
        return True

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
        build of a marks every beta as a key, a sum or a closed form none, so
        each beta that is not yet a key is decided first, the same way as a
        root, the heaviest first, as a build marks lighter ones as keys.
        S_beta is then decoded from its own slice, and both ext tests
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
        for beta in sorted(keys, key=sum, reverse=True):
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

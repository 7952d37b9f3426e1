"""Reference oracle: the subdimension table built one key at a time.

This is how ExtTable._build decided its keys before it ran in two phases over
the box by mass level, in batches (ExtTable._mark, then schofield._push):
top-down, the needed keys in descending flat order, each key's candidates from
its own per-axis outer sums and filters; bottom-up, the keys in ascending flat
order, each pushed to its parents with its own rows and columns, every row of
S_b with a negative entry (the batched push leaves out the rows whose own S
holds a pair x, s - x other than {0, s}, and the row b itself).  It fills an
ExtTable's _subs with the entries of the batched build under the identity
group, which walks every key on its own; a build that walks one key per orbit
of the automorphisms fixing its root stores fewer keys.  The differential
tests compare every entry a batched build stores against it, and every entry
of _push alone on the output _mark recorded for the same root.

    class PerKeyTable(ExtTable):
        _build = build_per_key

grid_candidates is the batched build's candidate enumeration before the
sinks-first prefix test: every b <= t of a batch from per-axis outer sums,
then <b, t - b> >= 0 alone.  It takes schofield._candidates' arguments and
returns its arrays, so a test can build with either one.

mark_by_mass is ExtTable._mark before it walked the keys breadth-first from
the root: one pass over the box by mass, heaviest first, each mass in flat
order, in batches of keys of one level, every key walked on its own (no
orbits).  It takes _mark's arguments and returns its arrays, which the
differential tests hold equal to _mark's under the identity group.
"""

import numpy as np

from quiver_cones import schofield
from quiver_cones.errors import DimensionTooLargeError
from quiver_cones.schofield import _MAX_CANDIDATES, _Box, _batches, _candidates, _rowdot


def _nonneg_columns(rows, cols):
    """For each row c of cols, whether r . c >= 0 for every column r of rows (the <s, .> of
    the s that can make some <s, c> negative, vertex-major), in products of about _CHUNK entries."""
    step, out = max(1, schofield._CHUNK // rows.shape[1]), np.empty(len(cols), dtype=bool)
    for i in range(0, len(cols), step):
        out[i:i + step] = (cols[i:i + step] @ rows).min(axis=1) >= 0
    return out


def _grids(tops, w, strides):
    """Flat index and <b, t> (w = tops @ E.T) of each b <= t, t row by row of tops, and
    each grid's size: per axis, an outer sum over the widest t less the steps past t's."""
    idx = dot = np.zeros(len(tops), dtype=np.int64)
    size, radix = np.ones(len(tops), dtype=np.int64), tops + 1
    least, most = radix.min(axis=0).tolist(), radix.max(axis=0).tolist()
    for axis in [a for a, m in enumerate(most) if m > 1]:
        steps = np.arange(most[axis])
        idx = (idx[:, None] + steps * strides[axis]).ravel()
        dot = (dot[:, None] + (w[:, axis, None] * steps).repeat(size if len(size) > 1 else 1, 0)).ravel()
        if least[axis] < most[axis]:
            keep = (steps < radix[:, axis].repeat(size)[:, None]).ravel()
            idx, dot = idx[keep], dot[keep]
        size *= radix[:, axis]
    return idx, dot, size


def grid_candidates(tops, w, strides, slack, axes):
    """(flat index, owner) of each b <= t, t a row of tops, with <b, t - b> >= 0, grouped by
    owner, each group in flat order; axes are not read."""
    idx, dot, size = _grids(tops, w, strides)
    at = np.flatnonzero(dot >= slack[idx])  # <b, t - b> >= 0
    return idx[at], np.searchsorted(np.cumsum(size), at, side="right")


def build_per_key(self, root):
    """Decide S_t, into self._subs, for root and the keys it needs that no earlier build decided."""
    self._check_int64(sum(root), sum(root))
    box = _Box(root)
    N = box.size
    points = box.coords(np.arange(N))
    pe = points @ self._euler
    pe[:, np.asarray(root) == 0] = 0
    slack_base = _rowdot(pe, points)  # <b, b>
    del points
    needed = np.zeros(N, dtype=bool)
    needed[N - 1] = True
    axis = np.arange(max(root) + 1)
    known, new, edges = {}, {}, []  # t -> S_t; t -> (key, edge range); candidates of each new t
    marked = 0
    for t in range(N - 1, -1, -1):
        if not needed[t]:
            continue
        top = box.coords(np.int64(t))
        key = tuple(int(v) for v in top)
        hit = self._subs.get(key)
        if hit is not None:
            src, src_buf, lo, hi = hit
            known[t] = src.coords(src_buf[lo:hi]) @ box.strides
            continue
        # flat index and <b, t> of every b <= t, as per-axis outer sums
        idx = dot = np.zeros(1, dtype=np.int64)
        for k, stride, w in zip(key, box.strides, self._euler @ top):
            if k:
                steps = axis[:k + 1]
                idx = (idx[:, None] + steps * stride).ravel()
                dot = (dot[:, None] + steps * w).ravel()
        cands = idx[np.flatnonzero(dot >= slack_base[idx])[1:-1]]  # <b, t - b> >= 0, without 0 and t
        b = box.coords(cands)
        c = top - b
        sub = (b * (c @ self._euler.T)) @ self._reach.T  # <b|V, c>
        quot = (pe[cands] * c) @ self._reach  # <b, c|W>
        cands = cands[((sub >= 0) & (quot >= 0)).all(axis=1)]
        marked += len(cands)
        if marked > _MAX_CANDIDATES:
            raise DimensionTooLargeError(
                f"table build for {root} marks over {_MAX_CANDIDATES} candidates, above the budget"
            )
        needed[cands] = True
        new[t] = (key, marked - len(cands), marked)
        edges.append(cands.astype(np.int32))
    # edge e joins the candidate tail[e] to the key whose range in new holds e;
    # one in-place sort of the pairs (tail[e], e), packed in an int64, groups
    # the edges by candidate and keeps each group in t order
    tail = np.concatenate(edges)
    del edges
    shift = len(tail).bit_length()
    order = tail.astype(np.int64)
    order <<= shift
    order |= np.arange(len(tail), dtype=np.int32)
    order.sort()
    keys = np.flatnonzero(needed)
    first, last = (np.searchsorted(order, k << shift) for k in (keys, keys + 1))
    order &= (1 << shift) - 1
    order = order.astype(np.int32)
    tops = np.array([key for key, _, _ in new.values()], dtype=np.int64)
    starts = np.fromiter((lo for _, lo, _ in new.values()), dtype=np.int64, count=len(new))
    accepted = np.zeros(len(tail), dtype=bool)
    buf = np.empty(len(tail) + 2 * len(new), dtype=np.int32)
    end, spans = 0, {}
    # ascending: every candidate b of t comes before t, so S_t is final when
    # t is reached, and t is then pushed to each key it is a candidate of
    for t, lo, hi in zip(keys.tolist(), first.tolist(), last.tolist()):
        if t in new:
            _, a, z = new[t]
            subs = np.concatenate(([0], tail[a:z][accepted[a:z]], [t]))
            spans[t] = (end, end + len(subs))
            buf[end:end + len(subs)] = subs
            end += len(subs)
        else:
            subs = known[t]
        if lo == hi:
            continue
        pos = order[lo:hi]
        rows = pe[subs]
        rows = rows[(rows < 0).any(axis=1)]  # no other row makes a <s, c> negative
        if len(rows):
            # c = u - t for the key u of each edge
            c = tops[np.searchsorted(starts, pos, side="right") - 1] - box.coords(np.int64(t))
            pos = pos[_nonneg_columns(rows.T, c)]
        accepted[pos] = True
    del tail, order, accepted
    owned = buf[:end].copy()
    for t, (key, _, _) in new.items():
        self._subs[key] = (box, owned, *spans[t])


def mark_by_mass(self, root, box):
    """ExtTable._mark's result from one pass over the box by mass, heaviest first, each mass in flat
    order: a level's keys are its points marked by then, as every b <= t with b != t is lighter than t."""
    on = np.flatnonzero(root)
    E, reach = self._euler[np.ix_(on, on)], self._reach
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
    # heaviest mass first, each mass in flat order: every candidate of t is lighter than t, so a
    # level's keys are marked when it is reached, and t - e_s, s a source of supp(t), is one, so
    # no level is empty; the last level is 0 alone
    depth = sum(root) - points.sum(axis=0, dtype=np.min_scalar_type(sum(root)))  # 8 or 16 bits sort by radix
    by_mass, ends = np.argsort(depth, kind="stable").astype(np.int32), np.cumsum(np.bincount(depth))
    del depth
    levels, counts, edges, marked, step, a = [], [], [], 0, max(1, schofield._CHUNK // len(on)), 0
    for z in ends[:-1]:  # an array, as a list of one bound per mass costs as much as the box
        keys, a = by_mass[a:z][needed[by_mass[a:z]]], z
        top = box.coords(keys)[:, on]
        levels.append((keys, top))
        for lo, hi in _batches(np.prod(top + 1, axis=1), schofield._CHUNK):
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
            needed[cands] = True
    return levels, np.concatenate(counts), np.concatenate(edges), pe, neg, None


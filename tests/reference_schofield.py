"""Reference oracle: Schofield's recursion evaluated one candidate at a time.

This is how the package computed generic subdimensions before the
box-indexed table in quiver_cones.schofield: a memoized recursion over
dimension vectors, and per-point loops over box(alpha) for the inductive
normals and the I0 pairs.  It is slow and simple, and the differential tests
compare the table against it.  Vectors are plain tuples throughout.
"""

import itertools

import numpy as np


def euler_matrix(q):
    n = len(q.vertices)
    E = np.eye(n, dtype=np.int64)
    for _, t, h in q.arrows:
        E[q.vertex_index(t), q.vertex_index(h)] -= 1
    return E


def box(a):
    return itertools.product(*(range(v + 1) for v in a))


class RecursiveExtTable:
    def __init__(self, quiver):
        self.quiver = quiver
        self._euler = euler_matrix(quiver)
        self._subs = {}  # tuple(a) -> (S, M) with S rows the generic subdims, M = S @ E

    def euler(self, a, b):
        return int(np.asarray(a) @ self._euler @ np.asarray(b))

    def sub_matrices(self, key):
        """(S, M) for the generic subdimensions of key, in lexicographic order."""
        cached = self._subs.get(key)
        if cached is not None:
            return cached
        n = len(key)
        grids = np.meshgrid(*(np.arange(k + 1) for k in key), indexing="ij")
        allb = np.stack(grids, axis=-1).reshape(-1, n).astype(np.int64)
        rest = np.asarray(key, dtype=np.int64) - allb
        # necessary condition <b, key-b> >= 0 prunes most candidates cheaply
        eb = allb @ self._euler
        survivors = np.nonzero(np.einsum("ij,ij->i", eb, rest) >= 0)[0]
        total = sum(key)
        rows = []
        for i in survivors:
            b = tuple(int(v) for v in allb[i])
            s = sum(b)
            if s == 0 or s == total:
                rows.append(b)
                continue
            _, mb = self.sub_matrices(b)  # strictly smaller mass: terminates
            if int((mb @ rest[i]).min()) >= 0:
                rows.append(b)
        S = np.array(rows, dtype=np.int64)
        result = (S, S @ self._euler)
        self._subs[key] = result
        return result

    def ext(self, a, b):
        a, b = tuple(a), tuple(b)
        if sum(a) == 0 or sum(b) == 0:
            return 0
        _, M = self.sub_matrices(a)
        return max(0, -int((M @ np.asarray(b, dtype=np.int64)).min()))

    def generic_subdims(self, a):
        S, _ = self.sub_matrices(tuple(a))
        return [tuple(int(v) for v in row) for row in S]

    def circ_nonzero(self, a, b):
        return self.euler(a, b) == 0 and self.ext(a, b) == 0


def inductive_normals(ref, a):
    """All b <= a with b o (a - b) nonzero, lexicographic."""
    return [b for b in box(a) if ref.circ_nonzero(b, tuple(x - y for x, y in zip(a, b)))]


def iso_pairs(ref, a, inv):
    """The I0 pairs (beta, gamma) of a tau-symmetric a, lexicographic in beta."""
    q = ref.quiver
    perm = [q.vertex_index(inv.vertex(v)) for v in q.vertices]
    pairs = []
    for beta in box(a):
        tb = tuple(beta[p] for p in perm)
        if not all(x + y <= z for x, y, z in zip(beta, tb, a)):
            continue
        gamma = tuple(z - x - y for x, y, z in zip(beta, tb, a))
        if ref.circ_nonzero(beta, gamma) and ref.circ_nonzero(beta, tb):
            pairs.append((beta, gamma))
    return pairs


def disc_witness(ref, a, s):
    """The first generic subdimension of a, in canonical order, maximizing s."""
    best = max(ref.generic_subdims(a), key=lambda b: sum(x * y for x, y in zip(s, b)))
    return sum(x * y for x, y in zip(s, best)), best

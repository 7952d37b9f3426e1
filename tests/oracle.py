"""Brute-force oracle for generic hom/ext via random integer representations.

For representations V (dim a) and W (dim b), the linear map

    d(phi) = (phi(head) V(arrow) - W(arrow) phi(tail))_arrows

has kernel Hom(V, W) and cokernel Ext(V, W).  The generic values are the
minima over representations, attained at maximal rank of d, so sampling
random integer matrices and taking the best rank gives the generic hom and
ext simultaneously.  Ranks are computed exactly over rationals, or over F_p for a
large prime p: Schofield's criterion, and so the generic values, hold in every
characteristic (Crawley-Boevey, Bull. LMS 28, 1996).

The cone itself has an oracle that shares no code with the table: on the
triple-flag quiver T_n, membership is a Littlewood-Richardson coefficient
being nonzero (Derksen-Weyman, JAMS 13, 2000; Knutson-Tao, JAMS 12, 1999).

On every quiver, Derksen-Weyman's spanning theorem (same paper) and their
saturation theorem make every lattice point sigma of the cone of alpha a weight
<beta, .> with beta >= 0.  The Euler matrix is unitriangular in a topological
order, so beta = sigma E^-1 is unique and euler_inverse finds it by back
substitution: a beta with a negative entry proves sigma is no member.
"""

import itertools
import random
from fractions import Fraction

import numpy as np


def exact_rank(matrix):
    """Rank by fraction-exact Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank, rows, cols = 0, len(m), len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pr = m[rank]
        inv = 1 / pr[col]
        m[rank] = pr = [x * inv for x in pr]
        for r in range(rows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], pr)]
        rank += 1
        if rank == rows:
            break
    return rank


def rank_mod_p(matrix, p):
    """Rank over F_p, p < 2**31 prime, by int64 Gaussian elimination on residues:
    every residue is below 2**31, so every product stays below 2**62."""
    m = np.array(matrix, dtype=np.int64) % p
    if m.size == 0:
        return 0
    rank, (rows, cols) = 0, m.shape
    for col in range(cols):
        nonzero = np.flatnonzero(m[rank:, col])
        if nonzero.size == 0:
            continue
        pivot = rank + nonzero[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
        below = m[rank + 1:]
        below -= np.outer(below[:, col], m[rank])
        below %= p
        rank += 1
        if rank == rows:
            break
    return rank


def _d_matrix(q, a, b, V, W):
    """Matrix of d over the phi coordinates (vertex blocks in canonical order)."""
    av, bv = dict(zip(q.vertices, a)), dict(zip(q.vertices, b))
    offsets, off = {}, 0
    for x in q.vertices:
        offsets[x] = off
        off += av[x] * bv[x]
    ncols = off
    rows = []
    for aid, t, h in q.arrows:
        vm, wm = V[aid], W[aid]
        for r in range(bv[h]):
            for c in range(av[t]):
                row = [0] * ncols
                # phi(h)[r, k] picks up V[k][c]
                for k in range(av[h]):
                    row[offsets[h] + r * av[h] + k] += vm[k][c]
                # phi(t)[k, c] picks up -W[r][k]
                for k in range(bv[t]):
                    row[offsets[t] + k * av[t] + c] -= wm[r][k]
                rows.append(row)
    return rows, ncols, len(rows)


def _random_rep(q, dims, rng, lo, hi):
    dv = dict(zip(q.vertices, dims))
    return {
        aid: [[rng.randint(lo, hi) for _ in range(dv[t])] for _ in range(dv[h])]
        for aid, t, h in q.arrows
    }


def _best_rank_hom_ext(q, a, b, samples, seed, lo, hi, rank):
    mix = seed
    for v in tuple(a) + (-1,) + tuple(b):
        mix = mix * 1000003 + v + 11
    rng = random.Random(mix)
    best_rank = 0
    ncols = nrows = None
    for _ in range(samples):
        V = _random_rep(q, a, rng, lo, hi)
        W = _random_rep(q, b, rng, lo, hi)
        mat, ncols, nrows = _d_matrix(q, a, b, V, W)
        best_rank = max(best_rank, rank(mat))
    return ncols - best_rank, nrows - best_rank


def generic_hom_ext(q, a, b, samples=20, seed=12345):
    """(hom, ext) for dimension tuples a, b, minimized over random samples."""
    return _best_rank_hom_ext(q, a, b, samples, seed, -7, 7, exact_rank)


def generic_hom_ext_mod_p(q, a, b, p, samples=2, seed=12345):
    """(hom, ext) from representations with entries uniform in F_p, ranks over F_p."""
    return _best_rank_hom_ext(q, a, b, samples, seed, 0, p - 1, lambda m: rank_mod_p(m, p))


def euler_inverse(q, sigma):
    """The integer beta with <beta, .> = sigma (beta E = sigma, E the Euler matrix of q),
    by back substitution: sigma_v = beta_v - sum over arrows u -> v of beta_u, so each
    beta_v follows once the tails of the arrows into v are known."""
    into = {v: [u for _, u, h in q.arrows if h == v] for v in q.vertices}
    beta = {}
    while len(beta) < len(q.vertices):
        for v, s in zip(q.vertices, sigma):
            if v not in beta and all(u in beta for u in into[v]):
                beta[v] = s + sum(beta[u] for u in into[v])
    return tuple(beta[v] for v in q.vertices)


def vectors_of_mass(nvertices, mass):
    """All nonnegative integer vectors of given length and coordinate sum."""
    if nvertices == 1:
        yield (mass,)
        return
    for first in range(mass + 1):
        for rest in vectors_of_mass(nvertices - 1, mass - first):
            yield (first,) + rest


def all_pairs_up_to_mass(nvertices, total):
    """All (a, b) with |a| + |b| <= total."""
    for s in range(total + 1):
        for sa in range(s + 1):
            for a in vectors_of_mass(nvertices, sa):
                for b in vectors_of_mass(nvertices, s - sa):
                    yield a, b


def random_involution_quiver(rng, n):
    """(Q, tau): vertices v0..v(n-1) on a line, tau their reversal, and arrows i -> j
    (i < j, so Q is acyclic) drawn 0, 1 or 2 times each together with their images
    tau(j) -> tau(i).  An arrow with i + j = n - 1 is its own image on vertices: each
    copy is either fixed by tau or drawn with a parallel partner it is swapped with."""
    from quiver_cones import Involution, Quiver

    vertices = [f"v{i}" for i in range(n)]
    arrows, apairs = [], []

    def arrow(i, j):
        arrows.append((f"a{len(arrows)}", vertices[i], vertices[j]))
        return arrows[-1][0]

    for i, j in itertools.combinations(range(n), 2):
        image = (n - 1 - j, n - 1 - i)
        if image < (i, j):
            continue  # drawn with its image
        for _ in range(rng.randint(0, 2)):
            if image != (i, j):
                apairs.append((arrow(i, j), arrow(*image)))
            elif rng.random() < 0.5:
                apairs.append((arrow(i, j), arrow(i, j)))
            else:
                arrow(i, j)  # fixed
    q = Quiver(f"line{n}-{len(arrows)}", vertices, arrows)
    vpairs = [(v, vertices[n - 1 - i]) for i, v in enumerate(vertices)]
    return q, Involution.from_pairs(q, "tau", vpairs, apairs)


def triple_flag(n):
    """(T_n, beta(n)): three arms x, y, w, each x1 -> x2 -> ... -> x(n-1) -> z, and
    beta(n) with i at x_i and n at z; vertices arm by arm, z last."""
    from quiver_cones import Quiver

    arms = [[f"{arm}{i}" for i in range(1, n)] + ["z"] for arm in "xyw"]
    arrows = [(f"a{path[i]}", path[i], path[i + 1]) for path in arms for i in range(n - 1)]
    vertices = [v for path in arms for v in path[:-1]] + ["z"]
    return Quiver(f"T{n}", vertices, arrows), tuple(list(range(1, n)) * 3 + [n])


def _partitions(parts, bound, top):
    """Weakly decreasing tuples of that many entries, each <= top, summing to <= bound."""
    if parts == 0:
        yield ()
        return
    for first in range(min(bound, top) + 1):
        for rest in _partitions(parts - 1, bound - first, first):
            yield (first,) + rest


def lr_triples(n, bound):
    """(a, b, c, nu): partitions of n parts, the last 0, each of size <= bound, with
    |a| + |b| + |c| = n m and nu = (m - c_n, ..., m - c_1) >= 0."""
    partitions = [p + (0,) for p in _partitions(n - 1, bound, bound)]
    for a, b, c in itertools.product(partitions, repeat=3):
        m, rest = divmod(sum(a) + sum(b) + sum(c), n)
        if rest == 0 and m >= c[0]:
            yield a, b, c, tuple(m - x for x in reversed(c))


def lr_weight(n, a, b, c):
    """sigma on T_n (triple_flag order): a_i - a_(i+1) at x_i, likewise on y with b and
    on w with c, and -m at z; sigma is in the cone of beta(n) iff c^nu_{a,b} != 0."""
    m = (sum(a) + sum(b) + sum(c)) // n
    return tuple(p[i] - p[i + 1] for p in (a, b, c) for i in range(n - 1)) + (-m,)


def lr_coefficient(lam, mu, nu):
    """c^nu_{lam,mu}: the LR tableaux of shape nu/lam and content mu, by brute force.

    Cells are filled in reverse reading order, rows top to bottom and each row
    right to left: rows weakly increase, columns strictly increase, and every
    prefix of the reading word is a lattice word (no v + 1 read more often than v).
    """
    lam = tuple(lam) + (0,) * (len(nu) - len(lam))
    if len(lam) > len(nu) or sum(nu) != sum(lam) + sum(mu) or any(x > y for x, y in zip(lam, nu)):
        return 0
    mu = [x for x in mu if x]
    cells = [(r, col) for r in range(len(nu)) for col in reversed(range(lam[r], nu[r]))]
    entry, used = {}, [0] * len(mu)

    def fill(i):
        if i == len(cells):
            return 1
        r, col = cells[i]
        right, above = entry.get((r, col + 1)), entry.get((r - 1, col))
        found = 0
        for v in range(len(mu)):
            if used[v] == mu[v] or (v and used[v] == used[v - 1]):
                continue
            if (right is not None and v > right) or (above is not None and v <= above):
                continue
            entry[r, col] = v
            used[v] += 1
            found += fill(i + 1)
            used[v] -= 1
        entry.pop((r, col), None)
        return found

    return fill(0)

"""The box-indexed subdimension table against the recursive reference, its
input checks and its box budget."""

import inspect
import io
import itertools
import random
import textwrap
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import quiver_cones.quiver as quiver_module
from quiver_cones import (
    DimVector,
    ExtTable,
    Quiver,
    Weight,
    counts,
    enumerate_I0,
    make_d5hat,
    make_kronecker,
    make_line,
    make_sun,
    member_dw,
    member_inductive,
    serialize_quiver,
)
from quiver_cones import cli, schofield
from quiver_cones.errors import DimensionTooLargeError, ValueOverflowError

import reference_schofield as ref
import reference_table
from goldens import D5HAT_TABLE, SUN61_TABLE, SUN62_ROW
from oracle import triple_flag


def _listed(quiver_and_involution):
    q, inv = quiver_and_involution
    return q, [inv]


# (family, quiver, involutions, largest entry of a random alpha, alphas drawn)
ZOO = [
    ("line", *_listed(make_line(4)), 3, 8),
    ("kronecker", *_listed(make_kronecker(3)), 5, 8),
    ("sun4", *make_sun(2, 1), 3, 6),
    ("sun6", *make_sun(3, 1), 2, 6),
    ("d5hat", *_listed(make_d5hat()), 2, 6),
]


class _PerKeyTable(ExtTable):
    _build = reference_table.build_per_key


def _per_key_table(q, roots):
    t = _PerKeyTable(q)
    for a in roots:
        t.generic_subdims(a)
    return t


def _entries(t):
    """Every decided key -> its S_t as stored: the same set in the same (flat) order."""
    return {key: box.coords(buf[lo:hi]).tolist() for key, (box, buf, lo, hi) in t._subs.items()}


def _perm(q, inv):
    return [q.vertex_index(inv.vertex(v)) for v in q.vertices]


def _symmetrize(a, perm):
    return tuple(max(a[i], a[p]) for i, p in enumerate(perm))


@pytest.mark.parametrize("family, q, invs, hi, draws", ZOO, ids=[z[0] for z in ZOO])
def test_table_matches_recursion_on_zoo(family, q, invs, hi, draws):
    rng = random.Random(f"table-vs-recursion:{family}")
    t, oracle = ExtTable(q), ref.RecursiveExtTable(q)
    alphas = [tuple(rng.randint(0, hi) for _ in q.vertices) for _ in range(draws)]
    alphas += [_symmetrize(a, _perm(q, inv)) for a in alphas[:3] for inv in invs]
    for a in alphas:
        subs = [b.values for b in t.generic_subdims(a)]
        assert subs == oracle.generic_subdims(a), (family, a)  # n1 and the order
        normals = [b.values for b in t.inductive_normals(a)]
        ref_normals = ref.inductive_normals(oracle, a)
        assert normals == ref_normals, (family, a)  # n2
        for inv in invs:
            if _symmetrize(a, _perm(q, inv)) != a:
                continue
            betas = [beta.values for beta in t.iso_pairs(a, inv)]
            ref_pairs = ref.iso_pairs(oracle, a, inv)
            assert betas == [b for b, _ in ref_pairs], (family, a, inv.name)  # n3
            # iso_pairs filters the inductive normals; the oracle walks the box
            assert {b for b, _ in ref_pairs} <= set(ref_normals), (family, a, inv.name)


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_small_chunks_and_screens_match_recursion(monkeypatch, chunk):
    # tiny chunks push every key through the multi-chunk path and cut the keys
    # of one mass level into several batches, at most one key each at _CHUNK = 1
    monkeypatch.setattr(schofield, "_CHUNK", chunk)
    batches, cut = [], schofield._batches
    monkeypatch.setattr(schofield, "_batches", lambda *args: batches.append(list(cut(*args))) or batches[-1])
    q, inv = make_d5hat()
    t, oracle = ExtTable(q), ref.RecursiveExtTable(q)
    for a in [(1, 2, 3, 3, 2, 1), (2, 1, 2, 2, 1, 2), (0, 2, 1, 1, 2, 0)]:
        assert [b.values for b in t.generic_subdims(a)] == oracle.generic_subdims(a)
        assert [b.values for b in t.inductive_normals(a)] == ref.inductive_normals(oracle, a)
        betas = [beta.values for beta in t.iso_pairs(a, inv)]
        assert betas == [b for b, _ in ref.iso_pairs(oracle, a, inv)]
    wide = _wide_shallow_quiver(random.Random("small-chunks"), 0)
    sun62 = make_sun(3, 2)[0]
    # one wide quiver, Sun(6,2) at a small alpha, and two roots on one table
    for q, roots in [(wide, [(1,) * len(wide.vertices)]),
                     (sun62, [(1, 1, 0, 1) * 3]),
                     (sun62, [(1, 0) * 6, (1, 1) * 6])]:
        t, oracle = ExtTable(q), ref.RecursiveExtTable(q)
        for a in roots:
            assert [b.values for b in t.generic_subdims(a)] == oracle.generic_subdims(a), (q.name, a)
        assert _entries(t) == _entries(_per_key_table(q, roots)), (q.name, roots)
    if chunk == 1:
        assert all(hi - lo == 1 for batch in batches for lo, hi in batch)
    assert any(len(batch) > 1 for batch in batches)  # some level is cut


@pytest.mark.parametrize("case", ["d5hat", "sun6"])
def test_cold_counts_builds_the_table_once(monkeypatch, case):
    # n2 and every I0 test read the sets that the build of alpha decided; both
    # alphas have gcd 1, so alpha is built, not split
    if case == "d5hat":
        (q, inv), alpha = make_d5hat(), (2, 3, 4, 4, 3, 2)
        invs = [inv]
    else:
        (q, invs), alpha = make_sun(3, 1), (2, 2, 3, 2, 2, 3)
    roots, build = [], ExtTable._build
    monkeypatch.setattr(ExtTable, "_build", lambda self, root: roots.append(root) or build(self, root))
    counts(ExtTable(q), alpha, invs)
    assert roots == [alpha]


def test_a_key_root_is_read_not_built(monkeypatch, d5hat):
    # a root that an earlier build decided as a key is read from _subs; any other
    # root of gcd 1 is built in full, in its own box, and leaves every earlier entry as it was
    q, _ = d5hat
    roots, build = [], ExtTable._build
    monkeypatch.setattr(ExtTable, "_build", lambda self, root: roots.append(root) or build(self, root))
    t, first = ExtTable(q), (3, 4, 4, 4, 4, 4)
    subs = [b.values for b in t.generic_subdims(first)]
    before = dict(t._subs)
    keys = [subs[1], subs[len(subs) // 2], subs[-2]]
    assert all(key in before for key in keys)
    for key in keys:
        t.generic_subdims(key)
    assert roots == [first]
    nested = (5, 4, 4, 4, 4, 4)
    t.generic_subdims(nested)
    assert roots == [first, nested]
    assert _entries(t) == _entries(_per_key_table(q, [first, nested]))
    for key, (box, buf, lo, hi) in before.items():
        assert t._subs[key][0] is box and t._subs[key][1] is buf and t._subs[key][2:] == (lo, hi), key


@pytest.mark.parametrize("case", ["d5hat", "sun62", "d5hat4", "d5hat-partial", "kronecker3"])
def test_cold_counts_decides_few_keys(case):
    # which keys the build marks and which candidates it accepts: every answer
    # test still passes with the sub or the quotient tests of the closed-set
    # filter left out, these counts not; d5hat-partial has arrows through
    # vertices off supp(alpha), kronecker3 parallel arrows; every alpha is built:
    # kronecker3 is 4 (2, 3) with <(2, 3), (2, 3)> < 0, the others have gcd 1
    if case == "d5hat":
        (q, inv), alpha, keys, accepted = make_d5hat(), (2, 3, 4, 4, 3, 2), 382, 14_170
        invs = [inv]
    elif case == "d5hat4":
        (q, inv), alpha, keys, accepted = make_d5hat(), (3, 4, 4, 4, 4, 3), 1_290, 81_372
        invs = [inv]
    elif case == "d5hat-partial":
        (q, inv), alpha, keys, accepted = make_d5hat(), (2, 1, 0, 0, 1, 2), 36, 253
        invs = [inv]
    elif case == "kronecker3":
        (q, _), alpha, keys, accepted = make_kronecker(3), (8, 12), 49, 863
        invs = []
    else:
        (q, invs), alpha, keys, accepted = make_sun(3, 2), (1, 2) * 6, 673, 66_221
    t = ExtTable(q)
    counts(t, alpha, invs)
    assert len(t._subs) == keys
    assert sum(hi - lo - 2 for key, (_, _, lo, hi) in t._subs.items() if any(key)) == accepted
    # each key is decided once: the buffers hold the keys' sets and nothing else
    buffers = {id(buf): len(buf) for _, buf, _, _ in t._subs.values()}
    assert sum(buffers.values()) == sum(hi - lo for _, _, lo, hi in t._subs.values())


def test_closures_are_built_in_one_pass_over_the_arrows():
    # 2000 vertices: n rounds of n x n products would take minutes, and a box
    # of more than 64 dimensions must not go through np.indices
    q, _ = make_line(2000)
    start = time.perf_counter()
    t = ExtTable(q)
    a, b = [0] * 2000, [0] * 2000
    a[999] = b[1000] = 1  # the arrow a1000 runs from vertex 1000 to 1001
    assert t.ext(a, b) == 1
    assert time.perf_counter() - start < 5


def _random_acyclic_quiver(rng, index):
    n = rng.randint(2, 4)
    order = rng.sample(range(n), n)  # arrows run forward in this order
    arrows = []
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
                arrows.append((f"a{len(arrows)}", f"v{order[i]}", f"v{order[j]}"))
    return Quiver(f"R{index}", [f"v{i}" for i in range(n)], arrows)


@pytest.mark.parametrize("seed", range(6))
def test_ext_matches_recursion_on_random_quivers(seed):
    rng = random.Random(f"random-quiver:{seed}")
    q = _random_acyclic_quiver(rng, seed)
    t, oracle = ExtTable(q), ref.RecursiveExtTable(q)
    n = len(q.vertices)
    for _ in range(60):
        a = tuple(rng.randint(0, 3) for _ in range(n))
        b = tuple(rng.randint(0, 3) for _ in range(n))
        assert t.ext(a, b) == oracle.ext(a, b), (q.arrows, a, b)
    for _ in range(5):
        a = tuple(rng.randint(0, 3) for _ in range(n))
        assert [s.values for s in t.generic_subdims(a)] == oracle.generic_subdims(a)


def _wide_shallow_quiver(rng, index):
    n = rng.randint(8, 12)
    order = rng.sample(range(n), n)
    arrows = [(f"a{i}.{j}", f"v{order[i]}", f"v{order[j]}")
              for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
    return Quiver(f"W{index}", [f"v{i}" for i in range(n)], arrows)


@pytest.mark.parametrize("seed", range(6))
def test_table_matches_recursion_on_wide_shallow_quivers(seed):
    # 8 to 12 vertices, no parallel arrows, alpha in {0, 1}^n: many keys, each
    # with few subdimensions, and many vertices outside the support
    rng = random.Random(f"wide-shallow:{seed}")
    q = _wide_shallow_quiver(rng, seed)
    t, oracle = ExtTable(q), ref.RecursiveExtTable(q)
    n = len(q.vertices)
    for _ in range(6):
        a = tuple(rng.randint(0, 1) for _ in range(n))
        assert [s.values for s in t.generic_subdims(a)] == oracle.generic_subdims(a), (q.arrows, a)
        assert [s.values for s in t.inductive_normals(a)] == ref.inductive_normals(oracle, a)
    for _ in range(40):
        a = tuple(rng.randint(0, 1) for _ in range(n))
        b = tuple(rng.randint(0, 1) for _ in range(n))
        assert t.ext(a, b) == oracle.ext(a, b), (q.arrows, a, b)


GOLDEN_ROOTS = [
    ("d5hat", make_d5hat()[0], [row[0] for row in D5HAT_TABLE]),
    ("sun61", make_sun(3, 1)[0], [row[0] for row in SUN61_TABLE]),
    ("sun62", make_sun(3, 2)[0], [SUN62_ROW[0]]),
]


@pytest.mark.parametrize("family, q, roots", GOLDEN_ROOTS, ids=[g[0] for g in GOLDEN_ROOTS])
def test_batched_build_matches_per_key_build_on_goldens(family, q, roots):
    # every _subs entry, key set and S_t in flat order, against the build that
    # decides one key at a time: each golden alpha on a cold table, then all of
    # them on one table, where each later root is built in its own box or, if
    # an earlier build decided it as a key, read
    for a in roots:
        t = ExtTable(q)
        t.generic_subdims(a)
        assert _entries(t) == _entries(_per_key_table(q, [a])), (family, a)
    t = ExtTable(q)
    for a in roots:
        t.generic_subdims(a)
    assert _entries(t) == _entries(_per_key_table(q, roots)), family


@pytest.mark.parametrize("seed", range(8))
def test_batched_build_matches_per_key_build_on_random_quivers(seed):
    # random acyclic quivers with 2 to 4 vertices and wide, shallow ones with 8
    # to 12, several roots on one table
    rng = random.Random(f"batched-vs-per-key:{seed}")
    if seed % 2:
        q, hi = _wide_shallow_quiver(rng, seed), 1
    else:
        q, hi = _random_acyclic_quiver(rng, seed), 3
    roots = [tuple(rng.randint(0, hi) for _ in q.vertices) for _ in range(5)]
    t = ExtTable(q)
    for a in roots:
        t.generic_subdims(a)
    assert _entries(t) == _entries(_per_key_table(q, roots)), (q.arrows, roots)


def _cold_entries(monkeypatch, q, roots, candidates):
    """Each root built on a cold table with candidates as the enumeration: its entries, and
    the arguments and result of every enumeration call."""
    calls = []

    def recorded(*args):
        found = candidates(*args)
        calls.append((args, found))
        return found

    monkeypatch.setattr(schofield, "_candidates", recorded)
    entries = {}
    for a in roots:
        t = ExtTable(q)
        t.generic_subdims(a)
        entries[a] = _entries(t)
    return entries, calls


def _check_against_the_grid(monkeypatch, q, roots, candidates):
    # each batch's (owner, b) pairs are among those of the full grid with <b, t - b> >= 0
    # on the same keys, and each root decides the same keys with the same S_t
    entries, calls = _cold_entries(monkeypatch, q, roots, candidates)
    expected, _ = _cold_entries(monkeypatch, q, roots, reference_table.grid_candidates)
    for args, (idx, own) in calls:
        ref_idx, ref_own = reference_table.grid_candidates(*args)
        assert np.isin(own << 32 | idx, ref_own << 32 | ref_idx).all(), (q.name, args[0].tolist())
    for a in roots:
        assert entries[a].keys() == expected[a].keys(), (q.name, a)
        assert entries[a] == expected[a], (q.name, a)


def _prefix_cases():
    yield "d5hat", make_d5hat()[0], [row[0] for row in D5HAT_TABLE]
    yield "sun61", make_sun(3, 1)[0], [row[0] for row in SUN61_TABLE]
    yield "sun62", make_sun(3, 2)[0], [SUN62_ROW[0]]
    yield "kronecker", make_kronecker(3)[0], [(8, 12), (12, 8), (5, 5)]
    for seed in range(6):
        rng = random.Random(f"prefix-test:{seed}")
        q = _random_acyclic_quiver(rng, seed)
        yield q.name, q, [tuple(rng.randint(0, 3) for _ in q.vertices) for _ in range(3)]
        q = _wide_shallow_quiver(rng, seed)
        yield q.name, q, [tuple(rng.randint(0, 1) for _ in q.vertices) for _ in range(3)]


PREFIX_CASES = list(_prefix_cases())


@pytest.mark.parametrize("name, q, roots", PREFIX_CASES, ids=[c[0] for c in PREFIX_CASES])
def test_prefix_enumeration_matches_the_grid(monkeypatch, name, q, roots):
    _check_against_the_grid(monkeypatch, q, roots, schofield._candidates)


@pytest.mark.parametrize("name", ["d5hat", "sun61", "kronecker"])
def test_sources_first_fails_the_grid_check(monkeypatch, name):
    # planted fault: the axes taken sources first; such a prefix
    # is closed under arrow tails, not heads, and its test drops generic subdimensions
    _, q, roots = next(case for case in PREFIX_CASES if case[0] == name)
    enumerate_ = schofield._candidates

    def sources_first(tops, w, strides, slack, axes):
        return enumerate_(tops, w, strides, slack, axes[::-1])

    with pytest.raises(AssertionError):
        _check_against_the_grid(monkeypatch, q, roots, sources_first)


def _check_candidate_order(monkeypatch, q, roots, candidates):
    """Each enumeration's (owner, flat) pairs strictly increase; returns its owner counts."""
    _, calls = _cold_entries(monkeypatch, q, roots, candidates)
    for args, (idx, own) in calls:
        key = own.astype(np.int64) << 32 | idx
        assert (key[1:] > key[:-1]).all(), (q.name, args[0].tolist())
    return [len(np.unique(own)) for _, (_, own) in calls]


ORDER_CASES = [("d5hat", make_d5hat()[0], [row[0] for row in D5HAT_TABLE]),
               ("sun61", make_sun(3, 1)[0], [row[0] for row in SUN61_TABLE]),
               ("sun62", make_sun(3, 2)[0], [SUN62_ROW[0]]),
               ("thin", make_d5hat()[0], [(300, 0, 0, 0, 0, 0)])]


@pytest.mark.parametrize("name, q, roots", ORDER_CASES, ids=[c[0] for c in ORDER_CASES])
def test_candidates_come_in_owner_then_flat_order(monkeypatch, name, q, roots):
    # the push reads each owner's candidates as one run, in flat order; a thin box
    # has one owner on one axis per batch, whose grid needs no sort
    owners = _check_candidate_order(monkeypatch, q, roots, schofield._candidates)
    assert max(owners) == 1 if name == "thin" else max(owners) > 1


@pytest.mark.parametrize("name", ["d5hat", "sun61", "sun62"])
def test_never_sorting_fails_the_order_check(monkeypatch, name):
    # planted fault: the candidates left in the order the step-major grid walks them,
    # the last axis slowest and the owner fastest
    _, q, roots = next(case for case in ORDER_CASES if case[0] == name)
    enumerate_ = schofield._candidates

    def never_sorted(tops, w, strides, slack, axes):
        idx, own = enumerate_(tops, w, strides, slack, axes)
        steps = [idx // strides[a] % (tops[:, a].max() + 1) for a in axes]
        order = np.lexsort([own, *steps])  # the last key is the primary one
        return idx[order], own[order]

    with pytest.raises(AssertionError):
        _check_candidate_order(monkeypatch, q, roots, never_sorted)


@pytest.mark.parametrize("q", [make_line(5)[0], make_kronecker(3)[0], make_d5hat()[0],
                               *(make_sun(k, n)[0] for k in (2, 3) for n in (1, 2)),
                               *(_random_acyclic_quiver(random.Random(f"random-quiver:{s}"), s) for s in range(6)),
                               *(_wide_shallow_quiver(random.Random(f"wide-shallow:{s}"), s) for s in range(6))],
                         ids=lambda q: q.name)
def test_every_prefix_of_the_sinks_first_order_is_closed_under_heads(monkeypatch, q):
    # on every support: the order a build reads, restricted to it, and the axes it enumerates
    order, n = ExtTable(q)._sinks_first, len(q.vertices)
    rng = random.Random(f"sinks-first:{q.name}")
    supports = [set(s) for k in range(n + 1) for s in itertools.combinations(range(n), k)] if n <= 8 else \
        [{v for v in range(n) if rng.random() < 0.6} for _ in range(300)]
    arrows = [(q.vertex_index(t), q.vertex_index(h)) for _, t, h in q.arrows]
    for support in supports:
        axes = [v for v in order if v in support]
        for k in range(len(axes) + 1):
            prefix = set(axes[:k])
            assert all(h in prefix for t, h in arrows if t in prefix and h in support), (support, axes[:k])
    for support in supports[-8:]:
        on = sorted(support)
        _, calls = _cold_entries(monkeypatch, q, [tuple(int(v in support) for v in range(n))],
                                 schofield._candidates)
        for axes in (args[-1] for args, _ in calls):
            assert sorted(on[a] for a in axes) == on
            for k in range(len(axes)):
                prefix = {on[b] for b in axes[:k + 1]}
                assert all(h in prefix for t, h in arrows if t in prefix and h in support), (on, axes)


@pytest.mark.parametrize("case", ["d5hat", "sun62"])
def test_subdimensions_are_transitive_on_every_key(case):
    # b -> b' -> t implies b -> t, so S_b is inside S_t for every b in S_t; the
    # table decides each key on its own, so this checks the keys against each other
    if case == "d5hat":
        q, alpha = make_d5hat()[0], (3, 4, 4, 4, 4, 3)
    else:
        q, alpha = make_sun(3, 2)[0], (1, 2) * 6
    t = ExtTable(q)
    t.generic_subdims(alpha)
    root = schofield._Box(alpha)
    subs = {int(np.asarray(key) @ root.strides): box.coords(buf[lo:hi]) @ root.strides
            for key, (box, buf, lo, hi) in t._subs.items()}
    assert len(subs) == len(t._subs) > 600
    for key, rows in subs.items():
        member = np.zeros(root.size, dtype=bool)
        member[rows] = True
        assert member[np.concatenate([subs[int(b)] for b in rows])].all(), key


@pytest.mark.parametrize("case", ["d5hat", "sun6"])
def test_disc_witness_is_first_maximizer(case):
    if case == "d5hat":
        q, _ = make_d5hat()
        alpha = (2, 3, 4, 4, 3, 2)
    else:
        q, _ = make_sun(3, 1)
        alpha = (2, 2, 2, 2, 2, 2)
    t, oracle = ExtTable(q), ref.RecursiveExtTable(q)
    rng = random.Random(f"disc-witness:{case}")
    for _ in range(200):
        s = tuple(rng.randint(-4, 4) for _ in q.vertices)
        val, witness = t.disc_witness(alpha, Weight(q, s))
        assert (val, witness.values) == ref.disc_witness(oracle, alpha, s)
        assert val == t.disc(alpha, Weight(q, s))


def test_raw_tuples_are_validated(d5hat_table):
    t = d5hat_table
    with pytest.raises(ValueError, match="negative"):
        t.ext((1, 0, 0, 0, 0, 0), (0, 0, -1, 0, 0, 0))
    with pytest.raises(ValueError, match="negative"):
        t.generic_subdims((1, -1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="length"):
        t.ext((1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="length"):
        t.is_generic_subdim((1, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="length"):
        t.disc((1, 1, 1, 1, 1, 1), (1, -1))
    with pytest.raises(ValueError, match="length"):
        t.disc_witness((1, 1, 1, 1, 1, 1), (1, -1))


def test_box_budget_is_checked_before_building(monkeypatch):
    # (5, 4, 4, 4, 4, 5) has gcd 1 and is tau-symmetric, so each call builds it, and its box
    # of 6**2 * 5**4 points is past the budget
    q, inv = make_d5hat()
    monkeypatch.setattr(schofield, "_MAX_BOX_POINTS", 5**6 - 1)
    t = ExtTable(q)
    alpha, keys = (5, 4, 4, 4, 4, 5), len(t._subs)
    for call in (lambda: t.generic_subdims(alpha),
                 lambda: t.ext(alpha, (1,) * 6),
                 lambda: t.iso_pairs(alpha, inv)):
        with pytest.raises(DimensionTooLargeError, match="points, above the budget"):
            call()
    assert len(t._subs) == keys
    assert len(t.generic_subdims((3, 4, 4, 4, 4, 4))) > 0  # 4 * 5**5 points fit


def test_a_sum_of_copies_needs_no_box_budget(monkeypatch):
    # (4)^6 = 4 (1)^6 is a sum of copies of S_(1)^6, which allocates nothing box-sized: it answers
    # under a budget that its box of 5**6 points does not fit (where a build would refuse), with
    # the S and the I0 betas that a build of (4)^6 decides at the default budget
    q, inv = make_d5hat()
    alpha, built = (4,) * 6, ExtTable(q)
    built._build(alpha)
    betas = built.iso_pairs(alpha, inv)  # read off the build, alpha being a key
    monkeypatch.setattr(schofield, "_MAX_BOX_POINTS", 5**6 - 1)
    t = ExtTable(q)
    S = t._subdim_rows(alpha).tolist()
    assert len(S) == 406 and S == built._rows(alpha).tolist()
    assert t.iso_pairs(alpha, inv) == betas


def test_a_box_past_the_int64_strides_is_refused_by_the_build(monkeypatch):
    # (500)^10 on the line A10 is 500 (1)^10 with <delta, delta> = 1 and a least pair count within
    # the budget; but box(alpha) has 501**10 >= 2**63 points, where the int64 strides wrap, so no
    # sum is tried (nor delta decided for one): the build decides alpha and refuses its box
    roots, build = [], ExtTable._build
    monkeypatch.setattr(ExtTable, "_build", lambda self, root: roots.append(root) or build(self, root))
    t, alpha = ExtTable(make_line(10)[0]), (500,) * 10
    with pytest.raises(DimensionTooLargeError, match=f"has {501**10} points, above the budget"):
        t.generic_subdims(alpha)
    assert roots == [alpha] and (1,) * 10 not in t._subs


def test_candidate_budget_is_checked_while_marking(monkeypatch, tmp_path, d5hat):
    # no arrow joins two vertices of the support: every point is a candidate of every larger
    # one; gcd 1, so the root is built (a multiple of e_1 would be a sum of copies of S_e1)
    q, inv = d5hat
    monkeypatch.setattr(schofield, "_MAX_CANDIDATES", 10_000)
    t = ExtTable(q)
    keys = len(t._subs)
    with pytest.raises(DimensionTooLargeError, match="marks over"):
        t.generic_subdims((2000, 0, 0, 0, 0, 1))
    assert len(t._subs) == keys  # a failed build stores nothing
    assert len(t.generic_subdims((2, 2, 2, 2, 2, 2))) == 43
    path = tmp_path / "d5hat.quiver"
    path.write_text(serialize_quiver(q, [inv]))
    code, out, err = _run_cli(["counts", str(path), "--alpha", "x1=2000,x6=1"])
    assert (code, out) == (2, "") and "marks over" in err


@pytest.mark.parametrize("budget, fits", [(300 * 299 // 2, True), (300 * 299 // 2 - 1, False)])
def test_candidate_budget_counts_each_candidate_once(monkeypatch, d5hat, budget, fits):
    # (300, 0, ..., 0) marks exactly 300 * 299 / 2 candidates: b < t on x1, neither 0
    # nor t itself; the budget counts them, not the grid points or the stored edges.  Its
    # sum of copies of S_e1 forms 300 * 301 - 2 pairs, past either budget, so the build decides
    monkeypatch.setattr(schofield, "_MAX_CANDIDATES", budget)
    t = ExtTable(d5hat[0])
    if fits:
        assert len(t.generic_subdims((300, 0, 0, 0, 0, 0))) == 301
    else:
        with pytest.raises(DimensionTooLargeError, match="marks over"):
            t.generic_subdims((300, 0, 0, 0, 0, 0))


def test_gate_rejects_foreign_and_oversized_vectors(d5hat_table, sun31):
    t, (other, _) = d5hat_table, sun31
    a = (1, 1, 1, 1, 1, 1)
    for call in (lambda: t.ext(DimVector(other, a), a),
                 lambda: t.ext(a, DimVector(other, a)),
                 lambda: t.disc(DimVector(other, a), a),
                 lambda: t.disc(a, Weight(other, a))):
        with pytest.raises(ValueError, match="bound to a different quiver"):
            call()
    big = (2**20, 0, 0, 0, 0, 0)
    for call in (lambda: t.ext(big, a), lambda: t.disc(a, big),
                 lambda: t.disc(a, Weight(t.quiver, (-(2**20), 0, 0, 0, 0, 0)))):
        with pytest.raises(ValueOverflowError, match="entries too large"):
            call()


def test_wrong_kind_vectors_raise_type_error(d5hat_table):
    # a DimVector where a Weight belongs (or back) is not read by position
    t = d5hat_table
    q = t.quiver
    alpha, sigma = DimVector(q, (2, 3, 4, 4, 3, 2)), Weight(q, (1, 0, 0, 0, 0, -1))
    assert member_dw(t, sigma, alpha)  # the right order is a member
    for call in (lambda: member_dw(t, alpha, sigma), lambda: member_inductive(t, alpha, sigma),
                 lambda: t.generic_subdims(sigma), lambda: t.disc(alpha, alpha)):
        with pytest.raises(TypeError, match="expected a (DimVector|Weight), got a"):
            call()


# (300, 0, ..., 0, 1) marks every nonzero point t = (a, 0, ..., 0, e) of its box as a key, with
# (a + 1)(e + 1) - 2 candidates each: a - 1 at e = 0, 2a at e = 1
THIN_CANDIDATES = 300 * 299 // 2 + 300 * 301


def test_thin_box_tests_each_candidate_against_zero_alone(monkeypatch, d5hat):
    # at (300, 0, ..., 0, 1) every c = t - b lives on x1 and x6, joined by no arrow, where
    # each <s, .> is s_1 c_1 + s_6 c_6 >= 0, so no row of S_b has a negative entry that
    # counts: no product is formed, and each candidate is accepted against 0 alone
    products, check = [], schofield._nonneg_columns

    def recorded(rows, cols):
        products.append(rows.shape)
        return check(rows, cols)

    monkeypatch.setattr(schofield, "_nonneg_columns", recorded)
    q, _ = d5hat
    t = ExtTable(q)
    assert len(t.generic_subdims((300, 0, 0, 0, 0, 1))) == 602
    assert products == []
    keys = [key for key in t._subs if any(key)]
    assert len(keys) == 601
    edges = sum(hi - lo - 2 for _, _, lo, hi in (t._subs[key] for key in keys))
    assert edges == THIN_CANDIDATES


def test_sum_past_its_budget_falls_back_to_the_build(monkeypatch, d5hat):
    # 300 e_1 is the sum of 300 copies of S_e1 = {0, e_1}: step j forms (j + 1) * 2 pairs,
    # 300 * 301 - 2 over the 299 steps, which the bound checked first counts exactly; one pair
    # fewer and the build decides the root, with its own 300 * 299 / 2 candidates, to the same S
    q, _ = d5hat
    alpha, pairs = (300, 0, 0, 0, 0, 0), 300 * 301 - 2
    roots, build = [], ExtTable._build
    monkeypatch.setattr(ExtTable, "_build", lambda self, root: roots.append(root) or build(self, root))
    monkeypatch.setattr(schofield, "_MAX_CANDIDATES", pairs)
    S = ExtTable(q).generic_subdims(alpha)
    assert len(S) == 301 and alpha not in roots
    monkeypatch.setattr(schofield, "_MAX_CANDIDATES", pairs - 1)
    assert ExtTable(q).generic_subdims(alpha) == S and roots[-1] == alpha
    # (3)^6 from S_(1)^6 of 9 rows: the bound is 9 * (8 * 3 + 2) = 234 pairs, the steps form
    # 9 * 9 + 43 * 9 = 468, counted before each step; one fewer and the build takes (3)^6,
    # which marks far more candidates than that
    alpha = (3,) * 6
    monkeypatch.setattr(schofield, "_MAX_CANDIDATES", 468)
    assert len(ExtTable(q).generic_subdims(alpha)) == 147 and alpha not in roots
    monkeypatch.setattr(schofield, "_MAX_CANDIDATES", 467)
    t = ExtTable(q)
    with pytest.raises(DimensionTooLargeError, match="marks over"):
        t.generic_subdims(alpha)
    assert roots[-1] == alpha and alpha not in t._subs and (1,) * 6 in t._subs


def _built(q, alpha):
    """S_alpha from ExtTable._build on a fresh table."""
    t = ExtTable(q)
    t._build(alpha)
    return t._rows(alpha).tolist()


def _check_split(monkeypatch, table, q, alpha):
    # alpha = g delta with ext(delta, delta) = 0 is decided from S_delta alone, with no build
    # of alpha, and its S is the one the build of alpha decides
    roots, build = [], ExtTable._build
    monkeypatch.setattr(ExtTable, "_build", lambda self, root: roots.append(root) or build(self, root))
    S = table(q)._subdim_rows(alpha).tolist()
    assert roots and alpha not in roots
    assert S == _built(q, alpha), (q.name, alpha)


SPLIT_CASES = [
    *((make_d5hat()[0], (k,) * 6) for k in range(2, 6)),
    (make_d5hat()[0], (2, 2, 4, 4, 2, 2)),
    *((make_sun(3, 1)[0], (k,) * 6) for k in range(2, 5)),
    (make_kronecker(2)[0], (7, 7)),
    (make_kronecker(2)[0], (6, 12)),
    (make_d5hat()[0], (300, 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("q, alpha", SPLIT_CASES, ids=lambda x: x.name if isinstance(x, Quiver) else
                         ",".join(map(str, x)))
def test_split_matches_the_build(monkeypatch, q, alpha):
    _check_split(monkeypatch, ExtTable, q, alpha)


def test_a_split_without_the_ext_test_fails(monkeypatch):
    # Theta3 with an isolated vertex v at (2, 2, 2) = 2 delta: <delta, delta> = 3 - 3 = 0, so the
    # sign test lets delta through, but ext(delta, delta) = 1 and alpha is built; planted fault:
    # a split that skips the ext test sums two copies of S_delta, 18 rows against 15
    q, alpha = Quiver("Theta3v", ["s", "t", "v"], [(f"a{i}", "s", "t") for i in range(1, 4)]), (2, 2, 2)
    t = ExtTable(q)
    assert t.ext((1, 1, 1), (1, 1, 1)) == 1
    assert [b.values for b in t.generic_subdims(alpha)] == ref.RecursiveExtTable(q).generic_subdims(alpha)
    assert len(_built(q, alpha)) == 15
    source = textwrap.dedent(inspect.getsource(schofield.ExtTable._decide))
    planted = source.replace("if (S @ Ed).min() < 0:", "if False:")
    assert planted != source
    scope = {}
    exec(planted, vars(schofield), scope)

    class Unchecked(ExtTable):
        _decide = scope["_decide"]

    assert len(Unchecked(q)._subdim_rows(alpha)) == 18
    with pytest.raises(AssertionError):
        _check_split(monkeypatch, Unchecked, q, alpha)


def test_a_multiple_of_delta_builds_delta_alone(monkeypatch, d5hat):
    # (4)^6 = 4 (1)^6 with ext((1)^6, (1)^6) = 0: S_alpha is a sum of copies of S_delta, and
    # every I0 beta is a key of the build of delta, so nothing above (1)^6 is built
    q, inv = d5hat
    roots, build = [], ExtTable._build
    monkeypatch.setattr(ExtTable, "_build", lambda self, root: roots.append(root) or build(self, root))
    t = ExtTable(q)
    assert counts(t, (4,) * 6, [inv]) == (406, 9, [5])
    assert roots == [(1,) * 6]
    assert len(t._subs) == 14


@pytest.mark.parametrize("case", ["d5hat-tau", "sun61-tau", "sun61-rho"])
def test_i0_of_a_split_alpha_matches_recursion(case):
    # iso_pairs decides each beta that is not yet a key, as a split alpha marks none
    if case == "d5hat-tau":
        (q, inv), alpha = make_d5hat(), (4,) * 6
    else:
        (q, invs), alpha = make_sun(3, 1), (3,) * 6
        inv = next(inv for inv in invs if inv.name == case.split("-")[1])
    betas = [b.values for b in ExtTable(q).iso_pairs(alpha, inv)]
    assert betas == [b for b, _ in ref.iso_pairs(ref.RecursiveExtTable(q), alpha, inv)]


def _check_row_mask(monkeypatch, table):
    # only the s of S_b with a negative entry on the support can make <s, t - b>
    # negative, and only they enter a push product, in cold builds of two roots
    products, check = [], schofield._nonneg_columns

    def recorded(rows, cols):
        products.append(rows)
        return check(rows, cols)

    monkeypatch.setattr(schofield, "_nonneg_columns", recorded)
    for q, alpha in [(make_d5hat()[0], (4,) * 6), (make_sun(3, 2)[0], (1, 2) * 6)]:
        table(q).generic_subdims(alpha)
    assert products
    for rows in products:
        assert (rows < 0).any(axis=0).all(), rows.shape


def test_push_products_hold_only_rows_with_a_negative_entry(monkeypatch):
    _check_row_mask(monkeypatch, ExtTable)


def test_every_accepted_row_fails_the_row_mask_check(monkeypatch):
    # planted fault: every accepted row of each S_b in the product; the sets stay
    # the same (a row with no negative entry cannot reject), only the work grows
    source = textwrap.dedent(inspect.getsource(schofield.ExtTable._build))
    planted = source.replace("accepted[a:z] & neg.take(tail[a:z])", "accepted[a:z].copy()")
    assert planted != source
    scope = {}
    exec(planted, vars(schofield), scope)  # the module's globals, so the recorder is read

    class Wasteful(ExtTable):
        _build = scope["_build"]

    with pytest.raises(AssertionError):
        _check_row_mask(monkeypatch, Wasteful)


def test_nested_root_on_one_table_matches_recursion(d5hat):
    # (0, 0, 1, 2, 0, 1) is built first, on x3, x4, x6; the next root's build
    # decides those keys again in its own box, on the full support, where the rows
    # with s_4 > 0 are negative on x5 too and must enter the push product, or a b
    # that is no generic subdimension of its key is kept
    q, _ = d5hat
    t, oracle = ExtTable(q), ref.RecursiveExtTable(q)
    t.generic_subdims((0, 0, 1, 2, 0, 1))
    root = (1, 1, 1, 4, 1, 1)
    assert [b.values for b in t.generic_subdims(root)] == oracle.generic_subdims(root)


@pytest.mark.parametrize("case", ["d5hat-tau", "sun61-tau", "sun61-rho"])
def test_i0_reads_betas_that_an_earlier_build_decided(case):
    # the last I0 beta of alpha is built first, in its own box; alpha's build keeps
    # those keys' entries, so the segmented minimum of iso_pairs reads S_beta from
    # two buffers, each with its own box
    if case == "d5hat-tau":
        (q, inv), alpha = make_d5hat(), (2, 3, 4, 4, 3, 2)
    else:
        (q, invs), alpha = make_sun(3, 1), (2,) * 6
        inv = next(inv for inv in invs if inv.name == case.split("-")[1])
    first = ExtTable(q).iso_pairs(alpha, inv)[-1].values
    t = ExtTable(q)
    t.generic_subdims(first)
    betas = t.iso_pairs(alpha, inv)
    buffer = t._subs[alpha][1]
    assert any(any(b.values) and t._subs[b.values][1] is not buffer for b in betas)
    oracle = ref.RecursiveExtTable(q)
    assert [b.values for b in betas] == [b for b, _ in ref.iso_pairs(oracle, alpha, inv)]
    # every read returns the one shared tuple
    assert t.iso_pairs(alpha, inv) is betas and enumerate_I0(t, alpha, inv) is betas
    assert t.inductive_normals(alpha) is t.inductive_normals(DimVector(q, alpha))
    assert [b.values for b in t.inductive_normals(alpha)] == ref.inductive_normals(oracle, alpha)


def test_int64_bound_is_checked(d5hat):
    q, _ = d5hat
    t = ExtTable(q)
    t._multiplicity = 2**58  # as if the quiver had that many parallel arrows
    with pytest.raises(ValueOverflowError):
        t.generic_subdims((1,) * 6)  # (1 + m) * 6**2 >= 2**63
    with pytest.raises(ValueOverflowError, match="int64"):
        t.ext((1,) * 6, (1,) * 6)  # refused by the read's bound, before the build's float64 one
    assert t.ext((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)) == 1  # (1 + m) * 1 * 1 fits


def test_float64_bound_is_checked_before_the_box(monkeypatch, tmp_path, d5hat):
    # a build's products are exact in float64 only below 2**53, a tighter bound
    # than the int64 one of the reads
    q, _ = d5hat
    t = ExtTable(q)
    t._multiplicity = 2**50  # as if the quiver had that many parallel arrows
    assert 2**53 <= (1 + t._multiplicity) * 6**2 < 2**63
    boxes, box = [], schofield._Box
    monkeypatch.setattr(schofield, "_Box", lambda root: boxes.append(root) or box(root))
    with pytest.raises(ValueOverflowError, match="float64"):
        t.generic_subdims((1,) * 6)
    assert boxes == []  # refused before the build allocates
    assert t.ext((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)) == 1  # (1 + m) * 1 * 1 fits, and the reads are int64
    # a real quiver past the bound: 2048 parallel arrows at the largest entries, from the CLI
    path = tmp_path / "kronecker.quiver"
    path.write_text(serialize_quiver(make_kronecker(2048)[0], []))
    boxes.clear()
    code, out, err = _run_cli(["counts", str(path), "--alpha", f"s={2**20 - 1},t={2**20 - 1}"])
    assert (code, out) == (2, "") and "float64" in err
    assert boxes == [(0, 0)]  # the new table's zero key alone


def test_no_float_reaches_an_answer(d5hat):
    # the build computes in float64; what it stores and every read stay integer
    q, inv = d5hat
    t = ExtTable(q)
    alpha = (2, 3, 4, 4, 3, 2)
    S = t._subdim_rows(alpha)
    assert S.dtype == np.int64
    sigma = Weight(q, (1, 0, 0, 0, 0, -1))
    for value in (t.ext(alpha, (1,) * 6), t.hom(alpha, (1,) * 6), t.disc(alpha, sigma)):
        assert type(value) is int
    assert all(np.issubdtype(buf.dtype, np.integer) for _, buf, _, _ in t._subs.values())
    normals = [*t.inductive_normals(alpha), *t.iso_pairs(alpha, inv)]
    assert normals and all(type(x) is int for b in normals for x in b.values)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_reports_resource_limits_with_exit_2(tmp_path, monkeypatch):
    q, inv = make_d5hat()
    path = tmp_path / "d5hat.quiver"
    path.write_text(serialize_quiver(q, [inv]))
    argv = ["counts", str(path), "--alpha", "x1=40,x2=40,x3=40,x4=40,x5=40,x6=40"]
    code, out, err = _run_cli(argv)
    assert (code, out) == (2, "") and "budget" in err

    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "counts", exhausted)
    code, out, err = _run_cli(["counts", str(path), "--alpha", "x1=1"])
    assert (code, out) == (2, "") and "out of memory" in err


def test_keys_are_shared_across_roots(d5hat):
    q, _ = d5hat
    shared, oracle = ExtTable(q), ref.RecursiveExtTable(q)
    rng = random.Random("shared-keys")
    for _ in range(40):
        a = tuple(rng.randint(0, 2) for _ in q.vertices)
        assert [b.values for b in shared.generic_subdims(a)] == oracle.generic_subdims(a)
    assert [b.values for b in shared.generic_subdims((2, 2, 2, 2, 2, 2))] == \
        [b.values for b in ExtTable(q).generic_subdims(DimVector(q, (2,) * 6))]


def _quivers_with_orders():
    """Every zoo family, the triple-flag quivers and the seeded random quivers above."""
    yield from (make_line(n)[0] for n in range(1, 6))
    yield from (make_kronecker(n)[0] for n in range(1, 4))
    yield from (make_sun(k, n)[0] for k in range(2, 5) for n in range(1, 4))
    yield make_d5hat()[0]
    yield from (triple_flag(n)[0] for n in (3, 4))
    for seed in range(6):
        yield _random_acyclic_quiver(random.Random(f"random-quiver:{seed}"), seed)
        yield _wide_shallow_quiver(random.Random(f"wide-shallow:{seed}"), seed)


@pytest.mark.parametrize("q", _quivers_with_orders(), ids=lambda q: q.name)
def test_quiver_keeps_a_topological_order(q):
    pos = {v: i for i, v in enumerate(q._order)}
    assert sorted(pos) == sorted(q.vertices) and len(q._order) == len(q.vertices)
    assert all(pos[t] < pos[h] for _, t, h in q.arrows)


@pytest.mark.parametrize("q", _quivers_with_orders(), ids=lambda q: q.name)
def test_reach_is_the_transitive_closure(q):
    # against a naive transitive closure (Floyd-Warshall)
    n, idx = len(q.vertices), q.vertex_index
    reach = np.eye(n, dtype=bool)
    for _, t, h in q.arrows:
        reach[idx(t), idx(h)] = True
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k])
    assert (ExtTable(q)._reach == reach).all()


def _count_sorts(monkeypatch):
    made = []

    class Spy(quiver_module.TopologicalSorter):
        def __init__(self, graph):
            made.append(graph)
            super().__init__(graph)

    monkeypatch.setattr(quiver_module, "TopologicalSorter", Spy)
    return made


def test_a_quiver_is_sorted_once_and_its_tables_not_again(monkeypatch):
    made = _count_sorts(monkeypatch)
    q, inv = make_d5hat()
    counts(ExtTable(q), DimVector(q, (2, 3, 4, 4, 3, 2)), [inv])
    assert len(made) == 1


@pytest.mark.parametrize("command", [
    ["counts", "--involution", "tau"],
    ["member", "--method", "antiinv", "--coords", "1,0,-1"],
])
def test_cli_commands_sort_the_quiver_once(command, tmp_path, monkeypatch):
    q, inv = make_d5hat()
    path = tmp_path / "d5hat.quiver"
    path.write_text(serialize_quiver(q, [inv]))
    made = _count_sorts(monkeypatch)
    argv = [command[0], str(path), "--alpha", "x1=2,x2=3,x3=4,x4=4,x5=3,x6=2"] + command[1:]
    code, _, err = _run_cli(argv)
    assert code in (0, 1), err
    assert len(made) == 1

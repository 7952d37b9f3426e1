"""The box-indexed subdimension table against the recursive reference, its
input checks and its box budget."""

import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from quiver_cones import (
    DimVector,
    ExtTable,
    Quiver,
    Weight,
    counts,
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
            pairs = [(p.beta.values, p.gamma.values) for p in t.iso_pairs(a, inv)]
            ref_pairs = ref.iso_pairs(oracle, a, inv)
            assert pairs == ref_pairs, (family, a, inv.name)  # n3
            # iso_pairs filters the inductive normals; the oracle walks the box
            assert {b for b, _ in ref_pairs} <= set(ref_normals), (family, a, inv.name)


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_small_chunks_and_screens_match_recursion(monkeypatch, chunk):
    # tiny chunks push every key through the multi-chunk path
    monkeypatch.setattr(schofield, "_CHUNK", chunk)
    q, inv = make_d5hat()
    t, oracle = ExtTable(q), ref.RecursiveExtTable(q)
    for a in [(1, 2, 3, 3, 2, 1), (2, 1, 2, 2, 1, 2), (0, 2, 1, 1, 2, 0)]:
        assert [b.values for b in t.generic_subdims(a)] == oracle.generic_subdims(a)
        assert [b.values for b in t.inductive_normals(a)] == ref.inductive_normals(oracle, a)
        pairs = [(p.beta.values, p.gamma.values) for p in t.iso_pairs(a, inv)]
        assert pairs == ref.iso_pairs(oracle, a, inv)


@pytest.mark.parametrize("case", ["d5hat", "sun6"])
def test_cold_counts_builds_the_table_once(monkeypatch, case):
    # n2 and every I0 test read the sets that the build of alpha decided
    if case == "d5hat":
        (q, inv), alpha = make_d5hat(), (2, 3, 4, 4, 3, 2)
        invs = [inv]
    else:
        (q, invs), alpha = make_sun(3, 1), (2,) * 6
    roots, build = [], ExtTable._build
    monkeypatch.setattr(ExtTable, "_build", lambda self, root: roots.append(root) or build(self, root))
    counts(ExtTable(q), alpha, invs)
    assert roots == [alpha]


@pytest.mark.parametrize("case", ["d5hat", "sun62"])
def test_cold_counts_decides_few_keys(case):
    # which keys the build marks: every answer test still passes with the sub
    # or the quotient tests of the closed-set filter left out, these counts not
    if case == "d5hat":
        (q, inv), alpha, keys = make_d5hat(), (2, 3, 4, 4, 3, 2), 382
        invs = [inv]
    else:
        (q, invs), alpha, keys = make_sun(3, 2), (1, 2) * 6, 673
    t = ExtTable(q)
    counts(t, alpha, invs)
    assert len(t._subs) == keys


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


@pytest.mark.parametrize("case", ["d5hat", "sun62"])
def test_subdimensions_are_transitive_on_every_key(case):
    # b -> b' -> t implies b -> t, so S_b is inside S_t for every b in S_t; the
    # table decides each key on its own, so this checks the keys against each other
    if case == "d5hat":
        q, alpha = make_d5hat()[0], (4,) * 6
    else:
        q, alpha = make_sun(3, 2)[0], (1, 2) * 6
    t = ExtTable(q)
    t.generic_subdims(alpha)
    root = schofield._Box(alpha)
    subs = {int(root.flat(np.asarray(key))): root.flat(box.coords(buf[lo:hi]))
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
    q, inv = make_d5hat()
    monkeypatch.setattr(schofield, "_MAX_BOX_POINTS", 5**6 - 1)
    t = ExtTable(q)
    for call in (lambda: t.generic_subdims((4,) * 6),
                 lambda: t.ext((4,) * 6, (1,) * 6),
                 lambda: t.iso_pairs((4,) * 6, inv)):
        with pytest.raises(DimensionTooLargeError, match="budget"):
            call()
    assert len(t.generic_subdims((3, 4, 4, 4, 4, 4))) > 0  # 4 * 5**5 points fit


def test_candidate_budget_is_checked_while_marking(monkeypatch, tmp_path, d5hat):
    # no arrow joins two vertices of the support: every point is a candidate of every larger one
    q, inv = d5hat
    monkeypatch.setattr(schofield, "_MAX_CANDIDATES", 10_000)
    t = ExtTable(q)
    keys = len(t._subs)
    with pytest.raises(DimensionTooLargeError, match="budget"):
        t.generic_subdims((2000, 0, 0, 0, 0, 0))
    assert len(t._subs) == keys  # a failed build stores nothing
    assert len(t.generic_subdims((2, 2, 2, 2, 2, 2))) == 43
    path = tmp_path / "d5hat.quiver"
    path.write_text(serialize_quiver(q, [inv]))
    code, out, err = _run_cli(["counts", str(path), "--alpha", "x1=2000"])
    assert (code, out) == (2, "") and "budget" in err


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


def test_thin_box_tests_each_candidate_against_zero_alone(monkeypatch, d5hat):
    # at (300, 0, ..., 0) every c = t - b lives on x1, where each <s, .> is s_1 >= 0,
    # so no row of S_b has a negative entry that counts: no product is formed,
    # and each of the 300 * 299 / 2 candidates is accepted against 0 alone
    products, check = [], schofield._nonneg_columns

    def recorded(rows, cols):
        products.append(rows.shape)
        return check(rows, cols)

    monkeypatch.setattr(schofield, "_nonneg_columns", recorded)
    q, _ = d5hat
    t = ExtTable(q)
    assert len(t.generic_subdims((300, 0, 0, 0, 0, 0))) == 301
    assert products == []
    keys = [key for key in t._subs if any(key)]
    assert len(keys) == 300
    edges = sum(hi - lo - 2 for _, _, lo, hi in (t._subs[key] for key in keys))
    assert edges == 300 * 299 // 2


def test_reused_keys_are_sorted_again_for_the_new_support(d5hat):
    # the keys of (0, 0, 1, 2, 0, 1) are built with signs on x3, x4, x6; under the
    # full support of the next root the rows with s_4 > 0 are negative on x5 too
    # and must enter the push product, or a b that is no generic subdimension of
    # its key is kept
    q, _ = d5hat
    t, oracle = ExtTable(q), ref.RecursiveExtTable(q)
    t.generic_subdims((0, 0, 1, 2, 0, 1))
    root = (1, 1, 1, 4, 1, 1)
    assert [b.values for b in t.generic_subdims(root)] == oracle.generic_subdims(root)


def test_int64_bound_is_checked(d5hat):
    q, _ = d5hat
    t = ExtTable(q)
    t._multiplicity = 2**58  # as if the quiver had that many parallel arrows
    with pytest.raises(ValueOverflowError):
        t.generic_subdims((1,) * 6)  # (1 + m) * 6**2 >= 2**63
    assert t.ext((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)) == 1  # (1 + m) * 1 * 1 fits


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

import itertools
import random

import pytest

from quiver_cones import DimVector, ExtTable, Weight, make_line
from oracle import all_pairs_up_to_mass, generic_hom_ext, generic_hom_ext_mod_p, rank_mod_p


def test_ext_a2(a2):
    q, _ = a2
    t = ExtTable(q)
    # oracle values: domain of d is 0-dim, codomain 1-dim for ((1,0),(0,1))
    assert t.ext((1, 0), (0, 1)) == 1
    assert t.ext((0, 1), (1, 0)) == 0
    assert t.ext((3, 2), (0, 0)) == 0
    assert t.ext((0, 0), (3, 2)) == 0


def test_ext_theta2(theta2):
    q, _ = theta2
    t = ExtTable(q)
    assert t.ext((1, 0), (0, 1)) == 2


def test_hom_a2(a2):
    q, _ = a2
    t = ExtTable(q)
    assert t.hom((1, 0), (0, 1)) == 0
    assert t.hom((1, 1), (1, 1)) == 1  # scalar pairs only
    assert t.hom((0, 0), (2, 2)) == 0


def test_is_generic_subdim_a2(a2):
    q, _ = a2
    t = ExtTable(q)
    assert t.is_generic_subdim((0, 1), (1, 1))
    assert not t.is_generic_subdim((1, 0), (1, 1))
    for a in [(0, 0), (1, 1), (2, 3)]:
        assert t.is_generic_subdim((0, 0), a)
        assert t.is_generic_subdim(a, a)
    assert not t.is_generic_subdim((2, 0), (1, 1))  # not <=


def test_enumerate_subdims_a2(a2):
    q, _ = a2
    t = ExtTable(q)
    subs = [b.values for b in t.generic_subdims((1, 1))]
    assert subs == [(0, 0), (0, 1), (1, 1)]
    assert [b.values for b in t.generic_subdims((0, 0))] == [(0, 0)]


def test_enumerate_subdims_d5hat_unit_alpha(d5hat_table):
    assert len(d5hat_table.generic_subdims((1, 1, 1, 1, 1, 1))) == 9


def test_disc_a2(a2):
    q, _ = a2
    t = ExtTable(q)
    a = DimVector(q, (1, 1))
    assert t.disc(a, Weight(q, (1, -1))) == 0
    assert t.disc(a, Weight.zero(q)) == 0
    assert t.disc(a, Weight(q, (-1, 1))) == 1
    val, witness = t.disc_witness(a, Weight(q, (-1, 1)))
    assert val == 1 and witness.values == (0, 1)


def test_circ_nonzero_a2(a2):
    q, _ = a2
    t = ExtTable(q)
    for b in [(0, 0), (1, 0), (2, 1)]:
        assert t.circ_nonzero((0, 0), b)
    assert t.circ_nonzero((0, 1), (1, 0))
    assert not t.circ_nonzero((1, 0), (0, 1))


def test_cache_write_once(a2):
    q, _ = a2
    t1, t2 = ExtTable(q), ExtTable(q)
    pairs = [((1, 0), (0, 1)), ((2, 1), (1, 2)), ((3, 3), (2, 2))]
    first = [t1.ext(a, b) for a, b in pairs]
    # cached lookups and fresh recomputation agree
    assert [t1.ext(a, b) for a, b in pairs] == first
    assert [t2.ext(a, b) for a, b in pairs] == first


def test_cached_values_respect_lower_bound(d5hat_table):
    # ext(a, b) >= max(0, -<a, b>) on every pair of 0/1 vectors of D5-hat
    from quiver_cones import euler_form
    t = d5hat_table
    q = t.quiver
    cube = [DimVector(q, v) for v in itertools.product((0, 1), repeat=6)]
    for a in cube:
        for b in cube:
            assert t.ext(a, b) >= max(0, -euler_form(q, a, b)), (a, b)


@pytest.mark.parametrize("factory_n", [2, 3])
def test_oracle_equivalence_lines(factory_n):
    q, _ = make_line(factory_n)
    t = ExtTable(q)
    for a, b in all_pairs_up_to_mass(len(q.vertices), 4):
        hom, ext = generic_hom_ext(q, a, b)
        assert t.ext(a, b) == ext, (a, b)
        assert t.hom(a, b) == hom, (a, b)


def test_rank_mod_p():
    assert rank_mod_p([[1, 2], [2, 4]], 7) == 1
    assert rank_mod_p([[1, 2], [3, 4]], 7) == 2
    assert rank_mod_p([[1, 2], [3, 4]], 2) == 1  # det -2 vanishes mod 2
    assert rank_mod_p([[0, 7], [0, 0]], 7) == 0
    assert rank_mod_p([], 7) == 0


@pytest.mark.parametrize("quiver", ["d5hat", "sun31"])
def test_hom_ext_match_random_representations_over_fp(request, quiver):
    # entries uniform in F_p, p = 2^31 - 1: a maximal minor of d has degree at most
    # 2 rank in the entries, so a sample falls below the generic rank with
    # probability at most 2 rank / p (Schwartz-Zippel); two samples per pair suffice
    q, _ = request.getfixturevalue(quiver)
    t, p = ExtTable(q), 2**31 - 1
    mismatches = []
    for a, b in all_pairs_up_to_mass(len(q.vertices), 5):
        if (t.hom(a, b), t.ext(a, b)) != generic_hom_ext_mod_p(q, a, b, p):
            mismatches.append((a, b))
    assert mismatches == []


@pytest.mark.parametrize("quiver", ["d5hat", "sun31"])
def test_hom_ext_match_over_fp_at_larger_mass(request, quiver):
    # 200 seeded pairs with entries <= 6 and 14 <= |a| + |b| <= 30, ten b per root a:
    # a table read builds root a, so twenty roots keep the sample cheap
    q, _ = request.getfixturevalue(quiver)
    t, p, n = ExtTable(q), 2**31 - 1, len(q.vertices)
    rng = random.Random(2026)
    draw = lambda: tuple(rng.randint(0, 6) for _ in range(n))
    mismatches = []
    for _ in range(20):
        a = draw()
        while sum(a) > 16:
            a = draw()
        for _ in range(10):
            b = draw()
            while not 14 <= sum(a) + sum(b) <= 30:
                b = draw()
            if (t.hom(a, b), t.ext(a, b)) != generic_hom_ext_mod_p(q, a, b, p):
                mismatches.append((a, b))
    assert mismatches == []


def test_oracle_equivalence_theta2(theta2):
    q, _ = theta2
    t = ExtTable(q)
    for a, b in all_pairs_up_to_mass(2, 4):
        hom, ext = generic_hom_ext(q, a, b)
        assert t.ext(a, b) == ext, (a, b)
        assert t.hom(a, b) == hom, (a, b)

import contextlib
import itertools

import pytest

from quiver_cones import (
    DimVector,
    ExtTable,
    Involution,
    Weight,
    antisym_basis,
    counts,
    enumerate_I0,
    inequalities,
    make_d5hat,
    make_sun,
    member_antiinv,
    member_dw,
    member_inductive,
    parse_quiver_file,
    serialize_quiver,
    tau_dim,
)
from quiver_cones.errors import (
    NotAntiSymmetricError,
    NotSymmetricDimensionError,
)

from goldens import SUN62_ROW

ALPHA_BIG = (2, 3, 4, 4, 3, 2)


def test_member_dw_a2(a2):
    q, _ = a2
    t = ExtTable(q)
    a = DimVector(q, (1, 1))
    assert member_dw(t, Weight(q, (1, -1)), a)
    assert member_dw(t, Weight.zero(q), a)
    res = member_dw(t, Weight(q, (-1, 1)), a)
    assert not res and res.witness.values == (0, 1)


def test_member_inductive_a2(a2):
    q, _ = a2
    t = ExtTable(q)
    a = DimVector(q, (1, 1))
    assert member_inductive(t, Weight(q, (1, -1)), a)
    assert member_inductive(t, Weight.zero(q), a)
    assert not member_inductive(t, Weight(q, (-1, 1)), a)


def test_member_antiinv_example1(d5hat, d5hat_table):
    q, inv = d5hat
    basis = antisym_basis(q, inv)
    a = DimVector(q, ALPHA_BIG)
    assert member_antiinv(d5hat_table, basis.from_coords((0, 0, -1)), a, inv)
    assert member_antiinv(d5hat_table, basis.from_coords((0, 0, 0)), a, inv)
    res = member_antiinv(d5hat_table, basis.from_coords((1, 0, -1)), a, inv)
    assert not res and res.witness is not None


def test_member_antiinv_rejects_bad_inputs(d5hat, d5hat_table):
    q, inv = d5hat
    basis = antisym_basis(q, inv)
    with pytest.raises(NotSymmetricDimensionError):
        member_antiinv(d5hat_table, basis.from_coords((0, 0, 0)), DimVector(q, (1, 0, 0, 0, 0, 0)), inv)
    with pytest.raises(NotAntiSymmetricError):
        member_antiinv(d5hat_table, Weight(q, (1, 0, 0, 0, 0, 0)), DimVector(q, ALPHA_BIG), inv)


@pytest.mark.parametrize("member", [member_dw, member_inductive], ids=["dw", "inductive"])
def test_membership_binds_its_inputs(d5hat, d5hat_table, member):
    q, _ = d5hat
    s = (1, 0, 0, 0, 0, -1)
    bound = member(d5hat_table, Weight(q, s), DimVector(q, ALPHA_BIG))
    assert member(d5hat_table, s, ALPHA_BIG) == bound and bound
    # swapped with sigma(alpha) = 1: a TypeError, not a silent not-member
    with pytest.raises(TypeError, match="expected a Weight, got a DimVector"):
        member(d5hat_table, DimVector(q, (1, 0, 0, 0, 0, 0)), Weight(q, (1, 0, 0, 0, 0, 0)))
    with pytest.raises(ValueError, match="Weight bound to a different quiver"):
        member(d5hat_table, Weight(make_sun(3, 1)[0], s), ALPHA_BIG)


def test_member_antiinv_binds_sigma_and_checks_the_involution(d5hat, d5hat_table, sun31):
    q, inv = d5hat
    s = antisym_basis(q, inv).from_coords((0, 0, -1))
    assert member_antiinv(d5hat_table, s.values, ALPHA_BIG, inv)
    with pytest.raises(TypeError, match="expected a Weight, got a DimVector"):
        member_antiinv(d5hat_table, DimVector(q, ALPHA_BIG), s, inv)
    # Sun(6,1)'s tau names no D5-hat vertex: read as the identity, s looked not anti-symmetric
    with pytest.raises(ValueError, match="Involution bound to a different quiver"):
        member_antiinv(d5hat_table, s, DimVector(q, ALPHA_BIG), sun31[1][0])


def test_enumerate_I0_lengths(d5hat, d5hat_table):
    q, inv = d5hat
    assert len(enumerate_I0(d5hat_table, DimVector(q, (1,) * 6), inv)) == 5
    assert len(enumerate_I0(d5hat_table, DimVector(q, ALPHA_BIG), inv)) == 10


def test_enumerate_I0_contains_trivial_pair(d5hat, d5hat_table):
    q, inv = d5hat
    a = DimVector(q, ALPHA_BIG)
    betas = enumerate_I0(d5hat_table, a, inv)
    assert type(betas) is tuple and betas[0] == DimVector.zero(q)  # gamma = a
    for beta in betas:
        assert type(beta) is DimVector and beta + tau_dim(inv, beta) <= a  # gamma >= 0


def test_enumerate_I0_requires_symmetric(d5hat, d5hat_table):
    q, inv = d5hat
    with pytest.raises(NotSymmetricDimensionError):
        enumerate_I0(d5hat_table, DimVector(q, (1, 0, 0, 0, 0, 0)), inv)


def test_foreign_involution_rejected(d5hat, sun31):
    # D5-hat's tau names no Sun(6,1) vertex; read as the identity, each call would answer
    (q, _), (_, tau) = sun31, d5hat
    t, a = ExtTable(q), DimVector(q, (2,) * 6)
    for call in (lambda: t.iso_pairs(a, tau),
                 lambda: counts(t, a, [tau]),
                 lambda: member_antiinv(t, Weight.zero(q), a, tau)):
        with pytest.raises(ValueError, match="Involution bound to a different quiver"):
            call()


def test_each_involution_is_checked_once_when_made(monkeypatch):
    # parsing checks tau; no later use (counts, 200 queries, a system, a basis, tau.a,
    # a serialization) checks it again, where each once re-ran the check or a cache of it
    made, tau = make_d5hat()
    text = serialize_quiver(made, [tau])
    check, calls = Involution.__post_init__, []
    monkeypatch.setattr(Involution, "__post_init__", lambda inv: calls.append(inv) or check(inv))
    q, (inv,) = parse_quiver_file(text)
    t, a, basis = ExtTable(q), DimVector(q, ALPHA_BIG), antisym_basis(q, inv)
    assert counts(t, a, [inv])[2] == [10]
    for k in range(200):
        member_antiinv(t, basis.from_coords((k % 3 - 1, k % 5 - 2, k % 7 - 3)), a, inv)
    assert inequalities(t, a, "antiinv", inv=inv).coordinate_space == basis
    assert tau_dim(inv, a) == a and serialize_quiver(q, [inv]) == text
    assert len(calls) == 1 and calls[0] is inv and inv.quiver is q


def test_inequalities_dw_a2(a2):
    q, _ = a2
    t = ExtTable(q)
    system = inequalities(t, DimVector(q, (1, 1)), "dw")
    assert [b.values for b in system.normals] == [(0, 0), (0, 1), (1, 1)]
    zero = inequalities(t, DimVector.zero(q), "dw")
    assert [b.values for b in zero.normals] == [(0, 0)]


def test_inequalities_reject_a_bad_method_or_a_missing_involution(d5hat, d5hat_table):
    q, inv = d5hat
    a = DimVector(q, ALPHA_BIG)
    with pytest.raises(ValueError, match="unknown method 'lp'"):
        inequalities(d5hat_table, a, "lp")
    with pytest.raises(ValueError, match="antiinv requires an involution"):
        inequalities(d5hat_table, a, "antiinv")
    # dw and inductive read no involution; one passed to them is refused, not ignored
    for method in ("dw", "inductive"):
        for option in ({"inv": inv}, {"representatives": ("x4", "x5", "x6")}):
            with pytest.raises(ValueError, match=f"{method} reads no involution or representatives"):
                inequalities(d5hat_table, a, method, **option)
    with pytest.raises(ValueError, match="system has no coordinate space"):
        inequalities(d5hat_table, a, "inductive").restricted_rows()


def test_inequalities_antiinv_example1(d5hat, d5hat_table):
    q, inv = d5hat
    system = inequalities(d5hat_table, DimVector(q, ALPHA_BIG), "antiinv", inv=inv,
                          representatives=("x4", "x5", "x6"))
    rows = {r for r in system.restricted_rows() if any(r)}
    assert rows == {
        (0, 0, 1), (0, 1, 0), (0, 3, 2), (1, 0, 1), (1, 0, 2),
        (1, 1, 0), (2, 3, 0), (3, 2, 1), (4, 3, 2),
    }


def test_counts_d5hat_big(d5hat, d5hat_table):
    q, inv = d5hat
    n1, n2, n3s = counts(d5hat_table, DimVector(q, ALPHA_BIG), [inv])
    assert (n1, n2, n3s) == (244, 57, [10])


def test_counts_sun62_golden_row():
    q, invs = make_sun(3, 2)
    alpha, n1, n2, n3_tau, n3_rho = SUN62_ROW
    assert counts(ExtTable(q), DimVector(q, alpha), invs) == (n1, n2, [n3_tau, n3_rho])


def test_counts_monotone(d5hat, d5hat_table):
    q, inv = d5hat
    for a in [(1, 1, 1, 1, 1, 1), (0, 2, 1, 1, 2, 0), (2, 3, 2, 2, 3, 2)]:
        n1, n2, _ = counts(d5hat_table, DimVector(q, a), [])
        assert n2 <= n1


def test_membership_tests_agree_on_general_weights(d5hat, d5hat_table):
    import random
    q, inv = d5hat
    rng = random.Random(21)
    a = DimVector(q, (1, 2, 3, 3, 2, 1))
    for _ in range(200):
        s = Weight(q, [rng.randint(-4, 4) for _ in q.vertices])
        assert bool(member_dw(d5hat_table, s, a)) == bool(member_inductive(d5hat_table, s, a))


def test_membership_scale_invariance(d5hat, d5hat_table):
    import random
    q, inv = d5hat
    basis = antisym_basis(q, inv)
    a = DimVector(q, ALPHA_BIG)
    rng = random.Random(22)
    for _ in range(50):
        s = basis.from_coords([rng.randint(-5, 5) for _ in range(3)])
        base = bool(member_antiinv(d5hat_table, s, a, inv))
        for k in (2, 3):
            assert bool(member_antiinv(d5hat_table, s.scaled(k), a, inv)) == base


def test_minus_tau_stability(d5hat, d5hat_table):
    import random
    q, inv = d5hat
    a = DimVector(q, ALPHA_BIG)
    rng = random.Random(23)
    for _ in range(100):
        s = Weight(q, [rng.randint(-3, 3) for _ in q.vertices])
        assert bool(member_dw(d5hat_table, s, a)) == bool(
            member_dw(d5hat_table, -tau_dim(inv, s), a)
        )


def test_circ_nonzero_implies_subdim(d5hat_table):
    t = d5hat_table
    q = t.quiver
    a = DimVector(q, (1, 1, 1, 1, 1, 1))
    for vals in itertools.product(*(range(v + 1) for v in a.values)):
        b = DimVector(q, vals)
        if t.circ_nonzero(b, a - b):
            assert t.is_generic_subdim(b, a)


def test_antiinv_basis_must_match_quiver_and_involution(sun31, sun31_table, d5hat):
    # antiinv builds its orbit basis from tau itself, so a basis of another tau cannot be passed
    q, (tau, rho) = sun31
    alpha = DimVector(q, (2,) * 6)
    with pytest.raises(ValueError, match="cover each swapped orbit"):  # tau's orbit 2.1-5.1 left out
        inequalities(sun31_table, alpha, "antiinv", inv=tau, representatives=("1.1", "4.1"))
    with pytest.raises(ValueError, match="cover each swapped orbit"):  # rho's representatives
        inequalities(sun31_table, alpha, "antiinv", inv=tau, representatives=("3.1", "4.1", "5.1"))
    with pytest.raises(ValueError, match="Involution bound to a different quiver"):
        inequalities(sun31_table, alpha, "antiinv", inv=d5hat[1])
    system = inequalities(sun31_table, alpha, "antiinv", inv=tau, representatives=("1.1", "4.1", "5.1"))
    assert system == inequalities(sun31_table, alpha, "antiinv", inv=tau)
    assert system.coordinate_space == antisym_basis(q, tau)


def _example1_answers(t, inv):
    """counts, both sampled membership tests and the three systems at Example 1 alpha."""
    q = t.quiver
    a, basis = DimVector(q, ALPHA_BIG), antisym_basis(q, inv)
    # every anti-symmetric weight with coordinates in -5..5, (-5,-5,-5,5,5,5) among them
    weights = [basis.from_coords(c) for c in itertools.product(range(-5, 6), repeat=3)]
    return (counts(t, a, [inv]),
            [member_inductive(t, s, a) for s in weights],
            [member_antiinv(t, s, a, inv) for s in weights],
            [inequalities(t, a, "dw"), inequalities(t, a, "inductive"),
             inequalities(t, a, "antiinv", inv=inv)])


def _attempt(mutate):
    with contextlib.suppress(AttributeError, TypeError):
        mutate()


def test_cached_reads_cannot_be_changed_by_a_caller():
    q, inv = make_d5hat()
    t, a = ExtTable(q), DimVector(q, ALPHA_BIG)
    _example1_answers(t, inv)
    for read in (t.inductive_normals(a), t.iso_pairs(a, inv), enumerate_I0(t, a, inv)):
        _attempt(lambda: read.__setitem__(0, read[-1]))
        _attempt(lambda: read.clear())
    fresh_q, fresh_inv = make_d5hat()
    assert _example1_answers(t, inv) == _example1_answers(ExtTable(fresh_q), fresh_inv)


def test_an_involution_cannot_change_under_a_table():
    q, inv = make_d5hat()
    t = ExtTable(q)
    _example1_answers(t, inv)  # caches tau's permutation and its I0 pairs
    _attempt(lambda: inv.vmap.clear())
    _attempt(lambda: inv.amap.clear())
    fresh_q, fresh_inv = make_d5hat()
    assert _example1_answers(t, inv) == _example1_answers(ExtTable(fresh_q), fresh_inv)

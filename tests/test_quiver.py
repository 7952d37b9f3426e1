import numpy as np
import pytest

import quiver_cones.quiver as quiver_module

from quiver_cones import (
    DimVector,
    ExtTable,
    Involution,
    Quiver,
    Weight,
    antisym_basis,
    euler_col,
    euler_form,
    make_line,
    tau_dim,
    tau_weight,
    validate_involution,
    validate_quiver,
    weight_eval,
)
from quiver_cones.errors import (
    AxiomViolationError,
    DanglingEndpointError,
    DuplicateIdError,
    NotAntiSymmetricError,
    NotSelfInverseError,
    OrientedCycleError,
    ValueOverflowError,
)


def test_a2_valid(a2):
    q, _ = a2
    validate_quiver(q)  # construction already validated; idempotent


def test_two_cycle_rejected():
    with pytest.raises(OrientedCycleError) as exc:
        Quiver("C2", ["x", "y"], [("a", "x", "y"), ("b", "y", "x")])
    assert len(exc.value.cycle) >= 3  # closed walk witness


def test_duplicate_vertex():
    with pytest.raises(DuplicateIdError):
        Quiver("bad", ["x", "x"], [])


def test_duplicate_arrow():
    with pytest.raises(DuplicateIdError):
        Quiver("bad", ["x", "y"], [("a", "x", "y"), ("a", "x", "y")])


def test_dangling_endpoint():
    with pytest.raises(DanglingEndpointError):
        Quiver("bad", ["x"], [("a", "x", "zz")])


def test_d5hat_valid(d5hat):
    q, inv = d5hat
    assert len(q.vertices) == 6 and len(q.arrows) == 5
    validate_involution(q, inv)


def test_alternative_d5hat_involution_also_validates(d5hat):
    # the other involution of the same quiver, isomorphic to the shipped one
    q, _ = d5hat
    other = Involution(
        "tau2",
        {"x1": "x5", "x5": "x1", "x3": "x4", "x4": "x3", "x2": "x6", "x6": "x2"},
        {"a1": "a4", "a4": "a1", "a2": "a5", "a5": "a2"},
    )
    validate_involution(q, other)


def test_identity_involution_fails_on_a2(a2):
    q, _ = a2
    with pytest.raises(AxiomViolationError):
        validate_involution(q, Involution("id", {}, {}))


def test_from_pairs_takes_either_order_and_drops_fixed_points(d5hat):
    q, inv = d5hat
    listed = Involution.from_pairs(
        "tau",
        [("x6", "x1"), ("x2", "x5"), ("x4", "x3"), ("x2", "x2")],
        [("a5", "a1"), ("a2", "a4"), ("a3", "a3"), ("a4", "a2")],
    )
    # kept, ("x2", "x2") would overwrite x2 -> x5, and ("a3", "a3") would add a key
    assert listed == inv
    assert hash(listed) == hash(inv)


def test_involution_hash_is_computed_once_from_sorted_maps(d5hat, monkeypatch):
    _, inv = d5hat
    expected = hash((inv.name, tuple(sorted(inv.vmap.items())), tuple(sorted(inv.amap.items()))))
    # a query hashes tau as part of its cache keys; that must not sort the maps again
    monkeypatch.setattr(quiver_module, "sorted", None, raising=False)
    assert hash(inv) == expected


def test_conflicting_pairs_are_not_self_inverse(d5hat):
    q, _ = d5hat
    inv = Involution.from_pairs("tau", [("x1", "x6"), ("x1", "x5"), ("x3", "x4")], [])
    with pytest.raises(NotSelfInverseError, match="vmap is not self-inverse"):
        validate_involution(q, inv)
    inv = Involution.from_pairs("tau", [("x1", "x6"), ("x2", "x5"), ("x3", "x4")],
                                [("a1", "a5"), ("a1", "a4")])
    with pytest.raises(NotSelfInverseError, match="amap is not self-inverse"):
        validate_involution(q, inv)


@pytest.mark.parametrize("vmap, amap, message", [
    ({"x1": "zz"}, {}, "vmap mentions unknown vertex in 'x1' -> 'zz'"),
    ({"x1": "x6", "x6": "x2"}, {}, "vmap is not self-inverse at 'x1'"),
    ({"x1": "x6", "x6": "x1"}, {"a1": "zz"}, "amap mentions unknown arrow in 'a1' -> 'zz'"),
    ({"x1": "x6", "x6": "x1"}, {"a1": "a5", "a5": "a4"}, "amap is not self-inverse at 'a1'"),
], ids=["vertex-unknown", "vertex-not-self-inverse", "arrow-unknown", "arrow-not-self-inverse"])
def test_involution_map_faults_keep_their_messages(d5hat, vmap, amap, message):
    q, _ = d5hat
    with pytest.raises((DanglingEndpointError, NotSelfInverseError)) as exc:
        validate_involution(q, Involution("bad", vmap, amap))
    assert str(exc.value) == message


def test_theta2_swap_involution(theta2):
    q, inv = theta2
    validate_involution(q, inv)  # swap of endpoints, arrows fixed


def test_euler_form_a2(a2):
    q, _ = a2
    assert euler_form(q, DimVector(q, (1, 0)), DimVector(q, (0, 1))) == -1
    assert euler_form(q, DimVector.zero(q), DimVector(q, (4, 7))) == 0


def test_euler_form_theta2(theta2):
    q, _ = theta2
    assert euler_form(q, DimVector(q, (1, 0)), DimVector(q, (0, 1))) == -2


def test_euler_overflow(a2):
    q, _ = a2
    big = 2**40
    with pytest.raises(ValueOverflowError):
        euler_form(q, DimVector(q, (big, big)), DimVector(q, (big, big)))


def test_weight_eval(a2):
    q, _ = a2
    assert weight_eval(Weight(q, (1, -1)), DimVector(q, (1, 1))) == 0
    assert weight_eval(Weight.zero(q), DimVector(q, (3, 5))) == 0


def test_weight_eval_antisym_on_symmetric_is_zero(d5hat):
    q, inv = d5hat
    basis = antisym_basis(q, inv)
    s = basis.from_coords((0, 0, -1))
    a = DimVector(q, (2, 3, 4, 4, 3, 2))
    assert weight_eval(s, a) == 0


def test_tau_dim_symmetric(d5hat):
    q, inv = d5hat
    a = DimVector(q, (2, 3, 4, 4, 3, 2))
    assert tau_dim(inv, a) == a


def test_tau_involutive(d5hat):
    q, inv = d5hat
    a = DimVector(q, (0, 1, 2, 3, 4, 5))
    assert tau_dim(inv, tau_dim(inv, a)) == a
    s = Weight(q, (5, -4, 3, -2, 1, 0))
    assert tau_weight(inv, tau_weight(inv, s)) == s


def test_tau_keeps_the_vector_kind(d5hat):
    q, inv = d5hat
    s = Weight(q, (-1, 0, 0, 0, 0, 2))
    assert tau_dim(inv, s) == tau_weight(inv, s) == Weight(q, (2, 0, 0, 0, 0, -1))
    a = DimVector(q, (1, 0, 0, 0, 0, 2))
    assert tau_weight(inv, a) == DimVector(q, (2, 0, 0, 0, 0, 1))


def test_tau_on_unit_vector(d5hat):
    q, inv = d5hat
    e6 = DimVector.unit(q, "x6")
    assert tau_dim(inv, e6) == DimVector.unit(q, inv.vertex("x6"))


def test_basis_roundtrip(d5hat):
    q, inv = d5hat
    basis = antisym_basis(q, inv)
    assert len(basis.swapped) == 3 and not basis.fixed
    for coords in [(0, 0, 0), (1, -2, 3), (-5, 4, 0)]:
        s = basis.from_coords(coords)
        assert s == -tau_weight(inv, s)
        assert basis.to_coords(s) == coords


def test_basis_rejects_non_antisymmetric(d5hat):
    q, inv = d5hat
    basis = antisym_basis(q, inv)
    with pytest.raises(NotAntiSymmetricError):
        basis.to_coords(Weight(q, (1, 0, 0, 0, 0, 0)))


def test_basis_fixed_vertices_forced_zero():
    q, inv = make_line(3)  # middle vertex is tau-fixed
    basis = antisym_basis(q, inv)
    assert basis.fixed == ("2",)
    s = basis.from_coords((7,))
    assert s["2"] == 0


def test_basis_representative_override(d5hat):
    q, inv = d5hat
    basis = antisym_basis(q, inv, representatives=("x3", "x2", "x1"))
    assert basis.representatives() == ("x3", "x2", "x1")
    with pytest.raises(ValueError):
        antisym_basis(q, inv, representatives=("x4", "x3", "x6"))


def test_basis_rejects_a_repeated_orbit(d5hat):
    # x6 and x1 are one orbit; naming it twice used to give a four-coordinate basis
    q, inv = d5hat
    for reps in (("x4", "x5", "x6", "x1"), ("x4", "x5", "x6", "x6"), ("x4", "x6")):
        with pytest.raises(ValueError, match="cover each swapped orbit exactly once"):
            antisym_basis(q, inv, representatives=reps)
    with pytest.raises(ValueError, match="'3' is not in a swapped orbit"):
        antisym_basis(*make_line(5), representatives=("3", "4"))  # 3 is tau-fixed


def test_sun_basis_has_three_swapped_orbits(sun31):
    q, invs = sun31
    basis = antisym_basis(q, invs[0])
    assert len(basis.swapped) == 3


def test_euler_col_checks_the_quiver(d5hat, sun31):
    q, _ = d5hat
    b = DimVector(q, (1, 2, 0, 3, 0, 1))
    col = euler_col(q, b)
    assert all(col[v] == euler_form(q, DimVector.unit(q, v), b) for v in q.vertices)
    with pytest.raises(ValueError, match="vectors not bound to the given quiver"):
        euler_col(q, DimVector(sun31[0], (1, 0, 0, 0, 0, 0)))


def test_euler_bilinearity_random(d5hat):
    import random
    q, _ = d5hat
    rng = random.Random(7)
    for _ in range(50):
        a, a2, b = (
            DimVector(q, [rng.randint(0, 10) for _ in q.vertices]) for _ in range(3)
        )
        assert euler_form(q, a + a2, b) == euler_form(q, a, b) + euler_form(q, a2, b)
        assert euler_form(q, b, a + a2) == euler_form(q, b, a) + euler_form(q, b, a2)


def test_euler_involution_duality_random(d5hat):
    import random
    q, inv = d5hat
    rng = random.Random(8)
    for _ in range(50):
        a = DimVector(q, [rng.randint(0, 10) for _ in q.vertices])
        b = DimVector(q, [rng.randint(0, 10) for _ in q.vertices])
        assert euler_form(q, a, b) == euler_form(q, tau_dim(inv, b), tau_dim(inv, a))


def test_weight_transpose_random(sun31):
    import random
    q, invs = sun31
    rng = random.Random(9)
    for inv in invs:
        for _ in range(30):
            s = Weight(q, [rng.randint(-5, 5) for _ in q.vertices])
            b = DimVector(q, [rng.randint(0, 5) for _ in q.vertices])
            assert weight_eval(tau_weight(inv, s), b) == weight_eval(s, tau_dim(inv, b))


def test_vector_entries_must_be_integers(d5hat):
    q, inv = d5hat
    with pytest.raises(TypeError):
        DimVector(q, (1.7, 0, 0, 0, 0, 0))
    with pytest.raises(TypeError):
        Weight(q, ("3", 0, 0, 0, 0, 0))
    with pytest.raises(TypeError):
        antisym_basis(q, inv).from_coords((1.9, 0, 0))
    with pytest.raises(TypeError):
        ExtTable(q).ext((0.9, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
    a = DimVector(q, np.array([1, 0, 2, 0, 0, 0], dtype=np.int64))
    assert a.values == (1, 0, 2, 0, 0, 0) and all(type(v) is int for v in a.values)
    assert antisym_basis(q, inv).from_coords(np.arange(3)) == Weight(q, (-2, -1, 0, 0, 1, 2))

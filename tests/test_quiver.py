import io
import re
from contextlib import redirect_stderr, redirect_stdout

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
    make_d5hat,
    make_kronecker,
    make_line,
    parse_quiver_file,
    serialize_quiver,
    tau_dim,
    validate_quiver,
    weight_eval,
)
from quiver_cones.cli import main
from quiver_cones.errors import (
    AxiomViolationError,
    DanglingEndpointError,
    DuplicateIdError,
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


def test_unknown_tail():
    with pytest.raises(DanglingEndpointError, match="arrow 'a': unknown tail 'zz'"):
        Quiver("bad", ["x"], [("a", "zz", "x")])


# quivers with oriented cycles: (vertices, arrows)
CYCLIC = {
    "two-cycle": (["x", "y"], [("a", "x", "y"), ("b", "y", "x")]),
    "self-loop": (["x"], [("a", "x", "x")]),
    "three-cycle-behind-prefix": (["p", "q", "x", "y", "z"],
                                  [("a", "p", "q"), ("b", "q", "x"), ("c", "x", "y"),
                                   ("d", "y", "z"), ("e", "z", "x")]),
    "two-disjoint-two-cycles": (["x", "y", "u", "w"],
                                [("a", "x", "y"), ("b", "y", "x"), ("c", "u", "w"),
                                 ("d", "w", "u")]),
    "parallel-arrows": (["s", "t"], [("a1", "s", "t"), ("a2", "s", "t"), ("b", "t", "s")]),
}


@pytest.mark.parametrize("name", CYCLIC)
def test_cycle_witness_follows_the_arrows(name, tmp_path):
    vertices, arrows = CYCLIC[name]
    with pytest.raises(OrientedCycleError) as exc:
        Quiver("C", vertices, arrows)
    cycle = exc.value.cycle
    assert len(cycle) >= 2 and cycle[0] == cycle[-1]
    edges = {(t, h) for _, t, h in arrows}
    assert all(pair in edges for pair in zip(cycle, cycle[1:])), cycle
    path = tmp_path / "cyclic.quiver"
    path.write_text(f"quiver C\nvertices {' '.join(vertices)}\n" +
                    "".join(f"arrow {a} {t} {h}\n" for a, t, h in arrows))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", str(path)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: oriented cycle: {' -> '.join(cycle)}\n"


def test_duplicate_arrow_id_is_reported_before_an_unknown_head():
    with pytest.raises(DuplicateIdError, match="duplicate arrow id 'a'"):
        Quiver("bad", ["x", "y"], [("a", "x", "zz"), ("a", "x", "y")])


def test_validate_quiver_returns_the_order_the_quiver_keeps(d5hat):
    q, _ = d5hat
    assert validate_quiver(q) == q._order


def test_d5hat_valid(d5hat):
    q, inv = d5hat
    assert len(q.vertices) == 6 and len(q.arrows) == 5
    assert inv.quiver is q and inv.perm == (5, 4, 3, 2, 1, 0)


def test_alternative_d5hat_involution_also_validates(d5hat):
    # the other involution of the same quiver, isomorphic to the shipped one
    q, _ = d5hat
    other = Involution(
        q,
        "tau2",
        {"x1": "x5", "x5": "x1", "x3": "x4", "x4": "x3", "x2": "x6", "x6": "x2"},
        {"a1": "a4", "a4": "a1", "a2": "a5", "a5": "a2"},
    )
    assert other.perm == (4, 5, 3, 2, 0, 1)


def test_identity_involution_fails_on_a2(a2):
    q, _ = a2
    with pytest.raises(AxiomViolationError):
        Involution(q, "id", {}, {})


def test_involution_must_send_heads_to_tails():
    # tau(a) = b keeps the head axiom at a (head(b) = x = tau(tail(a))) but not the tail one
    q = Quiver("P3", ["x", "y", "z"], [("a", "x", "y"), ("b", "z", "x")])
    message = re.escape("tail('b')='z' != vmap(head('a'))='y'")
    with pytest.raises(AxiomViolationError, match=message) as exc:
        Involution(q, "t", {}, {"a": "b", "b": "a"})
    assert exc.value.arrow == "a"


def test_from_pairs_takes_either_order_and_drops_fixed_points(d5hat):
    q, inv = d5hat
    listed = Involution.from_pairs(
        q, "tau",
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


def test_involution_maps_are_read_only():
    q, inv = make_d5hat()  # not the shared fixture, which a successful write would change
    for m in (inv.vmap, inv.amap):
        with pytest.raises(TypeError):
            m["x1"] = "x1"
        with pytest.raises(TypeError):
            del m[next(iter(m))]
    (parsed,) = parse_quiver_file(serialize_quiver(q, [inv]))[1]
    assert parsed == inv and hash(parsed) == hash(inv)


def test_conflicting_pairs_are_not_self_inverse(d5hat):
    q, _ = d5hat
    with pytest.raises(NotSelfInverseError, match="vmap is not self-inverse"):
        Involution.from_pairs(q, "tau", [("x1", "x6"), ("x1", "x5"), ("x3", "x4")], [])
    with pytest.raises(NotSelfInverseError, match="amap is not self-inverse"):
        Involution.from_pairs(q, "tau", [("x1", "x6"), ("x2", "x5"), ("x3", "x4")],
                              [("a1", "a5"), ("a1", "a4")])


@pytest.mark.parametrize("vmap, amap, message", [
    ({"x1": "zz"}, {}, "vmap mentions unknown vertex in 'x1' -> 'zz'"),
    ({"x1": "x6", "x6": "x2"}, {}, "vmap is not self-inverse at 'x1'"),
    ({"x1": "x6", "x6": "x1"}, {"a1": "zz"}, "amap mentions unknown arrow in 'a1' -> 'zz'"),
    ({"x1": "x6", "x6": "x1"}, {"a1": "a5", "a5": "a4"}, "amap is not self-inverse at 'a1'"),
], ids=["vertex-unknown", "vertex-not-self-inverse", "arrow-unknown", "arrow-not-self-inverse"])
def test_involution_map_faults_keep_their_messages(d5hat, vmap, amap, message):
    q, _ = d5hat
    with pytest.raises((DanglingEndpointError, NotSelfInverseError)) as exc:
        Involution(q, "bad", vmap, amap)
    assert str(exc.value) == message


def test_theta2_swap_involution(theta2):
    q, inv = theta2
    assert inv.perm == (1, 0) and not inv.amap  # swap of endpoints, arrows fixed


@pytest.mark.parametrize("make, bad", [
    (lambda: Quiver("q#1", ["x"], []), "quiver name 'q#1'"),
    (lambda: Quiver("q", ["a", "b#1"], [("a1", "a", "b#1")]), "vertex id 'b#1'"),
    (lambda: Involution(Quiver("q", ["x"], []), "t#u", {}, {}), "involution name 't#u'"),
    (lambda: Quiver("my quiver", ["x"], []), "quiver name 'my quiver'"),
    (lambda: Involution(Quiver("q", ["x"], []), "t u", {}, {}), "involution name 't u'"),
    (lambda: Quiver("q", ["a", "b", "c=d"], []), "vertex id 'c=d'"),
    (lambda: Quiver("q", ["x", "y"], [("a,1", "x", "y")]), "arrow id 'a,1'"),
    (lambda: Quiver("q", [1], []), "vertex id 1"),
    (lambda: Quiver("", ["x"], []), "quiver name ''"),
], ids=["hash-name", "hash-vertex", "hash-involution", "space-name", "space-involution",
        "equals-vertex", "comma-arrow", "int-vertex", "empty-name"])
def test_ids_the_quiver_file_cannot_carry_are_refused(make, bad):
    # each once wrote a file that parsed back as another quiver, or that the parser
    # refused, or (an int id) raised a bare TypeError in serialize_quiver
    with pytest.raises(ValueError, match=re.escape(bad) + " must be a non-empty str"):
        make()


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
    assert tau_dim(inv, tau_dim(inv, s)) == s


def test_tau_keeps_the_vector_kind(d5hat):
    q, inv = d5hat
    s = Weight(q, (-1, 0, 0, 0, 0, 2))
    assert tau_dim(inv, s) == Weight(q, (2, 0, 0, 0, 0, -1))
    a = DimVector(q, (1, 0, 0, 0, 0, 2))
    assert tau_dim(inv, a) == DimVector(q, (2, 0, 0, 0, 0, 1))


def test_tau_on_unit_vector(d5hat):
    q, inv = d5hat
    e6 = DimVector.unit(q, "x6")
    assert tau_dim(inv, e6) == DimVector.unit(q, inv.vertex("x6"))


def test_basis_roundtrip(d5hat):
    q, inv = d5hat
    basis = antisym_basis(q, inv)
    assert len(basis.swapped) == 3
    betas = [DimVector(q, b) for b in [(0, 0, 0, 0, 0, 0), (1, 2, 0, 3, 1, 0), (2, 3, 4, 4, 3, 2)]]
    for coords in [(0, 0, 0), (1, -2, 3), (-5, 4, 0)]:
        s = basis.from_coords(coords)
        assert s == -tau_dim(inv, s)
        for beta in betas:  # the antiinv rows are restrict_normal(beta) in coordinates
            normal = basis.restrict_normal(beta)
            assert weight_eval(s, beta) == sum(c * n for c, n in zip(coords, normal))


def test_tau_rejects_a_foreign_involution(d5hat, sun31):
    # D5-hat's tau names no Sun(6,1) vertex; read as the identity, it returned a unchanged
    (_, tau), (q, _) = d5hat, sun31
    for vector in (DimVector(q, (1, 2, 3, 4, 5, 6)), Weight(q, (1, -2, 3, -4, 5, -6))):
        with pytest.raises(ValueError, match="Involution bound to a different quiver"):
            tau_dim(tau, vector)


def test_basis_rejects_a_vector_of_another_quiver(d5hat, sun31):
    (q, inv), (other, _) = d5hat, sun31
    basis = antisym_basis(q, inv)
    with pytest.raises(ValueError, match="DimVector bound to a different quiver"):
        basis.restrict_normal(DimVector(other, (1, 2, 3, 4, 5, 6)))


def test_from_coords_checks_the_count(d5hat):
    with pytest.raises(ValueError, match="coordinate count does not match swapped orbit count"):
        antisym_basis(*d5hat).from_coords((1, 2))


def test_basis_fixed_vertices_forced_zero():
    q, inv = make_line(3)  # middle vertex is tau-fixed
    basis = antisym_basis(q, inv)
    s = basis.from_coords((7,))
    assert s["2"] == 0


def test_basis_representative_override(d5hat):
    q, inv = d5hat
    basis = antisym_basis(q, inv, representatives=("x3", "x2", "x1"))
    assert tuple(rep for rep, _ in basis.swapped) == ("x3", "x2", "x1")
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
    with pytest.raises(ValueError, match="DimVector bound to a different quiver"):
        euler_col(q, DimVector(sun31[0], (1, 0, 0, 0, 0, 0)))


@pytest.mark.parametrize("call", [
    lambda q, d, f: euler_form(q, f, d),
    lambda q, d, f: euler_form(q, d, f),
    lambda q, d, f: euler_col(q, f),
    lambda q, d, f: weight_eval(Weight(q, d.values), f),
    lambda q, d, f: weight_eval(Weight(f.quiver, f.values), d),
    lambda q, d, f: d + f,
    lambda q, d, f: d - f,
    lambda q, d, f: d <= f,
], ids=["euler-form-a", "euler-form-b", "euler-col", "weight-eval-alpha", "weight-eval-sigma",
        "add", "sub", "le"])
def test_a_vector_of_another_quiver_is_rejected(d5hat, sun31, call):
    # both quivers have six vertices, so an unchecked zip would pair their entries silently
    q = d5hat[0]
    d, foreign = DimVector(q, (1, 2, 0, 3, 0, 1)), DimVector(sun31[0], (1, 0, 2, 0, 0, 1))
    with pytest.raises(ValueError, match="bound to a different quiver"):
        call(q, d, foreign)


def test_euler_form_checks_the_column_weight():
    # <(0,1), (0,2^62)> = 2^62 fits, but the column of <., b> at s is -3 * 2^62
    q, _ = make_kronecker(3)
    with pytest.raises(ValueOverflowError):
        euler_form(q, DimVector(q, (0, 1)), DimVector(q, (0, 2**62)))


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
            assert weight_eval(tau_dim(inv, s), b) == weight_eval(s, tau_dim(inv, b))


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


def test_from_dict_rejects_an_unknown_vertex(d5hat):
    q, _ = d5hat
    with pytest.raises(DanglingEndpointError, match=re.escape("unknown vertices ['zz']")):
        DimVector.from_dict(q, {"x1": 1, "zz": 2})


def test_vectors_hash_by_kind_and_values_and_print_them(d5hat):
    q, _ = d5hat
    a = DimVector(q, (1, 0, 2, 0, 0, 3))
    assert hash(a) == hash(DimVector(q, (1, 0, 2, 0, 0, 3))) == hash(("DimVector", a.values))
    assert hash(Weight(q, a.values)) == hash(("Weight", a.values))
    assert len({a, DimVector(q, a.values), Weight(q, a.values)}) == 2
    assert repr(a) == "DimVector((1, 0, 2, 0, 0, 3))"
    assert repr(-Weight(q, a.values)) == "Weight((-1, 0, -2, 0, 0, -3))"

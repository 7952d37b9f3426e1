import pytest

from quiver_cones import (
    Involution,
    make_d5hat,
    make_kronecker,
    make_line,
    make_sun,
    parse_quiver_file,
    serialize_quiver,
)
from quiver_cones.errors import BadParameterError


def test_line_shape():
    q, inv = make_line(4)
    assert q.vertices == ("1", "2", "3", "4")
    assert [a[0] for a in q.arrows] == ["a1", "a2", "a3"]
    assert inv.vertex("1") == "4" and inv.arrow("a1") == "a3"


def test_line_bad_parameter():
    with pytest.raises(BadParameterError):
        make_line(0)


def test_kronecker_shape():
    q, inv = make_kronecker(3)
    assert q.vertices == ("s", "t") and len(q.arrows) == 3
    assert all(t == "s" and h == "t" for _, t, h in q.arrows)
    assert inv.vertex("s") == "t" and inv.arrow("a2") == "a2"


def test_kronecker_bad_parameter():
    with pytest.raises(BadParameterError):
        make_kronecker(0)


def test_sun_counts():
    q, invs = make_sun(3, 2)
    assert len(q.vertices) == 12 and len(q.arrows) == 12
    assert len(invs) == 2  # odd k: tau and rho


def test_sun_even_k_has_no_rho():
    q, invs = make_sun(2, 1)
    assert len(invs) == 1 and invs[0].name == "tau"


def test_sun_orientation():
    q, _ = make_sun(3, 2)
    heads = {a: h for a, _, h in q.arrows}
    tails = {a: t for a, t, _ in q.arrows}
    # ring arrows leave even positions: a0.2: 0.2 -> 1.2, a1.2: 2.2 -> 1.2
    assert tails["a0.2"] == "0.2" and heads["a0.2"] == "1.2"
    assert tails["a1.2"] == "2.2" and heads["a1.2"] == "1.2"
    # odd spokes point inward, even spokes outward
    assert tails["a1.1"] == "1.2" and heads["a1.1"] == "1.1"
    assert tails["a0.1"] == "0.1" and heads["a0.1"] == "0.2"


def test_sun_tau_reflection():
    q, invs = make_sun(3, 1)
    tau = invs[0]
    assert tau.vertex("0.1") == "1.1"
    assert tau.vertex("2.1") == "5.1"
    assert tau.vertex("3.1") == "4.1"


def test_sun_rho_rotation():
    q, invs = make_sun(3, 1)
    rho = invs[1]
    for i in range(6):
        assert rho.vertex(f"{i}.1") == f"{(i + 3) % 6}.1"


def test_sun_bad_parameters():
    with pytest.raises(BadParameterError):
        make_sun(1, 1)
    with pytest.raises(BadParameterError):
        make_sun(3, 0)


def test_d5hat_shape():
    q, inv = make_d5hat()
    assert q.vertices == ("x1", "x2", "x3", "x4", "x5", "x6")
    assert ("a3", "x3", "x4") in q.arrows
    assert inv.vertex("x1") == "x6" and inv.vertex("x2") == "x5"
    assert inv.arrow("a3") == "a3"


FAMILIES = (
    [(f"line{n}", lambda n=n: make_line(n)) for n in range(1, 9)]
    + [(f"kronecker{n}", lambda n=n: make_kronecker(n)) for n in range(1, 5)]
    + [(f"sun{k}.{n}", lambda k=k, n=n: make_sun(k, n)) for k in range(2, 8) for n in range(1, 4)]
    + [("d5hat", make_d5hat)]
)


@pytest.mark.parametrize("make", [m for _, m in FAMILIES], ids=[i for i, _ in FAMILIES])
def test_involutions_equal_their_parsed_serialization(make):
    q, invs = make()
    invs = invs if isinstance(invs, list) else [invs]
    q2, invs2 = parse_quiver_file(serialize_quiver(q, invs))
    assert q2 == q and invs2 == invs  # name, vmap and amap each


def test_every_zoo_involution_satisfies_the_axioms(monkeypatch):
    # each involution is checked when it is made, bound to the quiver made with it
    made, check = [], Involution.__post_init__
    monkeypatch.setattr(Involution, "__post_init__", lambda inv: check(inv) or made.append(inv))
    for _, make in FAMILIES:
        q, invs = make()
        for inv in invs if isinstance(invs, list) else [invs]:
            assert inv.quiver is q and any(inv is m for m in made)
    assert len(made) == 40

"""Pre-validated constructors for the quiver families used throughout.

All constructors return quivers together with their involutions, already
checked against validate_quiver / validate_involution.
"""

from .errors import BadParameterError
from .quiver import Involution, Quiver, validate_involution


def make_line(n):
    """Oriented straight quiver 1 -> 2 -> ... -> n with the reversal involution."""
    if n < 1:
        raise BadParameterError("line quiver needs n >= 1")
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    q = Quiver(f"A{n}", vertices, arrows)
    inv = Involution.from_pairs(
        "tau",
        ((str(i), str(n + 1 - i)) for i in range(1, n + 1)),
        ((f"a{i}", f"a{n - i}") for i in range(1, n)),
    )
    validate_involution(q, inv)
    return q, inv


def make_kronecker(n):
    """Two vertices s, t with n parallel arrows; the involution swaps s and t."""
    if n < 1:
        raise BadParameterError("Kronecker quiver needs n >= 1")
    arrows = [(f"a{i}", "s", "t") for i in range(1, n + 1)]
    q = Quiver(f"Theta{n}", ["s", "t"], arrows)
    inv = Involution.from_pairs("tau", [("s", "t")], [])
    validate_involution(q, inv)
    return q, inv


def make_sun(k, n):
    """(2k, n)-Sun quiver with its reflection involution tau and, for odd k,
    the half-rotation rho.

    Vertices are "i.j" for i in 0..2k-1 (ring position) and j in 1..n
    (distance along the spoke, j = n on the ring).  Ring arrows leave the
    even ring vertices; odd spokes point inward, even spokes outward.
    Returns (quiver, [tau] or [tau, rho]).
    """
    if k < 2 or n < 1:
        raise BadParameterError("Sun quiver needs k >= 2 and n >= 1")
    mod = 2 * k
    vid = lambda i, j: f"{i % mod}.{j}"
    aid = lambda i, j: f"a{i % mod}.{j}"
    vertices = [vid(i, j) for i in range(mod) for j in range(1, n + 1)]
    arrows = []
    for i in range(mod):
        for j in range(1, n + 1):
            if i % 2 == 1:
                if j == n:
                    arrows.append((aid(i, n), vid(i + 1, n), vid(i, n)))
                else:
                    arrows.append((aid(i, j), vid(i, j + 1), vid(i, j)))
            else:
                if j == n:
                    arrows.append((aid(i, n), vid(i, n), vid(i + 1, n)))
                else:
                    arrows.append((aid(i, j), vid(i, j), vid(i, j + 1)))
    q = Quiver(f"Sun{mod}.{n}", vertices, arrows)

    tau = Involution.from_pairs(
        "tau",
        ((vid(i, j), vid(1 - i, j)) for i in range(mod) for j in range(1, n + 1)),
        [(aid(i, n), aid(-i, n)) for i in range(mod)]
        + [(aid(i, j), aid(1 - i, j)) for i in range(mod) for j in range(1, n)],
    )
    validate_involution(q, tau)
    invs = [tau]
    if k % 2 == 1:
        rho = Involution.from_pairs(
            "rho",
            ((vid(i, j), vid(i + k, j)) for i in range(k) for j in range(1, n + 1)),
            ((aid(i, j), aid(i + k, j)) for i in range(k) for j in range(1, n + 1)),
        )
        validate_involution(q, rho)
        invs.append(rho)
    return q, invs


def make_d5hat():
    """The six-vertex D5-hat quiver x1,x2 -> x3 -> x4 -> x5,x6 with its involution.

    The quiver carries two involutions, images of each other under the
    automorphism swapping the two sources (equivalently the two sinks); the
    one returned here pairs x1 with x6 and x2 with x5, which is the choice
    under which the reference dimension vectors (a,b,c,c,b,a) are symmetric.
    """
    q = Quiver(
        "D5hat",
        ["x1", "x2", "x3", "x4", "x5", "x6"],
        [
            ("a1", "x1", "x3"),
            ("a2", "x2", "x3"),
            ("a3", "x3", "x4"),
            ("a4", "x4", "x5"),
            ("a5", "x4", "x6"),
        ],
    )
    inv = Involution.from_pairs(
        "tau", [("x1", "x6"), ("x2", "x5"), ("x3", "x4")], [("a1", "a5"), ("a2", "a4")]
    )
    validate_involution(q, inv)
    return q, inv

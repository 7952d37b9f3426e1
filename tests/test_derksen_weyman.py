"""Derksen-Weyman's spanning theorem as an oracle on every quiver (tests/oracle.py).

sigma = <beta, .> with beta >= 0 gives two reads of two different sets that must
agree: ext(beta, alpha), the subrepresentation formula over S_beta, and
disc(alpha, sigma) - sigma(alpha), the quotient formula over S_alpha
(ext(beta, alpha) = max over generic quotients a'' of alpha of -<beta, a''>, with
a'' = alpha - b for b in S_alpha).  Where sigma(alpha) = 0 this is the disc that
member_dw reads, and sigma is a member iff ext(beta, alpha) = 0; a sigma whose
beta = sigma E^-1 has a negative entry is no member.
"""

import random

import pytest

from quiver_cones import ExtTable, Weight, make_d5hat, make_kronecker, make_sun, member_dw

import oracle
from goldens import D5HAT_TABLE, SUN61_TABLE

CASES = [
    ("d5hat", make_d5hat()[0], [row[0] for row in D5HAT_TABLE]),
    ("sun61", make_sun(3, 1)[0], [row[0] for row in SUN61_TABLE]),
    ("kronecker3", make_kronecker(3)[0], [(8, 12), (12, 8), (5, 5), (3, 7)]),
    ("t3", *(lambda q, beta: (q, [beta]))(*oracle.triple_flag(3))),
]
# the betas read stay small, so no build of box(beta) comes near a budget
_BETA_MASS = 12


def _weight(q, beta):
    """<beta, .> as a tuple, from the arrows alone."""
    b = dict(zip(q.vertices, beta))
    sigma = dict(b)
    for _, t, h in q.arrows:
        sigma[h] -= b[t]
    return tuple(sigma[v] for v in q.vertices)


def _balanced(rng, alpha):
    """A seeded sigma with entries about in [-3, 3] and sigma(alpha) = 0."""
    while True:
        sigma = [rng.randint(-3, 3) for _ in alpha]
        rest = sum(s * a for s, a in zip(sigma, alpha))
        fix = [v for v, a in enumerate(alpha) if a and rest % a == 0]
        if fix:
            v = rng.choice(fix)
            sigma[v] -= rest // alpha[v]
            return tuple(sigma)


@pytest.mark.parametrize("name, q, alphas", CASES, ids=[c[0] for c in CASES])
def test_ext_over_s_beta_is_disc_over_s_alpha(name, q, alphas):
    rng = random.Random(f"derksen-weyman:{name}")
    by_alpha, by_beta = ExtTable(q), ExtTable(q)  # the reads of S_alpha and of S_beta, apart
    rejected = 0
    draws = max(12, 48 // len(alphas))
    for alpha in alphas:
        for _ in range(draws):
            beta = tuple(rng.randint(0, 2) for _ in q.vertices)
            sigma = _weight(q, beta)
            assert oracle.euler_inverse(q, sigma) == beta
            value = sum(s * a for s, a in zip(sigma, alpha))
            assert by_beta.ext(beta, alpha) == by_alpha.disc(alpha, sigma) - value, (alpha, beta)
        for _ in range(draws):
            sigma = _balanced(rng, alpha)
            beta = oracle.euler_inverse(q, sigma)
            verdict = bool(member_dw(by_alpha, Weight(q, sigma), alpha))
            if min(beta) < 0:
                assert not verdict, (alpha, sigma)
                rejected += 1
            elif sum(beta) <= _BETA_MASS:
                ext = by_beta.ext(beta, alpha)
                assert ext == by_alpha.disc(alpha, sigma), (alpha, sigma)
                assert verdict == (ext == 0), (alpha, sigma)
    assert rejected  # the sample reaches the beta < 0 rejection


def test_littlewood_richardson_weights_of_t3_have_beta_at_least_0():
    # every weight of the cone of T3 at beta(3) is <beta, .> with beta >= 0; where
    # beta is small, ext(beta, alpha) = 0 is the Littlewood-Richardson verdict
    q, alpha = oracle.triple_flag(3)
    by_alpha, by_beta = ExtTable(q), ExtTable(q)
    triples = random.Random("derksen-weyman:lr").sample(list(oracle.lr_triples(3, 6)), 120)
    verdicts = []
    for a, b, c, nu in triples:
        sigma = oracle.lr_weight(3, a, b, c)
        beta = oracle.euler_inverse(q, sigma)
        assert min(beta) >= 0 and _weight(q, beta) == sigma
        if sum(beta) <= _BETA_MASS:
            ext = by_beta.ext(beta, alpha)
            assert ext == by_alpha.disc(alpha, sigma)
            verdicts.append(oracle.lr_coefficient(a, b, nu) != 0)
            assert (ext == 0) == verdicts[-1], (a, b, c)
    assert len(verdicts) >= 20 and 0 < sum(verdicts) < len(verdicts)

"""Membership in the cone of the triple-flag quiver against Littlewood-Richardson
coefficients, an oracle that shares no code with the table (tests/oracle.py)."""

import random

import pytest

from quiver_cones import (
    DimVector,
    ExtTable,
    Weight,
    inequalities,
    irredundant_core,
    member_dw,
    member_inductive,
    redundancy,
    weight_eval,
)

import oracle


def test_lr_counter_known_values():
    assert oracle.lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert oracle.lr_coefficient((2, 1), (2, 1), (4, 2)) == 1
    assert oracle.lr_coefficient((1,), (1,), (1, 1)) == 1
    assert oracle.lr_coefficient((2,), (1, 1), (2, 2)) == 0  # (2) does not fit in (2, 2) with (1, 1)
    assert oracle.lr_coefficient((3,), (1,), (2, 2)) == 0  # (3) is not inside (2, 2)


@pytest.fixture(scope="module")
def t4():
    """T4 at beta(4), its table and a seeded sample of 300 of its 2 328 triples."""
    q, beta = oracle.triple_flag(4)
    sample = random.Random("lr-t4").sample(list(oracle.lr_triples(4, 6)), 300)
    return q, ExtTable(q), DimVector(q, beta), sample


def test_triple_flag_membership_matches_littlewood_richardson(t4):
    # T3: every triple with |a|, |b|, |c| <= 6, by both tests and by the reduced rows
    q, beta = oracle.triple_flag(3)
    t, alpha = ExtTable(q), DimVector(q, beta)
    triples = list(oracle.lr_triples(3, 6))
    expected = [oracle.lr_coefficient(a, b, nu) != 0 for a, b, _, nu in triples]
    assert (len(triples), sum(expected)) == (1142, 496)
    weights = [Weight(q, oracle.lr_weight(3, a, b, c)) for a, b, c, _ in triples]
    for member in (member_dw, member_inductive):
        assert [bool(member(t, s, alpha)) for s in weights] == expected, member.__name__
    for method, rows in (("dw", 186), ("inductive", 101)):
        system = inequalities(t, alpha, method)
        core = irredundant_core(system)
        assert (len(system.normals), len(core.normals)) == (rows, 18), method
        # every weight here has sigma(alpha) = 0, so the kept rows alone decide
        verdicts = [all(weight_eval(s, b) <= 0 for b in core.normals) for s in weights]
        assert verdicts == expected, method
    # T4: a seeded sample of its 2 328 triples; faults in the build that T3 is too
    # small to show (such as a push accepting a column minimum of -1) show here
    q, t, alpha, sample = t4
    verdicts = [(bool(member_inductive(t, Weight(q, oracle.lr_weight(4, a, b, c)), alpha)),
                 oracle.lr_coefficient(a, b, nu) != 0) for a, b, c, nu in sample]
    assert sum(lr for _, lr in verdicts) > 50
    assert [got for got, _ in verdicts] == [lr for _, lr in verdicts]


def test_triple_flag_t4_core_matches_littlewood_richardson(t4, monkeypatch):
    # |supp beta(4)| - 1 = 9 is one over the exact-LP guard of the command line
    monkeypatch.setattr(redundancy, "_MAX_AMBIENT_DIM", 9)
    q, t, alpha, sample = t4
    system = inequalities(t, alpha, "inductive")
    core = irredundant_core(system)
    assert (len(system.normals), len(core.normals)) == (894, 50)
    verdicts = [all(weight_eval(Weight(q, oracle.lr_weight(4, a, b, c)), beta) <= 0
                    for beta in core.normals) for a, b, c, _ in sample]
    assert verdicts == [oracle.lr_coefficient(a, b, nu) != 0 for a, b, _, nu in sample]
    assert irredundant_core(inequalities(t, alpha, "dw")).normals == core.normals

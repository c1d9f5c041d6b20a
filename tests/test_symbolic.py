"""Coefficient conditions and the top-degree shift classifier."""

import numpy as np
import pytest

from simonstruct.boolfn import Anf, TruthTable, anf_of, derivative, parse_anf, tt_of
from simonstruct.gf2 import BitVector
from simonstruct.symbolic import (
    SymbolicCondition,
    classify_top,
    derivative_anf,
    solution_mask,
    theorem2_system,
)

from _oracles import structure_sets_def


def random_anf(n, rng):
    table = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
    return anf_of(TruthTable(n, table))


def test_derivative_anf_matches_table_route():
    rng = np.random.default_rng(60)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        a = random_anf(n, rng)
        s = BitVector(n, int(rng.integers(0, 1 << n)))
        via_anf = tt_of(derivative_anf(a, s))
        via_table = derivative(tt_of(a), s)
        assert via_anf == via_table


def test_derivative_anf_zero_shift_is_zero():
    rng = np.random.default_rng(61)
    a = random_anf(5, rng)
    assert derivative_anf(a, BitVector(5, 0)).monomials == frozenset()
    with pytest.raises(ValueError):
        derivative_anf(a, BitVector(4, 0))


def test_solution_mask_equals_structure_subspace():
    rng = np.random.default_rng(62)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = random_anf(n, rng)
        mask = solution_mask(theorem2_system(a), n)
        u0, _ = structure_sets_def(tt_of(a).table)
        assert set(np.nonzero(mask)[0]) == u0


def test_conditions_mean_derivative_is_the_zero_function():
    rng = np.random.default_rng(63)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        a = random_anf(n, rng)
        conditions = theorem2_system(a)
        for s in range(1 << n):
            solves = all(c.evaluate(s) == 0 for c in conditions)
            zero = not derivative_anf(a, BitVector(n, s)).monomials
            assert solves == zero
            assert solves == bool(solution_mask(conditions, n)[s])


def test_constant_one_derivative_fails_only_the_empty_condition():
    a = parse_anf("x1*x2 + x1*x3 + x2*x3", 3)
    conditions = theorem2_system(a)
    s = 0b111
    for c in conditions:
        if c.x_monomial:
            assert c.evaluate(s) == 0
        else:
            assert c.evaluate(s) == 1
    # so 111 shifts f by the constant one: a one-constant structure that
    # must not be accepted as a zero-constant one
    d = derivative_anf(a, BitVector(3, s))
    assert d.monomials == frozenset({0})
    assert not solution_mask(conditions, 3)[s]


def test_system_is_sorted_and_keyed_by_proper_subsets():
    a = parse_anf("x1*x2*x3", 3)
    conditions = theorem2_system(a)
    keys = [c.x_monomial for c in conditions]
    assert keys == sorted(keys)
    assert keys[0] == 0
    assert len(keys) == len(set(keys)) == 7
    by_key = {c.x_monomial: c.monomials for c in conditions}
    assert by_key[0b011] == frozenset({0b100})
    assert by_key[0] == frozenset({0b111})


def test_classifier_rule1_full_monomial():
    v = classify_top(parse_anf("x1*x2*x3*x4 + x1", 4))
    assert v.case == "rule1"
    assert v.forced_s.bits == 0


def test_classifier_rule2_reads_coefficients():
    v = classify_top(parse_anf("x1*x2 + x2*x3", 3))
    assert v.case == "rule2"
    # omitting x1 hits a present monomial, omitting x2 does not, x3 does
    assert v.forced_s.bits == 0b101
    w = classify_top(parse_anf("x1*x2 + x1*x3 + x2*x3", 3))
    assert w.case == "rule2"
    assert w.forced_s.bits == 0b111


def test_classifier_even_gap_rules():
    n = 4
    pairs = " + ".join(f"x{i}*x{j}" for i in range(1, 5) for j in range(i + 1, 5))
    v = classify_top(parse_anf(pairs, n))
    assert v.case == "rule3"
    assert v.forced_s.bits == 0
    n = 6
    pairs = " + ".join(f"x{i}*x{j}" for i in range(1, 7) for j in range(i + 1, 7))
    w = classify_top(parse_anf(pairs, n))
    assert w.case == "rule4"
    assert w.forced_s.bits == 0


def test_classifier_odd_gap_forces_all_ones():
    pairs = " + ".join(f"x{i}*x{j}" for i in range(1, 6) for j in range(i + 1, 6))
    v = classify_top(parse_anf(pairs, 5))
    assert v.case == "rule5"
    assert v.forced_s.bits == 0b11111


def test_classifier_undetermined_cases():
    assert classify_top(parse_anf("x1 + x2", 3)).case == "none"
    assert classify_top(parse_anf("0", 3)).case == "none"
    # incomplete top two degrees below n matches no pattern
    assert classify_top(parse_anf("x1*x2", 4)).case == "none"


def test_classifier_is_sound_on_random_functions():
    # whenever a verdict forces a vector, no other nonzero shift may be a
    # zero-constant structure
    rng = np.random.default_rng(64)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(2, 6))
        a = random_anf(n, rng)
        v = classify_top(a)
        if v.forced_s is None:
            continue
        checked += 1
        u0, _ = structure_sets_def(tt_of(a).table)
        assert u0 - {0} <= {v.forced_s.bits}
    assert checked > 50


def test_forced_vector_membership_is_not_guaranteed():
    # rule2's forced 111 here is a one-constant structure, not zero-constant
    a = parse_anf("x1*x2 + x1*x3 + x2*x3", 3)
    v = classify_top(a)
    u0, u1 = structure_sets_def(tt_of(a).table)
    assert v.forced_s.bits not in u0
    assert v.forced_s.bits in u1


def test_lemma1_on_generated_conditions():
    # a multilinear GF(2) polynomial vanishes at every point only by having
    # no monomials
    rng = np.random.default_rng(65)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = random_anf(n, rng)
        for c in theorem2_system(a) + [SymbolicCondition(n, 0, frozenset())]:
            assert solution_mask([c], n).all() == (not c.monomials)


def test_solution_mask_no_conditions_accepts_everything():
    mask = solution_mask([], 4)
    assert mask.all()
    assert mask.shape == (16,)
    # the empty system still obeys the dimension cap
    with pytest.raises(ValueError):
        solution_mask([], 25)

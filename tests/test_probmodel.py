"""Exact rational probability model, dual computation routes, trial bounds."""

import math
from fractions import Fraction

import pytest

from simonstruct.probmodel import (
    _log2_fraction,
    p_full_exact,
    prob_table,
    pseudo_confirm_prob,
    q_direct_row,
    q_exact,
    rank_success_rate,
    required_trials,
    success_prob_exact,
)

from _oracles import rank_prob_exhaustive, spanning_prob_closed


def test_base_case_closed_form():
    for i in range(31):
        assert q_exact(1, i) == 2 - Fraction(1, 1 << i)


def test_recurrence_matches_direct_sum():
    for n in range(1, 5):
        for i in range(7):
            assert q_exact(n, i) == q_direct_row(n, i)[i]


def test_direct_row_does_not_depend_on_its_length():
    for n in range(1, 5):
        full = q_direct_row(n, 6)
        for i in range(7):
            assert q_direct_row(n, i) == full[: i + 1]


def test_known_small_values():
    assert q_exact(1, 2) == Fraction(7, 4)
    assert q_exact(2, 1) == Fraction(7, 4)
    assert q_exact(2, 2) == Fraction(35, 16)
    assert p_full_exact(1) == Fraction(1, 2)
    assert p_full_exact(2) == Fraction(3, 8)
    assert p_full_exact(3) == Fraction(21, 64)


def test_q_grows_toward_the_full_rank_reciprocal():
    for n in (1, 2, 4, 6):
        values = [q_exact(n, i) for i in range(12)]
        assert all(a < b for a, b in zip(values, values[1:]))
        tail = q_exact(n, 60) * p_full_exact(n)
        assert 1 - Fraction(1, 1 << 40) < tail < 1


def test_success_prob_matches_telescoped_product():
    # independent closed form: k uniform draws span with probability
    # prod_{j=k-n+1}^{k} (1 - 2^-j)
    for n in range(1, 7):
        for k in range(n, n + 9):
            assert success_prob_exact(n, k) == spanning_prob_closed(n, k)


def test_success_prob_validation_and_float_view():
    with pytest.raises(ValueError):
        success_prob_exact(4, 3)
    assert float(success_prob_exact(2, 2)) == 0.375
    assert float(success_prob_exact(2, 3)) == 0.65625


def test_exact_routes_refuse_n_past_the_dimension_cap():
    # the recurrence is n calls deep: past the cap it would reach Python's recursion limit
    for call in (lambda: p_full_exact(25), lambda: q_exact(25, 0), lambda: success_prob_exact(400, 400)):
        with pytest.raises(ValueError, match="1..24"):
            call()
    for call in (lambda: p_full_exact(0), lambda: q_exact(0, 1), lambda: q_exact(2, -1)):
        with pytest.raises(ValueError):
            call()
    assert p_full_exact(24) > 0 and q_exact(24, 1) > 1


def test_direct_route_caps():
    with pytest.raises(ValueError):
        q_direct_row(9, 1)
    with pytest.raises(ValueError):
        q_direct_row(1, 13)


def test_prob_table_shape_and_monotonicity():
    table = prob_table(4, 12)
    ks = [k for k, _, _ in table]
    assert ks == list(range(4, 13))
    s_vals = [s for _, s, _ in table]
    h_vals = [h for _, _, h in table]
    assert all(a < b for a, b in zip(s_vals, s_vals[1:]))
    assert all(a > b for a, b in zip(h_vals, h_vals[1:]))
    p = float(p_full_exact(4))
    assert table[0] == (4, pytest.approx(p), pytest.approx(math.log2(1 - p)))
    with pytest.raises(ValueError):
        prob_table(4, 3)


def test_log2_fraction_handles_underflow():
    assert _log2_fraction(Fraction(3, 4)) == pytest.approx(math.log2(0.75))
    assert _log2_fraction(Fraction(1, 1 << 2000)) == pytest.approx(-2000)
    assert _log2_fraction(Fraction(5, 1)) == pytest.approx(math.log2(5))
    with pytest.raises(ValueError):
        _log2_fraction(Fraction(0))


def test_pseudo_confirm_prob_formula():
    for n, r, l, p in [(4, 1, 1, 1), (8, 3, 4, 2), (10, 1, 10, 5)]:
        exact = (1 - Fraction(r, 1 << n)) ** ((l + 1) * p)
        assert pseudo_confirm_prob(n, r, l, p) == pytest.approx(float(exact), rel=1e-12)
    assert pseudo_confirm_prob(4, 0, 2, 3) == 1.0
    assert pseudo_confirm_prob(4, 16, 2, 3) == 0.0
    with pytest.raises(ValueError):
        pseudo_confirm_prob(4, 17, 2, 3)
    with pytest.raises(ValueError):
        pseudo_confirm_prob(4, 1, 0, 3)


def test_required_trials_sandwich_and_sufficiency():
    for n, r, l, beta in [(8, 1, 4, 1.0), (10, 5, 10, 2.0), (12, 100, 3, 0.5)]:
        got = required_trials(n, r, l, beta)
        assert got.lower <= got.bound <= got.upper
        p = math.ceil(got.bound)
        target = 2.0 ** (-beta * n)
        assert pseudo_confirm_prob(n, r, l, p) <= target * (1 + 1e-9)
    with pytest.raises(ValueError):
        required_trials(8, 0, 4, 1.0)
    with pytest.raises(ValueError):
        required_trials(8, 128, 4, 1.0)
    with pytest.raises(ValueError):
        required_trials(8, 1, 4, 0.0)


def test_rank_success_rate_against_exhaustive_count():
    # n = 2, k = 3 is small enough to count every tuple exactly
    truth = float(rank_prob_exhaustive(2, 3))
    trials = 4000
    rate = rank_success_rate(2, 3, trials, seed=1)
    se = (truth * (1 - truth) / trials) ** 0.5
    assert abs(rate - truth) <= 4 * se
    assert rank_success_rate(2, 3, trials, seed=1) == rate
    with pytest.raises(ValueError):
        rank_success_rate(2, 3, 0)

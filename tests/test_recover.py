"""End-to-end recovery loops on planted ground truth."""

import numpy as np
import pytest

from simonstruct.boolfn import PlantSpec, plant_periods, plant_r_type, plant_structure
from simonstruct.gf2 import span_equal, span_of
from simonstruct.oracle import brute_structures
from simonstruct.recover import (
    RunConfig,
    _independent_anchors,
    find_periods,
    find_structure_iterative,
    find_structure_simple,
)

from _oracles import naive_rank, popcount


def planted(n, dim, seed):
    rng = np.random.default_rng(seed)
    while True:
        basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=dim)])
        if basis.dim == dim:
            return basis, plant_structure(PlantSpec(n, basis, seed=seed))


def test_simple_recovers_planted_span():
    for seed in range(12):
        n, dim = 8, 1 + seed % 3
        basis, f = planted(n, dim, seed)
        report = find_structure_simple(f, RunConfig(seed=seed), oracle_check=True)
        assert span_equal(report.candidate, basis)
        assert report.verified
        assert not report.pseudo_flag
        assert report.oracle_checked
        assert report.stabilized
        assert report.witness is None
        assert report.rounds_used == len(report.ys_collected.rows)


def test_iterative_recovers_planted_span():
    for seed in range(8):
        n, dim = 9, 1 + seed % 3
        basis, f = planted(n, dim, 100 + seed)
        report = find_structure_iterative(f, RunConfig(seed=seed), oracle_check=True)
        assert span_equal(report.candidate, basis)
        assert report.verified and report.stabilized
        assert not report.pseudo_flag


def test_collected_ys_are_orthogonal_to_truth():
    basis, f = planted(8, 2, 7)
    report = find_structure_simple(f, RunConfig(seed=3))
    for y in report.ys_collected.rows:
        for b in basis.basis.rows:
            assert popcount(y.bits & b.bits) % 2 == 0
    assert not report.oracle_checked
    assert not report.pseudo_flag


def test_candidate_always_contains_truth():
    # ys are exactly orthogonal to every true structure, so even a starved
    # run can only overestimate the span, never miss part of it
    basis, f = planted(8, 2, 15)
    report = find_structure_simple(f, RunConfig(seed=1, rounds_cap=3))
    for b in basis.basis.rows:
        assert report.candidate.contains(b)
    assert report.rounds_used <= 3


def test_starved_run_reports_not_stabilized():
    _, f = planted(8, 1, 21)
    report = find_structure_simple(f, RunConfig(seed=2, rounds_cap=2))
    assert not report.stabilized


def test_pseudo_structure_is_flagged_under_oracle_check():
    flagged = 0
    for seed in range(10):
        basis, f = planted(12, 1, 200 + seed)
        g = plant_r_type(f, 1, seed=seed)
        truth = brute_structures(g).u0
        report = find_structure_simple(
            g, RunConfig(seed=seed, verify_p=8), oracle_check=True
        )
        expect_pseudo = report.verified and not span_equal(report.candidate, truth)
        assert report.pseudo_flag == expect_pseudo
        flagged += report.pseudo_flag
    assert flagged >= 5


def test_find_periods_recovers_planted_span():
    rng = np.random.default_rng(50)
    for seed in range(12):
        n = int(rng.integers(5, 11))
        dim = 1 + seed % 3
        while True:
            basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=dim)])
            if basis.dim == dim:
                break
        F = plant_periods(n, basis, seed=seed)
        report = find_periods(F, RunConfig(seed=seed))
        assert span_equal(report.span, basis)
        assert report.stabilized
        assert report.verified and report.witness is None
        assert report.rounds_used == len(report.ys_collected.rows)


def test_a_short_periods_pass_is_caught_by_verification():
    # one round leaves a span of dim >= n - 1, far above the planted one
    for seed, (n, dim) in enumerate([(6, 1), (6, 2), (8, 3), (10, 2)]):
        basis = span_of(n, [1 << j for j in range(dim)])
        F = plant_periods(n, basis, seed=seed)
        report = find_periods(F, RunConfig(rounds_cap=1, seed=seed))
        assert report.span.dim > dim and not report.stabilized
        assert report.verified is False
        x, b = report.witness
        assert F(x.bits) != F(x.bits ^ b.bits)
        assert b in report.span.basis.rows


@pytest.mark.parametrize("run", [find_structure_simple, find_structure_iterative])
def test_edge_dimensions_are_recovered_under_oracle_check(run):
    # n = 1 and the extremes dim = 0 (no structure) and dim = n (constant f)
    for n in (1, 2, 4):
        for dim in range(n + 1):
            basis, f = planted(n, dim, 10 * n + dim)
            report = run(f, RunConfig(seed=dim), oracle_check=True)
            assert span_equal(report.candidate, basis), (n, dim)
            assert report.verified and not report.pseudo_flag and report.oracle_checked


def test_find_periods_recovers_the_full_space():
    # dim = n: F is constant, every draw is y = 0 and the null space is everything
    for n in range(2, 5):
        basis = span_of(n, [1 << j for j in range(n)])
        report = find_periods(plant_periods(n, basis, seed=n), RunConfig(seed=n))
        assert span_equal(report.span, basis) and report.span.dim == n
        assert report.stabilized


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(rounds_cap=0).resolved(8)
    with pytest.raises(ValueError):
        RunConfig(verify_p=-1).resolved(8)
    res = RunConfig().resolved(8)
    assert res.rounds_cap == 64
    assert res.verify_p == 64


def test_independent_anchors_have_full_rank():
    rng = np.random.default_rng(51)
    for n, count in [(6, 6), (9, 4), (12, 12)]:
        anchors = _independent_anchors(n, count, rng)
        assert len(anchors) == count
        assert naive_rank([a.bits for a in anchors]) == count
    for count in (5, -3):
        with pytest.raises(ValueError):
            _independent_anchors(4, count, rng)


def test_same_seed_same_report():
    _, f = planted(8, 2, 33)
    a = find_structure_simple(f, RunConfig(seed=9))
    b = find_structure_simple(f, RunConfig(seed=9))
    assert span_equal(a.candidate, b.candidate)
    assert a.rounds_used == b.rounds_used
    assert a.ys_collected.row_ints() == b.ys_collected.row_ints()

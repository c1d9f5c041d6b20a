"""Acceptance gate: ten desk-scale checks, one PASS/FAIL line each.

Every check prints a single summary line (shown live, outside pytest's
capture) and then asserts, so a red run still names the criterion that
broke and the margin it broke by.
"""

import hashlib
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from simonstruct.boolfn import (
    Anf,
    PlantSpec,
    TruthTable,
    anf_of,
    parse_anf,
    plant_periods,
    plant_r_type,
    plant_structure,
    tt_of,
)
from simonstruct.gf2 import BitMatrix, BitVector, null_space_basis, span_equal, span_of
from simonstruct.oracle import anchored_confirm, brute_structures, violation_points
from simonstruct.probmodel import (
    prob_table,
    q_direct_row,
    q_exact,
    rank_success_rate,
    success_prob_exact,
)
from simonstruct.recover import (
    RunConfig,
    find_periods,
    find_structure_iterative,
    find_structure_simple,
)
from simonstruct.sat3 import (
    Cnf3,
    cnf_satisfiable,
    equisat_check,
    theorem4_instance,
    theorem4_verify,
)
from simonstruct.simulate import collapse, quantum_solve, sample_y
from simonstruct.symbolic import classify_top, solution_mask, theorem2_system

from _oracles import popcount


@pytest.fixture
def announce(capfd):
    def _announce(line):
        with capfd.disabled():
            print(line, flush=True)

    return _announce


def exact_dim_basis(n, dim, rng):
    while True:
        basis = span_of(n, [int(v) for v in rng.integers(1, 1 << n, size=dim)])
        if basis.dim == dim:
            return basis


def test_criterion_01_dual_route_rank_tail(announce):
    t0 = time.perf_counter()
    base_ok = all(q_exact(1, i) == 2 - Fraction(1, 1 << i) for i in range(31))
    worst = 0.0
    for n in range(1, 9):
        row = q_direct_row(n, 12)
        for i in range(13):
            worst = max(worst, abs(float(q_exact(n, i)) - float(row[i])))
    elapsed = time.perf_counter() - t0
    ok = base_ok and worst <= 1e-12 and elapsed < 1.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 1: closed form i<=30 "
        f"{'exact' if base_ok else 'BROKEN'}, recurrence vs direct sum "
        f"max|diff|={worst:.2e} (n<=8, i<=12), {elapsed:.2f}s"
    )
    assert base_ok
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_success_curve_shape(announce):
    t0 = time.perf_counter()
    shape_ok = True
    mc_ok = True
    details = []
    for n in (4, 8, 12):
        table = prob_table(n, n + 16)
        s_vals = [s for _, s, _ in table.rows]
        h_vals = [h for _, _, h in table.rows]
        shape_ok &= all(a < b for a, b in zip(s_vals, s_vals[1:]))
        shape_ok &= all(a > b for a, b in zip(h_vals, h_vals[1:]))
        shape_ok &= float(success_prob_exact(n, n + 8)) > 0.99 * (1 - 2.0**-8)
        k = n + 2
        expect = float(success_prob_exact(n, k))
        rate = rank_success_rate(n, k, 10_000, seed=n)
        se = math.sqrt(expect * (1 - expect) / 10_000)
        mc_ok &= abs(rate - expect) <= 3 * se
        details.append(f"n={n}: |mc-exact|={abs(rate - expect):.4f} vs 3se={3 * se:.4f}")
    elapsed = time.perf_counter() - t0
    ok = shape_ok and mc_ok and elapsed < 30.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 2: monotone s/h and "
        f"s(n,n+8)>0.99*(1-2^-8) {'hold' if shape_ok else 'BROKEN'}; "
        f"{'; '.join(details)}; {elapsed:.1f}s"
    )
    assert shape_ok
    assert mc_ok
    assert elapsed < 30.0


def _orthogonality_violations(f, u0_members, ys):
    bad = 0
    for y in ys:
        for b in u0_members:
            if popcount(y.bits & b) % 2:
                bad += 1
    return bad


def test_criterion_03_sampled_ys_orthogonal(announce):
    t0 = time.perf_counter()
    violations = 0
    functions = 0
    sampled = 0
    rng = np.random.default_rng(0xA3)
    # exhaustive sweep: every Boolean function for n = 1..4
    for n in range(1, 5):
        size = 1 << n
        anchors = [BitVector(n, min(1, size - 1))]
        for code in range(1 << size):
            table = [(code >> i) & 1 for i in range(size)]
            f = TruthTable(n, table)
            u0 = [int(v) for v in brute_structures(f).u0.member_ints()]
            out = collapse(f, anchors, seed=rng)
            ys = [sample_y(out, seed=rng) for _ in range(2)]
            violations += _orthogonality_violations(f, u0, ys)
            functions += 1
            sampled += len(ys)
    # random sweep at working sizes
    for n in (8, 12):
        for trial in range(1000):
            f = TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
            u0 = [int(v) for v in brute_structures(f).u0.member_ints()]
            anchors = [BitVector(n, int(v)) for v in rng.integers(0, 1 << n, size=3)]
            out = collapse(f, anchors, seed=rng)
            ys = [sample_y(out, seed=rng) for _ in range(8)]
            violations += _orthogonality_violations(f, u0, ys)
            functions += 1
            sampled += len(ys)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 300.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 3: {functions} functions "
        f"({sum(1 << (1 << n) for n in range(1, 5))} exhaustive + 2000 random), "
        f"{sampled} sampled ys, {violations} orthogonality violations, {elapsed:.1f}s"
    )
    assert violations == 0
    assert elapsed < 300.0


def test_criterion_04_end_to_end_recovery(announce):
    t0 = time.perf_counter()
    cells = []
    silent_wrong = 0
    for n in (8, 10, 12):
        for dim in (1, 2, 3):
            good_simple = 0
            good_iter = 0
            for trial in range(100):
                seed = 10_000 * n + 100 * dim + trial
                rng = np.random.default_rng(seed)
                basis = exact_dim_basis(n, dim, rng)
                f = plant_structure(PlantSpec(n, basis, seed=seed))
                for variant, counter in (
                    (find_structure_simple, "simple"),
                    (find_structure_iterative, "iter"),
                ):
                    rep = variant(f, RunConfig(seed=seed), oracle_check=True)
                    hit = span_equal(rep.candidate, basis)
                    if hit:
                        if counter == "simple":
                            good_simple += 1
                        else:
                            good_iter += 1
                    elif rep.verified and not rep.pseudo_flag:
                        silent_wrong += 1
            cells.append((n, dim, good_simple, good_iter))
    elapsed = time.perf_counter() - t0
    worst = min(min(gs, gi) for _, _, gs, gi in cells)
    ok = worst >= 99 and silent_wrong == 0 and elapsed < 300.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 4: 100 planted runs per "
        f"(n, dim), worst cell {worst}/100 for both variants, "
        f"{silent_wrong} silent wrong answers under oracle check, {elapsed:.1f}s"
    )
    assert worst >= 99, cells
    assert silent_wrong == 0
    assert elapsed < 300.0


def test_criterion_05_pseudo_confirmation_rate(announce):
    t0 = time.perf_counter()
    n, l = 10, 10
    results = []
    all_ok = True
    for r in (1, 4, 16):
        rng = np.random.default_rng(500 + r)
        alpha_bits = int(rng.integers(1, 1 << n))
        basis = span_of(n, [alpha_bits])
        f = plant_structure(PlantSpec(n, basis, seed=600 + r))
        g = plant_r_type(f, r, seed=700 + r)
        alpha = BitVector(n, alpha_bits)
        v = len(violation_points(g, alpha, 0))
        assert v > 0
        for p in (2, 5, 10):
            expect = (1 - v / (1 << n)) ** ((l + 1) * p)
            hits = 0
            trials = 5000
            for i in range(trials):
                if anchored_confirm(g, alpha, l, p, seed=rng):
                    hits += 1
            rate = hits / trials
            se = math.sqrt(expect * (1 - expect) / trials)
            cell_ok = abs(rate - expect) <= 3 * se
            all_ok &= cell_ok
            results.append(f"r={r},p={p}: |{rate:.4f}-{expect:.4f}|<=3se={3 * se:.4f} {cell_ok}")
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 600.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 5: confirmation rate of planted "
        f"pseudo structures, 5000 trials per cell, all 9 cells within 3 se: "
        f"{all_ok}, {elapsed:.1f}s"
    )
    assert all_ok, results
    assert elapsed < 600.0


def test_criterion_06_condition_system_and_classifier(announce):
    t0 = time.perf_counter()
    system_ok = True
    rng = np.random.default_rng(0xC6)
    for _ in range(500):
        n = int(rng.integers(1, 11))
        f = TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
        mask = solution_mask(theorem2_system(anf_of(f)), n)
        u0 = brute_structures(f).u0.member_ints()
        system_ok &= np.array_equal(np.nonzero(mask)[0], u0)

    # classifier soundness: whenever a verdict forces a vector, the true
    # zero-constant set may contain nothing else nonzero
    def sound(f):
        v = classify_top(anf_of(f))
        if v.forced_s is None:
            return True
        u0 = set(int(x) for x in brute_structures(f).u0.member_ints())
        return u0 - {0} <= {v.forced_s.bits}

    classifier_ok = True
    checked = 0
    # fully exhaustive at n <= 4: covers every hypothesis pattern there
    for n in range(2, 5):
        size = 1 << n
        for code in range(1 << size):
            f = TruthTable(n, [(code >> i) & 1 for i in range(size)])
            classifier_ok &= sound(f)
            checked += 1
    # n = 5, 6: exhaustive over the hypothesis-defining top layer, with
    # seeded random completions below it; monomials are words, x_v at bit v-1
    for n in (5, 6):
        full = (1 << n) - 1
        layer_specs = [[full]]
        deg_n1 = [full ^ (1 << i) for i in range(n)]
        for pattern in range(1, 1 << n):
            layer_specs.append([m for i, m in enumerate(deg_n1) if (pattern >> i) & 1])
        for deg in range(2, n - 1):
            layer_specs.append([m for m in range(1 << n) if m.bit_count() == deg])
        for top in layer_specs:
            top_deg = max(m.bit_count() for m in top)
            for completion in range(3):
                lower = set()
                f_rng = np.random.default_rng(97 * n + completion)
                for mono in range(1 << n):
                    if mono.bit_count() < top_deg and f_rng.integers(0, 2):
                        lower.add(mono)
                f = tt_of(Anf(n, frozenset(top) | frozenset(lower)))
                classifier_ok &= sound(f)
                checked += 1

    # the forced vector can land in the one-constant coset and must then
    # be rejected for the zero-constant subspace
    example = parse_anf("x1*x2 + x1*x3 + x2*x3", 3)
    verdict = classify_top(example)
    table = tt_of(example)
    sets = brute_structures(table)
    example_ok = (
        verdict.forced_s is not None
        and verdict.forced_s.bits == 0b111
        and not sets.u0.contains(verdict.forced_s)
        and any(v.bits == 0b111 for v in sets.u1)
        and not solution_mask(theorem2_system(example), 3)[0b111]
    )
    elapsed = time.perf_counter() - t0
    ok = system_ok and classifier_ok and example_ok and elapsed < 120.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 6: condition-system solutions == "
        f"oracle u0 on 500 random functions (n<=10): {system_ok}; classifier "
        f"sound on {checked} functions: {classifier_ok}; forced 111 rejected "
        f"for u0: {example_ok}; {elapsed:.1f}s"
    )
    assert system_ok
    assert classifier_ok
    assert example_ok
    assert elapsed < 120.0


def test_criterion_07_reduction_and_identities(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xC7)
    equisat_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 61))
        clauses = []
        for _ in range(m):
            idxs = rng.choice(n, size=3, replace=True) + 1
            negs = rng.integers(0, 2, size=3)
            clauses.append(tuple((int(i), bool(v)) for i, v in zip(idxs, negs)))
        equisat_ok &= equisat_check(Cnf3(n, tuple(clauses)))
    fixed_sat = Cnf3(2, (((1, False), (1, False), (2, False)),))
    fixed_unsat = Cnf3(
        3,
        tuple(
            ((1, bool(a)), (2, bool(b)), (3, bool(c)))
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
        ),
    )
    equisat_ok &= equisat_check(fixed_sat) and cnf_satisfiable(fixed_sat) is not None
    equisat_ok &= equisat_check(fixed_unsat) and cnf_satisfiable(fixed_unsat) is None

    identity_ok = True
    draws = 0
    for case_id in ("1", "2a", "2b", "2c"):
        k_min = 4 if case_id == "1" else 3
        for k in range(k_min, 9):
            for _ in range(100):
                identity_ok &= theorem4_verify(case_id, k, *theorem4_instance(case_id, k, rng))
                draws += 1
    elapsed = time.perf_counter() - t0
    ok = equisat_ok and identity_ok and elapsed < 120.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 7: 1000 random + 2 fixed "
        f"formulas stay equisatisfiable: {equisat_ok}; coefficient identity "
        f"holds on {draws} random draws across all cases: {identity_ok}; "
        f"{elapsed:.1f}s"
    )
    assert equisat_ok
    assert identity_ok
    assert elapsed < 120.0


def test_criterion_08_period_recovery(announce):
    t0 = time.perf_counter()
    cells = []
    for dim in (1, 2, 3):
        good = 0
        for trial in range(100):
            seed = 8000 + 100 * dim + trial
            rng = np.random.default_rng(seed)
            n = 12
            basis = exact_dim_basis(n, dim, rng)
            F = plant_periods(n, basis, seed=seed)
            rep = find_periods(F, RunConfig(seed=seed))
            good += span_equal(rep.span, basis)
        cells.append((dim, good))
    elapsed = time.perf_counter() - t0
    worst = min(g for _, g in cells)
    ok = worst >= 99 and elapsed < 60.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 8: period span recovered in "
        f"{[f'{g}/100 (dim {d})' for d, g in cells]}, {elapsed:.1f}s"
    )
    assert worst >= 99, cells
    assert elapsed < 60.0


def test_criterion_09_sampling_solver_equals_elimination(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xC9)
    failures = 0
    for trial in range(100):
        n = int(rng.integers(2, 17))
        k = int(rng.integers(0, n + 6))
        ys = BitMatrix.from_ints(n, [int(v) for v in rng.integers(0, 1 << n, size=k)])
        got = quantum_solve(ys, seed=trial, samples=n + 30)
        failures += not span_equal(got, null_space_basis(ys))
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 10.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 9: sampling solver vs "
        f"elimination on 100 systems (n<=16, n+30 samples): {failures} "
        f"failures, {elapsed:.1f}s"
    )
    assert failures == 0
    assert elapsed < 10.0


CLI_SUITE = [
    ["plant", "--n", "8", "--dim", "2", "--seed", "11", "--out", "f.tt"],
    ["plant", "--kind", "periods", "--n", "9", "--dim", "2", "--seed", "12", "--out", "F.mtt"],
    ["plant", "--kind", "rtype", "--f", "f.tt", "--r", "3", "--seed", "13", "--out", "g.tt"],
    ["find", "--f", "f.tt", "--oracle-check"],
    ["find", "--f", "f.tt", "--mode", "iterative"],
    ["find", "--f", "F.mtt", "--mode", "periods", "--oracle-check"],
    ["sample", "--f", "f.tt", "--anchors", "random:4", "--rounds", "6", "--trace", "t.jsonl"],
    ["oracle", "--f", "g.tt", "--format", "csv"],
    ["oracle", "--f", "f.tt"],
    ["prob", "--n", "4", "--kmax", "16", "--format", "csv"],
    ["anf", "--anf", "x1*x2*x3 + x2*x4", "--classify", "--system", "--check-s", "0101"],
    ["sat3", "--cnf", "demo.cnf", "--reduce", "--solve"],
    ["sat3", "--verify-theorem4", "1", "--k", "5", "--trials", "20"],
]


def test_criterion_10_cli_determinism(announce, tmp_path):
    t0 = time.perf_counter()
    hashes = []
    for run in range(3):
        rundir = tmp_path / f"run{run}"
        rundir.mkdir()
        (rundir / "demo.cnf").write_text("p cnf 4 3\n1 -2 3 0\n-1 2 4 0\n2 3 -4 0\n")
        digest = hashlib.sha256()
        for cmd in CLI_SUITE:
            proc = subprocess.run(
                [sys.executable, "-m", "simonstruct", *cmd],
                cwd=rundir,
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == 0, (cmd, proc.stderr)
            digest.update(proc.stdout)
        for artifact in sorted(p.name for p in rundir.iterdir()):
            digest.update(artifact.encode())
            digest.update((rundir / artifact).read_bytes())
        hashes.append(digest.hexdigest())
    elapsed = time.perf_counter() - t0
    ok = len(set(hashes)) == 1
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 10: {len(CLI_SUITE)} seeded CLI "
        f"invocations, 3 runs, hashes {'identical' if ok else 'DIFFER'} "
        f"({hashes[0][:16]}), {elapsed:.1f}s"
    )
    assert ok, hashes

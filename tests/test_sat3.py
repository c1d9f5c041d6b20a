"""3CNF reduction to product equations, DIMACS I/O, coefficient identities."""

import numpy as np
import pytest

from simonstruct.boolfn import Anf
from simonstruct.sat3 import (
    Cnf3,
    ProductEquationSystem,
    cnf_mask,
    cnf_satisfiable,
    equisat_check,
    format_dimacs,
    parse_dimacs,
    reduce_cnf,
    solve_brute,
    system_mask,
    theorem4_verify,
)
from simonstruct.symbolic import theorem2_system

from _oracles import expand_product


def random_cnf(n, m, rng):
    clauses = []
    for _ in range(m):
        idxs = rng.choice(n, size=3, replace=True) + 1
        negs = rng.integers(0, 2, size=3)
        clauses.append(tuple((int(i), bool(v)) for i, v in zip(idxs, negs)))
    return Cnf3(n, tuple(clauses))


def clause_satisfied(clause, word):
    return any(((word >> (idx - 1)) & 1) ^ negated for idx, negated in clause)


def equation_holds(eq, word):
    prod = 1
    for idx, r in eq:
        prod &= ((word >> (idx - 1)) & 1) ^ r
    return prod == 0


UNSAT_8 = Cnf3(
    3,
    tuple(
        ((1, bool(a)), (2, bool(b)), (3, bool(c)))
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
    ),
)


def test_cnf_validation():
    with pytest.raises(ValueError):
        Cnf3(0, ())
    with pytest.raises(ValueError):
        Cnf3(2, (((1, False), (2, False)),))
    with pytest.raises(ValueError):
        Cnf3(2, (((1, False), (2, False), (3, False)),))


def test_dimacs_round_trip():
    rng = np.random.default_rng(70)
    for _ in range(15):
        cnf = random_cnf(int(rng.integers(1, 10)), int(rng.integers(1, 20)), rng)
        assert parse_dimacs(format_dimacs(cnf)) == cnf


def test_dimacs_accepts_comments_and_wrapped_clauses():
    text = "c a comment\np cnf 3 2\n1 -2\n3 0 -1\nc more\n2 -3 0\n"
    cnf = parse_dimacs(text)
    assert cnf.n == 3
    assert cnf.clauses == (
        ((1, False), (2, True), (3, False)),
        ((1, True), (2, False), (3, True)),
    )


def test_dimacs_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_dimacs("1 2 3 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 3 1\np cnf 3 1\n1 2 3 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 3 1\n1 2 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 3 1\n1 2 3\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 3 1\n1 2 4 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p bad 3 1\n1 2 3 0\n")


def test_reduction_preserves_solutions_pointwise():
    rng = np.random.default_rng(71)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        cnf = random_cnf(n, int(rng.integers(1, 25)), rng)
        system = reduce_cnf(cnf)
        for word in range(1 << n):
            sat = all(clause_satisfied(c, word) for c in cnf.clauses)
            solved = all(equation_holds(eq, word) for eq in system.equations)
            assert sat == solved
        assert np.array_equal(cnf_mask(cnf), system_mask(system))


def test_solve_brute_returns_first_ascending_hit():
    rng = np.random.default_rng(72)
    for _ in range(15):
        n = int(rng.integers(1, 8))
        cnf = random_cnf(n, int(rng.integers(1, 30)), rng)
        system = reduce_cnf(cnf)
        got = solve_brute(system)
        wanted = next(
            (
                w
                for w in range(1 << n)
                if all(equation_holds(eq, w) for eq in system.equations)
            ),
            None,
        )
        if wanted is None:
            assert got is None
        else:
            assert got is not None and got.bits == wanted


def test_unsatisfiable_formula_detected_on_both_routes():
    assert cnf_satisfiable(UNSAT_8) is None
    assert solve_brute(reduce_cnf(UNSAT_8)) is None
    assert equisat_check(UNSAT_8)
    assert not cnf_mask(UNSAT_8).any()


def test_equisat_on_random_formulas():
    rng = np.random.default_rng(73)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        cnf = random_cnf(n, int(rng.integers(1, 40)), rng)
        assert equisat_check(cnf)
    easy = Cnf3(2, (((1, False), (1, False), (2, False)),))
    assert equisat_check(easy)
    assert cnf_satisfiable(easy).bits == 0b01


def test_caps_are_enforced():
    big = ProductEquationSystem(25, ())
    with pytest.raises(ValueError):
        solve_brute(big)
    with pytest.raises(ValueError):
        cnf_satisfiable(Cnf3(25, (((1, False), (2, False), (3, False)),)))
    wide = Cnf3(21, (((1, False), (2, False), (3, False)),))
    with pytest.raises(ValueError):
        cnf_mask(wide)
    # the chunked direct check shares the brute-force solver's cap of 24
    assert equisat_check(parse_dimacs("p cnf 21 1\n1 -2 21 0\n"))


def test_theorem4_all_cases_default_indices():
    for case_id, k_min in [("1", 4), ("2a", 3), ("2b", 3), ("2c", 3)]:
        for k in range(k_min, 9):
            assert theorem4_verify(case_id, k, k)


def test_theorem4_shuffled_indices_and_clutter():
    rng = np.random.default_rng(74)
    for trial in range(24):
        case_id = ["1", "2a", "2b", "2c"][trial % 4]
        k_min = 4 if case_id == "1" else 3
        k = int(rng.integers(k_min, 8))
        n = int(rng.integers(k, 11))
        indices = [int(v) + 1 for v in rng.choice(n, size=k, replace=False)]
        prefix = set(indices[: k - (4 if case_id == "1" else 3)])
        extras = []
        for _ in range(3):
            size = int(rng.integers(1, 4))
            mono = frozenset(int(v) + 1 for v in rng.choice(n, size=size, replace=False))
            if not prefix <= mono:
                extras.append(mono)
        assert theorem4_verify(case_id, k, n, indices=indices, extra_monomials=extras)


def test_theorem4_validation():
    with pytest.raises(ValueError):
        theorem4_verify("9", 4, 4)
    with pytest.raises(ValueError):
        theorem4_verify("1", 3, 3)
    with pytest.raises(ValueError):
        theorem4_verify("2a", 3, 3, indices=[1, 1, 2])
    with pytest.raises(ValueError):
        theorem4_verify("2a", 3, 3, indices=[1, 2, 4])
    with pytest.raises(ValueError):
        theorem4_verify("2a", 5, 5, extra_monomials=[frozenset({1, 2, 3})])


def test_condition_equals_hand_expanded_product():
    # the four coefficient patterns, written out over x1..x4 with no
    # shared prefix, against an independent polynomial multiplication
    fixtures = {
        "1": (
            {(1,), (1, 2), (1, 3), (1, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4)},
            [(1, 0), (2, 1), (3, 1), (4, 1)],
        ),
        "2a": ({(1,), (1, 2), (1, 3), (1, 2, 3)}, [(1, 0), (2, 1), (3, 1)]),
        "2b": ({(1, 2), (1, 2, 3)}, [(1, 0), (2, 0), (3, 1)]),
        "2c": ({(1, 2, 3)}, [(1, 0), (2, 0), (3, 0)]),
    }
    for declared, factors in fixtures.values():
        monos = frozenset(frozenset(m) for m in declared)
        conditions = theorem2_system(Anf(4, monos))
        condition = next(c for c in conditions if c.x_monomial == frozenset())
        assert condition.monomials == frozenset(expand_product(factors))


def test_tampered_pattern_breaks_the_identity():
    # dropping one declared monomial must break the product form
    declared = {(1, 2), (1, 2, 3)}
    expected = frozenset(expand_product([(1, 0), (2, 0), (3, 1)]))
    complete = frozenset(frozenset(m) for m in declared)
    conditions = theorem2_system(Anf(3, complete))
    good = next(c for c in conditions if c.x_monomial == frozenset())
    assert good.monomials == expected
    tampered = frozenset({frozenset({1, 2})})
    conditions = theorem2_system(Anf(3, tampered))
    bad = next(c for c in conditions if c.x_monomial == frozenset())
    assert bad.monomials != expected

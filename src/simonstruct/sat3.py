"""3-literal CNF to product-equation reduction over GF(2) shifts.

A clause maps to a product of three affine factors that evaluates to 1 on
exactly the clause's falsifying assignment, so the formula is satisfiable
iff some shift s zeroes every product.  Alongside the reduction live a
desk-scale brute-force decision procedure, a DIMACS-style text format,
and a symbolic checker that the tail-coefficient patterns used to encode
such products inside a Boolean function collapse to their stated factored
forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .boolfn import Anf
from .gf2 import BitVector, _check_dim
from .symbolic import theorem2_system

__all__ = [
    "Cnf3",
    "ProductEquationSystem",
    "parse_dimacs",
    "format_dimacs",
    "reduce_cnf",
    "solve_brute",
    "cnf_satisfiable",
    "equisat_check",
    "theorem4_verify",
    "theorem4_instance",
]

_CHUNK = 1 << 20
# each random identity check draws its variable count n from k.._THEOREM4_N_MAX
_THEOREM4_N_MAX = 12

# (variable index 1..n, negated flag)
Literal = tuple[int, bool]


@dataclass(frozen=True)
class Cnf3:
    """CNF formula with exactly three literals per clause.

    Duplicate literals within a clause are allowed; that is how shorter
    clauses are encoded.
    """

    n: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one variable")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("every clause needs exactly 3 literals")
            for idx, negated in clause:
                if not 1 <= idx <= self.n:
                    raise ValueError(f"variable x{idx} out of range 1..{self.n}")
                if negated not in (False, True):
                    raise ValueError("negation flag must be boolean")


@dataclass(frozen=True)
class ProductEquationSystem:
    """Equations (s_i1 + r1)(s_i2 + r2)(s_i3 + r3) = 0 over GF(2)."""

    n: int
    equations: tuple[
        tuple[tuple[int, int], tuple[int, int], tuple[int, int]], ...
    ]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one variable")
        for eq in self.equations:
            if len(eq) != 3:
                raise ValueError("every equation needs exactly 3 factors")
            for idx, r in eq:
                if not 1 <= idx <= self.n:
                    raise ValueError(f"variable s{idx} out of range 1..{self.n}")
                if r not in (0, 1):
                    raise ValueError("factor constant must be 0 or 1")


def parse_dimacs(text: str) -> Cnf3:
    """Read "p cnf n m" and m zero-terminated three-literal clauses.

    Comment lines start with "c"; clause tokens may wrap across lines.
    """
    n = m = None
    tokens: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ValueError("duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise ValueError(f"malformed problem line: {line!r}")
            n, m = int(parts[2]), int(parts[3])
            continue
        tokens.extend(int(t) for t in line.split())
    if n is None or m is None:
        raise ValueError("missing problem line")
    clauses = []
    current: list[int] = []
    for t in tokens:
        if t == 0:
            if len(current) != 3:
                raise ValueError(
                    f"clause needs exactly 3 literals, got {len(current)}"
                )
            clauses.append(tuple((abs(g), g < 0) for g in current))
            current = []
        else:
            current.append(t)
    if current:
        raise ValueError("unterminated clause")
    if len(clauses) != m:
        raise ValueError(f"header promised {m} clauses, found {len(clauses)}")
    return Cnf3(n, tuple(clauses))


def format_dimacs(cnf: Cnf3) -> str:
    lines = [f"p cnf {cnf.n} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        signed = (-idx if negated else idx for idx, negated in clause)
        lines.append(" ".join(str(g) for g in signed) + " 0")
    return "\n".join(lines) + "\n"


def reduce_cnf(cnf: Cnf3) -> ProductEquationSystem:
    """One product equation per clause, solutions preserved pointwise.

    A positive literal x_i becomes the factor (s_i + 1), a negated one
    (s_i + 0): the product is then 1 exactly on the clause's unique
    falsifying pattern, so s solves the equation iff it satisfies the
    clause.
    """
    equations = tuple(
        tuple((idx, 0 if negated else 1) for idx, negated in clause)
        for clause in cnf.clauses
    )
    return ProductEquationSystem(cnf.n, equations)


def _system_ok(system: ProductEquationSystem, words: np.ndarray) -> np.ndarray:
    ok = np.ones(words.shape, dtype=bool)
    for eq in system.equations:
        prod = np.ones(words.shape, dtype=bool)
        for idx, r in eq:
            prod &= (((words >> (idx - 1)) & 1) ^ r).astype(bool)
        ok &= ~prod
    return ok


def _cnf_ok(cnf: Cnf3, words: np.ndarray) -> np.ndarray:
    ok = np.ones(words.shape, dtype=bool)
    for clause in cnf.clauses:
        sat = np.zeros(words.shape, dtype=bool)
        for idx, negated in clause:
            sat |= (((words >> (idx - 1)) & 1) ^ negated).astype(bool)
        ok &= sat
    return ok


def _first_hit(ok, problem) -> BitVector | None:
    """Smallest word w in [0, 2**n) with ok(problem, w), scanned a chunk at a time."""
    n = problem.n
    _check_dim(n)
    size = 1 << n
    for start in range(0, size, _CHUNK):
        words = np.arange(start, min(start + _CHUNK, size), dtype=np.int64)
        hits = np.flatnonzero(ok(problem, words))
        if hits.size:
            return BitVector(n, int(words[hits[0]]))
    return None


def solve_brute(system: ProductEquationSystem) -> BitVector | None:
    """First shift (ascending integer order) zeroing every product, if any."""
    return _first_hit(_system_ok, system)


def cnf_satisfiable(cnf: Cnf3) -> BitVector | None:
    """First satisfying assignment by direct clause semantics, if any.

    Independent of the reduction route; exists to validate it.
    """
    return _first_hit(_cnf_ok, cnf)


def equisat_check(cnf: Cnf3) -> bool:
    """True when formula satisfiability agrees with system solvability."""
    direct = cnf_satisfiable(cnf) is not None
    reduced = solve_brute(reduce_cnf(cnf)) is not None
    return direct == reduced


def _multiply_factor(monomials: set[int], bit: int, const: int) -> set[int]:
    """Multiply a GF(2) polynomial in s by the factor (s_v + const), bit = 2**(v-1)."""
    out: set[int] = set()
    for m in monomials:
        out.symmetric_difference_update({m | bit})
    if const:
        out.symmetric_difference_update(monomials)
    return out


# per case: tail length, head monomial (tail positions), factors over tail
# positions with their additive constants, and the declared coefficient
# monomials (tail positions relative to the shared prefix)
_CASES: dict[str, dict] = {
    "1": {
        "tail": 4,
        "head": (0,),
        "factors": ((1, 1), (2, 1), (3, 1)),
        "declared": (
            (0,), (0, 1), (0, 2), (0, 3),
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3),
        ),
    },
    "2a": {
        "tail": 3,
        "head": (0,),
        "factors": ((1, 1), (2, 1)),
        "declared": ((0,), (0, 1), (0, 2), (0, 1, 2)),
    },
    "2b": {
        "tail": 3,
        "head": (0, 1),
        "factors": ((2, 1),),
        "declared": ((0, 1), (0, 1, 2)),
    },
    "2c": {
        "tail": 3,
        "head": (0, 1, 2),
        "factors": (),
        "declared": ((0, 1, 2),),
    },
}


def theorem4_verify(
    case_id: str,
    k: int,
    n: int,
    indices: Sequence[int] | None = None,
    extra_monomials: Iterable[int] = (),
) -> bool:
    """Check one tail-coefficient pattern against its factored product form.

    Builds the function whose coefficients the chosen case declares over
    k distinct variables (defaults to x1..xk), derives the vanishing
    condition attached to the shared prefix monomial via
    :func:`theorem2_system`, expands the case's product form
    independently, and compares the two GF(2) polynomials in s.

    extra_monomials (words below 2**n, as in Anf) may add clutter
    anywhere in the function as long as no extra contains the shared
    prefix; such terms feed other conditions but must not disturb this one.
    """
    spec = _CASES.get(case_id)
    if spec is None:
        raise ValueError(f"unknown case {case_id!r}; pick one of 1, 2a, 2b, 2c")
    tail_len = spec["tail"]
    if k < tail_len:
        raise ValueError(f"case {case_id} needs k >= {tail_len}")
    if indices is None:
        indices = tuple(range(1, k + 1))
    indices = tuple(indices)
    if len(indices) != k or len(set(indices)) != k:
        raise ValueError("need exactly k distinct variable indices")
    if not all(1 <= i <= n for i in indices):
        raise ValueError(f"indices must lie in 1..{n}")

    prefix = sum(1 << (i - 1) for i in indices[: k - tail_len])
    tail = [1 << (i - 1) for i in indices[k - tail_len:]]

    monomials = {prefix | sum(tail[p] for p in positions) for positions in spec["declared"]}
    for extra in extra_monomials:
        if type(extra) is not int or not 0 <= extra < 1 << n:
            raise ValueError(f"extra monomial {extra!r} is not a word in 0..2**{n}-1")
        if (prefix & ~extra) == 0:
            raise ValueError("extra monomials must not contain the prefix")
        monomials.add(extra)

    conditions = theorem2_system(Anf(n, frozenset(monomials)))
    condition = next(c for c in conditions if c.x_monomial == prefix)

    expected = {sum(tail[p] for p in spec["head"])}
    for pos, const in spec["factors"]:
        expected = _multiply_factor(expected, tail[pos], const)
    return condition.monomials == frozenset(expected)


def theorem4_instance(case_id: str, k: int, rng) -> tuple[int, tuple[int, ...], list[int]]:
    """Random (n, indices, extras) for theorem4_verify: n uniform in k.._THEOREM4_N_MAX,
    k distinct indices, and up to 3 clutter words that do not contain a nonempty prefix."""
    n = int(rng.integers(k, _THEOREM4_N_MAX + 1))
    indices = tuple(int(v) + 1 for v in rng.choice(n, size=k, replace=False))
    prefix = sum(1 << (i - 1) for i in indices[: k - _CASES[case_id]["tail"]])
    extras = []
    if prefix:
        for _ in range(3):
            width = int(rng.integers(1, n + 1))
            mono = sum(1 << int(v) for v in rng.choice(n, size=width, replace=False))
            if prefix & ~mono:
                extras.append(mono)
    return n, indices, extras

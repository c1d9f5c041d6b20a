"""Structure and period recovery from repeated sampling rounds.

Two recovery strategies share the sampling core.  The simple variant fixes
a full set of linearly independent anchors and keeps sampling until the
collected ys stop gaining rank; the candidate structure span is the null
space of the ys.  The iterative variant repeats that as independent passes
with fresh, growing anchor sets and stops when consecutive passes agree on
the span.  Every mode, periods included, verifies its span basis against
f by random probing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .boolfn import MultiTruthTable, TruthTable
from .gf2 import BitMatrix, BitVector, SpanTracker, Subspace, null_space_basis, span_equal
from .oracle import VerifyResult, brute_structures, sampled_verify
from .rng import as_rng
from .simulate import collapse, sample_y

__all__ = [
    "RunConfig",
    "StructureReport",
    "PeriodReport",
    "find_periods",
    "find_structure_simple",
    "find_structure_iterative",
]


# consecutive agreeing pass spans that stop the iterative variant
STABILIZE_WINDOW = 3


@dataclass(frozen=True)
class RunConfig:
    """Tuning knobs; None fields resolve to defaults that scale with n.

    rounds_cap   hard budget: sampling rounds per pass, and passes for the
                 iterative variant (default 8n)
    rank_window  consecutive rounds without rank growth required to end a
                 sampling pass (default 12; each stalled round halves the
                 chance that a missing dimension is still out there)
    verify_p     probes per candidate basis vector (default max(64, 4n))
    seed         master seed for every random draw of the run
    """

    rounds_cap: int | None = None
    rank_window: int | None = None
    verify_p: int | None = None
    seed: int | None = None

    def resolved(self, n: int) -> "RunConfig":
        """This config with every None field filled in for dimension n."""
        res = replace(
            self,
            rounds_cap=8 * n if self.rounds_cap is None else self.rounds_cap,
            rank_window=12 if self.rank_window is None else self.rank_window,
            verify_p=max(64, 4 * n) if self.verify_p is None else self.verify_p,
        )
        for name in ("rounds_cap", "rank_window", "verify_p"):
            value = getattr(res, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        return res


@dataclass(frozen=True)
class StructureReport:
    """Result of one structure-recovery run."""

    candidate: Subspace
    verified: bool
    rounds_used: int
    ys_collected: BitMatrix
    pseudo_flag: bool
    stabilized: bool
    oracle_checked: bool
    witness: tuple[BitVector, BitVector] | None = None


@dataclass(frozen=True)
class PeriodReport:
    """Result of one period-recovery run; stabilized=False means the round
    budget ran out while the rank could still have been growing, and
    verified=False comes with a witness (x, b) where F(x) != F(x ^ b)."""

    span: Subspace
    rounds_used: int
    stabilized: bool
    ys_collected: BitMatrix
    verified: bool
    witness: tuple[BitVector, BitVector] | None = None


def _independent_anchors(n: int, count: int, rng) -> list[BitVector]:
    if not 0 <= count <= n:
        raise ValueError(f"cannot draw {count} independent anchors at n={n}")
    tracker = SpanTracker(n)
    anchors: list[BitVector] = []
    while len(anchors) < count:
        v = int(rng.integers(0, 1 << n))
        if tracker.add(v):
            anchors.append(BitVector(n, v))
    return anchors


def _sampling_pass(
    f: MultiTruthTable, anchors, res: RunConfig, rng
) -> tuple[BitMatrix, Subspace, bool]:
    """Collapse f at the anchors and draw one y per round, until the rank
    stalls for rank_window rounds or the cap hits.

    Returns (ys, their null space, stabilized).  stabilized is False only
    when the cap ended the pass while the last round still grew the rank
    recently.
    """
    n = f.n
    tracker = SpanTracker(n)
    ys: list[BitVector] = []
    stall = 0
    while len(ys) < res.rounds_cap and tracker.dim < n and stall < res.rank_window:
        y = sample_y(collapse(f, anchors, rng), rng)
        ys.append(y)
        if tracker.add(y.bits):
            stall = 0
        else:
            stall += 1
    mat = BitMatrix(n, tuple(ys))
    return mat, null_space_basis(mat), tracker.dim == n or stall >= res.rank_window


def find_periods(F: MultiTruthTable, cfg: RunConfig | None = None) -> PeriodReport:
    """Recover the period span of a multi-output function by sampling,
    then probe every basis vector of it."""
    cfg = cfg or RunConfig()
    res = cfg.resolved(F.n)
    rng = as_rng(cfg.seed)
    ys, span, stabilized = _sampling_pass(F, (), res, rng)
    check = sampled_verify(F, span.basis.rows, res.verify_p, rng)
    return PeriodReport(span, len(ys.rows), stabilized, ys, bool(check), check.witness)


def _report(
    f: TruthTable,
    candidate: Subspace,
    ys: BitMatrix,
    rounds: int,
    stabilized: bool,
    res: RunConfig,
    rng,
    oracle_check: bool,
) -> StructureReport:
    """Verify the candidate against f by probing; with oracle_check, flag a
    verified candidate that is not the true U0 as pseudo."""
    check: VerifyResult = sampled_verify(f, candidate.basis.rows, res.verify_p, rng)
    pseudo = bool(oracle_check and check) and not span_equal(candidate, brute_structures(f).u0)
    return StructureReport(
        candidate, bool(check), rounds, ys, pseudo, stabilized, oracle_check, check.witness
    )


def find_structure_simple(
    f: TruthTable,
    cfg: RunConfig | None = None,
    oracle_check: bool = False,
) -> StructureReport:
    """One-pass recovery with a fixed set of n independent anchors."""
    cfg = cfg or RunConfig()
    n = f.n
    res = cfg.resolved(n)
    rng = as_rng(cfg.seed)
    anchors = _independent_anchors(n, n, rng)
    ys, candidate, stabilized = _sampling_pass(f, anchors, res, rng)
    return _report(f, candidate, ys, len(ys.rows), stabilized, res, rng, oracle_check)


def find_structure_iterative(
    f: TruthTable,
    cfg: RunConfig | None = None,
    oracle_check: bool = False,
) -> StructureReport:
    """Independent passes with fresh growing anchor sets until spans agree.

    Anchors here are unconstrained uniform words, n in the first pass and
    ceil(n/2) more in each later one.  A pass that went wrong almost surely
    disagrees with its neighbors, so demanding STABILIZE_WINDOW consecutive
    identical spans filters stray passes out.
    """
    cfg = cfg or RunConfig()
    n = f.n
    res = cfg.resolved(n)
    rng = as_rng(cfg.seed)
    spans: list[Subspace] = []
    all_rounds = 0
    stabilized = False
    # resolved() keeps rounds_cap >= 1, so at least one pass runs
    while len(spans) < res.rounds_cap:
        count = n + len(spans) * math.ceil(n / 2)
        anchors = [BitVector(n, int(rng.integers(0, 1 << n))) for _ in range(count)]
        ys, span, _ = _sampling_pass(f, anchors, res, rng)
        all_rounds += len(ys.rows)
        spans.append(span)
        w = STABILIZE_WINDOW
        if len(spans) >= w and all(span_equal(spans[-1], s) for s in spans[-w:]):
            stabilized = True
            break
    return _report(f, spans[-1], ys, all_rounds, stabilized, res, rng, oracle_check)

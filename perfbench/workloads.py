"""The three workloads: their instances, their ops, and each op's answer check.

A workload is a fixed cycle of op slots (kind, n, dim).  Set-up plants a small
pool of instances per slot; cycle c runs every slot once, on pool entry
c % POOL and with a seed drawn from (workload seed, c, slot).  The package
receives only the generated inputs; the planted span stays here and every
answer is checked against it (see truth.py).

Why these workloads (README.md has the full map):
  recover-planted  sampling recovery on planted instances: every round has a
                   tiny surviving set yet pays full-table collapse, an n-bit
                   transform and a 2^n cumsum.  Transforms stay at n <= 18.
  oracle-cap       exhaustive oracles at n = 18..23: the transform and the
                   autocorrelation on 2-64 MiB arrays, across the slowdown
                   past n = 22, with no sampling at all.
  cli-roundtrip    the command line on files: Python text parse/format, CSV
                   assembly, and sampling with a wide surviving set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import truth

# Every in-process recovery op stops a sampling pass after this many rounds
# without rank growth; the package default of 12 misses the last dimension
# with probability 2^-12 per pass, which over thousands of benchmark ops
# would fail some.  At 24 it is 2^-24.
RANK_WINDOW = 24
POOL = 3
SCAN_R = 2

SLOTS = {
    "recover-planted": {
        "full": [
            ("find_structure_simple", 14, 0), ("find_structure_iterative", 14, 1), ("find_periods", 14, 2),
            ("find_structure_iterative", 15, 2), ("find_periods", 15, 2),
            ("find_structure_iterative", 16, 3), ("find_periods", 16, 1),
            ("find_structure_simple", 17, 3), ("find_periods", 17, 1),
            ("find_structure_simple", 18, 1), ("find_periods", 18, 3),
        ],
        "smoke": [
            ("find_structure_simple", 7, 0), ("find_structure_iterative", 7, 1), ("find_periods", 7, 2),
            ("find_structure_simple", 8, 3), ("find_periods", 8, 1),
        ],
    },
    "oracle-cap": {
        "full": [
            ("plant_structure", 20, 2), ("r_type_scan", 20, 1), ("brute_structures", 22, 1), ("r_type_scan", 22, 2),
            ("brute_structures", 23, 2), ("plant_periods", 18, 2), ("brute_periods", 18, 3),
        ],
        "smoke": [
            ("plant_structure", 8, 2), ("brute_structures", 8, 1), ("r_type_scan", 8, 0),
            ("plant_periods", 7, 2), ("brute_periods", 7, 1),
        ],
    },
    "cli-roundtrip": {
        "full": [
            (kind, n, dim)
            for n in (16, 17)
            for kind, dim in (
                ("plant-structure", 2), ("plant-periods", 3), ("oracle-scan", 2), ("oracle-csv", 1),
                ("sample-r0", 3), ("sample-r1", 2), ("find-periods", 2),
            )
        ],
        "smoke": [
            (kind, 8, dim)
            for kind, dim in (
                ("plant-structure", 2), ("plant-periods", 3), ("oracle-scan", 2), ("oracle-csv", 1),
                ("sample-r0", 3), ("sample-r1", 2), ("find-periods", 2),
            )
        ],
    },
}
WORKLOADS = tuple(SLOTS)

# op kinds whose input is a planted multi-output (period) instance
PERIOD_KINDS = {"find_periods", "plant_periods", "brute_periods", "plant-periods", "find-periods"}


class CheckFailed(Exception):
    pass


def require(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # result -> (digest text, output bytes); raises CheckFailed on a wrong answer
    check: Callable[[object], tuple[str, int]]


def sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, (bytes, bytearray, memoryview)) else repr(p).encode())
    return h.hexdigest()


def op_seed(seed: int, cycle: int, slot: int) -> int:
    return int(np.random.SeedSequence([seed % 2**64, cycle, slot]).generate_state(1, np.uint64)[0] >> 1)


class Workload:
    """Set-up (instances, input files) and the op cycle of one workload."""

    def __init__(self, name: str, seed: int, scale: str, workdir: Path):
        import simonstruct as ss

        self.name, self.seed = name, seed
        self.slots = SLOTS[name][scale]
        self.workdir = workdir
        self.pools: list[list] = []
        for s, (kind, n, dim) in enumerate(self.slots):
            pool = []
            for k in range(POOL):
                if kind.startswith("plant-"):
                    # the command line plants its own instance; only dim is an input
                    pool.append((SimpleNamespace(dim=dim, basis=None), None))
                    continue
                rng = np.random.default_rng([seed % 2**64, 0x5E7, s, k])
                period = kind in PERIOD_KINDS
                inst = truth.plant_periods(rng, n, dim) if period else truth.plant_structure(rng, n, dim)
                if name == "cli-roundtrip":
                    path = workdir / f"in-{s}-{k}.txt"
                    text = (truth.multi_table_text(inst.table, n, n - 1) if period
                            else truth.truth_table_text(inst.table, n))
                    path.write_bytes(text)
                    pool.append((inst, path))
                else:
                    obj = ss.MultiTruthTable(n, n - 1, inst.table) if period else ss.TruthTable(n, inst.table)
                    pool.append((inst, obj, ss.span_of(n, inst.basis)))
            self.pools.append(pool)

    def describe(self) -> list[dict]:
        return [{"slot": s, "op": k, "n": n, "dim": d} for s, (k, n, d) in enumerate(self.slots)]

    def cycle(self, c: int) -> list[Op]:
        build = self._cli_op if self.name == "cli-roundtrip" else self._lib_op
        return [
            build(kind, n, self.pools[s][c % POOL], op_seed(self.seed, c, s), f"{kind} n={n} dim={dim}")
            for s, (kind, n, dim) in enumerate(self.slots)
        ]

    # ---------------------------------------------------------- in-process

    def _lib_op(self, kind: str, n: int, entry, seed: int, label: str) -> Op:
        # entry points are called through the package namespace, where the
        # tracer wraps them
        import simonstruct as ss

        inst, obj, span = entry
        cfg = ss.RunConfig(seed=seed, rank_window=RANK_WINDOW)
        spec = ss.PlantSpec(n, span, seed)
        basis = inst.basis

        def structure_report(rep):
            cand = rep.candidate.basis.row_ints()
            require(truth.same_span(cand, basis), f"recovered span {cand} != planted {basis}")
            require(rep.verified, "candidate not verified")
            require(not rep.pseudo_flag, "pseudo-structure flagged")
            return sha(cand, rep.verified, rep.rounds_used, rep.ys_collected.row_ints(),
                       rep.pseudo_flag, rep.stabilized, rep.witness), 0

        def period_report(rep):
            got = rep.span.basis.row_ints()
            require(truth.same_span(got, basis), f"recovered period span {got} != planted {basis}")
            return sha(got, rep.rounds_used, rep.stabilized, rep.ys_collected.row_ints()), 0

        def planted_table(f):
            require(f.n == n, "wrong dimension")
            table = f.table
            idx = np.arange(table.size)
            for b in basis:
                require(np.array_equal(table[idx ^ b], table), "table not invariant under the span")
            # f = h o L with L from the planted instance, so U0(f) = ker L iff h has no structure
            h = table[truth.linear_image(inst.preimage)]
            spec = truth.autocorrelation(h)
            require(np.count_nonzero(spec == spec.size) == 1, "planted table has extra structures")
            return sha(table.tobytes()), 0

        def structure_sets(sets):
            u0 = sets.u0.basis.row_ints()
            u1 = sorted(v.bits for v in sets.u1)
            require(truth.same_span(u0, basis), f"u0 {u0} != planted {basis}")
            require(set(u1) == inst.u1_truth() and len(u1) == len(set(u1)), "u1 set mismatch")
            return sha(u0, u1), 0

        def scan_hits(hits):
            got = {h.alpha.bits: (h.c, h.violations) for h in hits}
            require(len(got) == len(hits), "duplicate scan hits")
            require(got == inst.rtype_truth(SCAN_R), "r-type scan hits mismatch")
            return sha([(h.alpha.bits, h.c, h.violations) for h in hits]), 0

        def planted_periods(F):
            require(F.n == n and F.m_out == n - 1, "wrong shape")
            table = F.table
            idx = np.arange(table.size)
            for b in basis:
                require(np.array_equal(table[idx ^ b], table), "table not invariant under the span")
            require(np.unique(table).size == table.size >> len(basis), "not injective across cosets")
            return sha(table.tobytes()), 0

        def period_span(sub):
            got = sub.basis.row_ints()
            require(truth.same_span(got, basis), f"period span {got} != planted {basis}")
            return sha(got), 0

        ops = {
            "find_structure_simple": (
                lambda: ss.find_structure_simple(obj, cfg, oracle_check=True), structure_report),
            "find_structure_iterative": (
                lambda: ss.find_structure_iterative(obj, cfg, oracle_check=True), structure_report),
            "find_periods": (lambda: ss.find_periods(obj, cfg), period_report),
            "plant_structure": (lambda: ss.plant_structure(spec), planted_table),
            "brute_structures": (lambda: ss.brute_structures(obj), structure_sets),
            "r_type_scan": (lambda: ss.r_type_scan(obj, SCAN_R), scan_hits),
            "plant_periods": (lambda: ss.plant_periods(n, span, seed), planted_periods),
            "brute_periods": (lambda: ss.brute_periods(obj), period_span),
        }
        call, check = ops[kind]
        return Op(label, call, check)

    # ------------------------------------------------------------ command line

    def _cli_op(self, kind: str, n: int, entry, seed: int, label: str) -> Op:
        from simonstruct import cli

        inst, src = entry
        d = self.workdir
        out, trace_path = d / f"out-{kind}-{n}", d / f"trace-{kind}-{n}"
        # a stale file from the previous cycle must not pass this cycle's check
        out.unlink(missing_ok=True)
        trace_path.unlink(missing_ok=True)
        argv = {
            "plant-structure": ["plant", "--kind", "structure", "--n", str(n), "--dim", str(inst.dim)],
            "plant-periods": ["plant", "--kind", "periods", "--n", str(n), "--dim", str(inst.dim)],
            "oracle-scan": ["oracle", "--f", str(src), "--scan-r", str(SCAN_R)],
            "oracle-csv": ["oracle", "--f", str(src), "--format", "csv"],
            "sample-r0": ["sample", "--f", str(src), "--anchors", "random:0", "--trace", str(trace_path)],
            "sample-r1": ["sample", "--f", str(src), "--anchors", "random:1"],
            "find-periods": ["find", "--f", str(src), "--mode", "periods"],
        }[kind] + ["--seed", str(seed), "--out", str(out)]

        def call():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
            return rc, stdout.getvalue(), stderr.getvalue()

        def check(result):
            rc, stdout, stderr = result
            require(rc == 0, f"exit code {rc}: {stderr.strip()[:200]}")
            files = [out.read_bytes()]
            if kind == "sample-r0":
                files.append(trace_path.read_bytes())
            CLI_CHECKS[kind](n, inst, stdout, *files)
            return sha(rc, stdout, *files), len(stdout.encode()) + sum(len(f) for f in files)

        return Op(label, call, check)


# ------------------------------------------------------------ CLI answer checks


def _check_plant_structure(n, inst, stdout, data):
    doc = json.loads(stdout)
    basis = [truth.parse_bits(b) for b in doc["basis"]]
    require(doc["n"] == n and doc["dim"] == inst.dim == truth.gf2_rank(basis), "reported basis wrong")
    got_n, table = truth.read_truth_table(data)
    require(got_n == n, "wrong dimension")
    idx = np.arange(table.size)
    for b in basis:
        require(np.array_equal(table[idx ^ b], table), "table not invariant under reported basis")
    spec = truth.autocorrelation(table)
    require(np.count_nonzero(spec == spec.size) == 1 << inst.dim, "structure set is not the reported span")


def _check_plant_periods(n, inst, stdout, data):
    doc = json.loads(stdout)
    basis = [truth.parse_bits(b) for b in doc["basis"]]
    require(doc["n"] == n and doc["dim"] == inst.dim == truth.gf2_rank(basis), "reported basis wrong")
    got_n, words = truth.read_multi_table(data)
    require(got_n == n, "wrong dimension")
    idx = np.arange(words.size)
    for b in basis:
        require(np.array_equal(words[idx ^ b], words), "table not invariant under reported basis")
    require(np.unique(words).size == words.size >> inst.dim, "not injective across cosets")


def _check_oracle_scan(n, inst, stdout, data):
    doc = json.loads(data)
    spectrum = np.asarray(doc["spectrum"], dtype=np.int64)
    want = inst.quotient_spectrum()[inst.lmap()].astype(np.int64) << inst.dim
    require(doc["n"] == n and np.array_equal(spectrum, want), "spectrum mismatch")
    u0 = [truth.parse_bits(b) for b in doc["u0_basis"]]
    require(doc["u0_dim"] == inst.dim and truth.same_span(u0, inst.basis), "u0_basis does not span the planted span")
    require({truth.parse_bits(b) for b in doc["u1"]} == inst.u1_truth(), "u1 mismatch")
    hits = {truth.parse_bits(h["alpha"]): (h["c"], h["violations"]) for h in doc["r_type_hits"]}
    require(hits == inst.rtype_truth(SCAN_R), "r-type hits mismatch")


def _check_oracle_csv(n, inst, stdout, data):
    lines = data.decode().splitlines()
    require(lines[0].startswith("# schema=") and lines[1] == "alpha,autocorr,in_u0,in_u1,violations,c",
            "bad CSV header")
    rows = [ln.split(",") for ln in lines[2:]]
    require(len(rows) == 1 << n, f"CSV has {len(rows)} rows, want {1 << n}")
    auto = np.array([int(r[1]) for r in rows], dtype=np.int64)
    want = inst.quotient_spectrum()[inst.lmap()].astype(np.int64) << inst.dim
    require(np.array_equal(auto, want), "autocorr column mismatch")
    u0 = sorted(truth.parse_bits(r[0]) for r in rows if r[2] == "1")
    require(len(u0) == 1 << inst.dim, f"{len(u0)} rows with in_u0 = 1, want {1 << inst.dim}")
    require(np.array_equal(np.array(u0, dtype=np.int64), truth.members(inst.basis)), "in_u0 rows are not the planted span")


def _check_sample(n, inst, stdout, data, trace=None):
    ys = [truth.parse_bits(ln) for ln in data.decode().split()]
    require(len(ys) == 16, f"{len(ys)} samples, want 16")
    for b in inst.basis:
        require(not truth.parity_dot(np.array(ys), b).any(), "sampled y not orthogonal to the planted span")
    if trace is not None:
        sizes = [json.loads(ln)["s_size"] for ln in trace.decode().splitlines()]
        # S is a union of cosets of the planted span
        require(len(sizes) == 16 and all(s > 0 and s % (1 << inst.dim) == 0 for s in sizes), "bad trace |S|")


def _check_find_periods(n, inst, stdout, data):
    doc = json.loads(data)
    ys = np.array([truth.parse_bits(y) for y in doc["ys_collected"]], dtype=np.int64)
    span = [truth.parse_bits(b) for b in doc["span_basis"]]
    require(doc["n"] == n and len(ys) == doc["rounds_used"], "bad report")
    for b in inst.basis:
        require(not truth.parity_dot(ys, b).any(), "sampled y not orthogonal to the planted span")
        # the CLI exposes no rank window, so the span may exceed the planted
        # one with probability 2^-12; containment always holds
        require(truth.in_span(b, span), "planted period not in the recovered span")
    for b in span:
        require(not truth.parity_dot(ys, b).any(), "recovered span not orthogonal to the samples")


CLI_CHECKS = {
    "plant-structure": _check_plant_structure,
    "plant-periods": _check_plant_periods,
    "oracle-scan": _check_oracle_scan,
    "oracle-csv": _check_oracle_csv,
    "sample-r0": _check_sample,
    "sample-r1": _check_sample,
    "find-periods": _check_find_periods,
}

"""Command-line front end: reproducible batch experiments over all modules.

Every subcommand is seeded (default 0x53494D4F4E) and emits deterministic
bytes for a fixed command line, so runs can be diffed and hashed.  JSON
documents carry a "schema" field and CSV artifacts a "# schema=" comment
row.  Exit codes: 0 success, 1 a requested verification failed, 2 usage
or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .boolfn import (
    PlantSpec,
    TruthTable,
    _mono_text,
    autocorr_values,
    format_anf,
    format_bit_rows,
    format_multi_truth_table,
    format_truth_table,
    parse_anf,
    parse_multi_truth_table,
    parse_truth_table,
    plant_periods,
    plant_r_type,
    plant_structure,
)
from .gf2 import MAX_DIMENSION, BitVector, span_equal, span_of
from .oracle import _r_type_hits, _structure_sets, _violations, autocorrelation, brute_periods
from .probmodel import prob_table, q_direct_row, q_exact, rank_success_rate, success_prob_exact
from .recover import (
    RunConfig,
    _independent_anchors,
    find_periods,
    find_structure_iterative,
    find_structure_simple,
)
from .rng import DEFAULT_SEED, as_rng
from .sat3 import (
    _CASES,
    _THEOREM4_N_MAX,
    parse_dimacs,
    reduce_cnf,
    solve_brute,
    theorem4_instance,
    theorem4_verify,
)
from .simulate import collapse
from .symbolic import classify_top, derivative_anf, theorem2_system

_SCHEMA = "1"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _read_table(path: str, multi: bool = False):
    """The one-output table in a file, or with `multi` the multi-output one that
    find --mode periods reads; a file of the other layout is refused by name."""
    text = _read_text(path)
    parsers = (parse_truth_table, parse_multi_truth_table)
    try:
        return parsers[multi](text)
    except ValueError as exc:
        try:
            parsers[not multi](text)
        except ValueError:
            raise exc from None
    one, many = "a one-output table (one line of bits)", "a multi-output table (one line per input)"
    if multi:
        raise ValueError(f"found {one}; find --mode periods needs {many}")
    raise ValueError(f"found {many}, which only find --mode periods reads; this command needs {one}")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_doc(doc: dict) -> str:
    return json.dumps({"schema": _SCHEMA, **doc}, indent=2) + "\n"


def _csv_doc(*lines: str) -> str:
    return "\n".join([f"# schema={_SCHEMA}", *lines]) + "\n"


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


# ---------------------------------------------------------------- find


def cmd_find(args) -> int:
    cfg = RunConfig(
        rounds_cap=args.rounds_cap, verify_p=args.verify_p, seed=args.seed
    )
    if args.mode == "periods":
        F = _read_table(args.f, multi=True)
        rep = find_periods(F, cfg)
        doc = {
            "mode": "periods",
            "n": F.n,
            "span_basis": [str(b) for b in rep.span.basis.rows],
            "span_dim": rep.span.dim,
            "verified": rep.verified,
            "rounds_used": rep.rounds_used,
            "stabilized": rep.stabilized,
            "witness": [str(w) for w in rep.witness] if rep.witness else None,
            "ys_collected": [str(y) for y in rep.ys_collected.rows],
        }
        if args.oracle_check:
            doc["oracle_agrees"] = span_equal(rep.span, brute_periods(F))
        _emit(_json_doc(doc), args.out)
        return 1 if args.oracle_check and not (rep.verified and doc["oracle_agrees"]) else 0

    f = _read_table(args.f)
    run = find_structure_simple if args.mode == "simple" else find_structure_iterative
    rep = run(f, cfg, oracle_check=args.oracle_check)
    doc = {
        "mode": args.mode,
        "n": f.n,
        "candidate_basis": [str(b) for b in rep.candidate.basis.rows],
        "candidate_dim": rep.candidate.dim,
        "verified": rep.verified,
        "rounds_used": rep.rounds_used,
        "stabilized": rep.stabilized,
        "pseudo_flag": rep.pseudo_flag,
        "oracle_checked": rep.oracle_checked,
        "witness": [str(w) for w in rep.witness] if rep.witness else None,
        "ys_collected": [str(y) for y in rep.ys_collected.rows],
    }
    _emit(_json_doc(doc), args.out)
    if args.oracle_check and (not rep.verified or rep.pseudo_flag):
        return 1
    return 0


# -------------------------------------------------------------- sample


def cmd_sample(args) -> int:
    if args.rounds < 1:
        raise ValueError("--rounds must be at least 1")
    f = _read_table(args.f)
    rng = as_rng(args.seed)
    if args.anchors.startswith("random:"):
        anchors = _independent_anchors(f.n, int(args.anchors.split(":", 1)[1]), rng)
    else:
        lines = [ln for ln in _read_text(args.anchors).splitlines() if ln.strip()]
        anchors = [BitVector.from_string(ln.strip()) for ln in lines]
        if any(a.n != f.n for a in anchors):
            raise ValueError("anchor dimension does not match the table")
    ys = []
    trace_rows = []
    # f and the anchors are fixed here, so the observed word determines S and
    # its law.  A law is kept only when 2**r <= 4|S|: the sets S of distinct
    # words are disjoint, so the kept tables hold at most 4 * 2**n entries.
    laws: dict = {}
    for rnd in range(args.rounds):
        outcome = collapse(f, anchors, rng)
        law = laws.get(outcome.observed)
        if law is None:
            law = outcome.weights()
            if 1 << law.r <= 4 * outcome.size:
                laws[outcome.observed] = law
        ys.append(str(BitVector(f.n, law.draw(rng))))
        trace_rows.append(
            json.dumps(
                {
                    "round": rnd,
                    "observed": [int(v) for v in outcome.observed],
                    "s_size": outcome.size,
                }
            )
        )
    _emit("\n".join(ys) + "\n", args.out)
    if args.trace:
        Path(args.trace).write_text("\n".join(trace_rows) + "\n")
    return 0


# -------------------------------------------------------------- oracle


def cmd_oracle(args) -> int:
    if args.format == "csv" and args.scan_r is not None:
        raise ValueError("--scan-r is JSON only; the CSV violations column covers every shift")
    f = _read_table(args.f)
    vals = autocorrelation(f)
    # the closure and coset checks guard both output formats
    sets = _structure_sets(vals)

    if args.format == "csv":
        full = 1 << f.n
        columns = (vals, vals == full, vals == -full, *_violations(vals))
        blocks = []  # rows go by blocks so that one block's Python objects are alive at once
        for lo in range(0, full, 1 << 12):
            block = np.arange(lo, min(lo + (1 << 12), full))
            alpha = format_bit_rows(block[:, None], f.n).split()
            rows = zip(alpha, *(col[block].astype(np.int64).tolist() for col in columns))
            blocks.append("\n".join(f"{a},{v},{u0},{u1},{w},{c}" for a, v, u0, u1, w, c in rows))
        _emit(_csv_doc("alpha,autocorr,in_u0,in_u1,violations,c", *blocks), args.out)
        return 0

    doc = {
        "n": f.n,
        "spectrum": vals.tolist(),
        "u0_basis": [str(b) for b in sets.u0.basis.rows],
        "u0_dim": sets.u0.dim,
        "u1": [str(b) for b in sets.u1],
    }
    if args.scan_r is not None:
        hits = _r_type_hits(vals, args.scan_r)
        doc["r_type_hits"] = [
            {"alpha": str(h.alpha), "c": h.c, "violations": h.violations}
            for h in hits
        ]
    _emit(_json_doc(doc), args.out)
    return 0


# ---------------------------------------------------------------- prob


def cmd_prob(args) -> int:
    if args.verify:
        for flag in ("n", "kmax", "format"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} is not read by --verify, which runs fixed checks")
        lines = []
        ok = True
        for n in range(1, 9):
            row = q_direct_row(n, 12)
            agrees = all(row[i] == q_exact(n, i) for i in range(13))
            ok &= agrees
            lines.append(
                f"{'PASS' if agrees else 'FAIL'} recurrence vs brute sum n={n}, i<=12"
            )
        rng = as_rng(args.seed)
        for n in (4, 8):
            for k in range(n, n + 9):
                trials = 10000
                rate = rank_success_rate(n, k, trials, rng)
                exact = float(success_prob_exact(n, k))
                se = (exact * (1 - exact) / trials) ** 0.5
                within = abs(rate - exact) <= 3 * se
                ok &= within
                lines.append(
                    f"{'PASS' if within else 'FAIL'} rank bridge n={n} k={k}: "
                    f"measured {rate:.4f} vs {exact:.4f} (3SE={3 * se:.4f})"
                )
        _emit("\n".join(lines) + "\n", args.out)
        return 0 if ok else 1

    n = args.n if args.n is not None else 8
    rows = prob_table(n, args.kmax if args.kmax is not None else n + 32)
    if args.format != "csv":
        doc = {
            "n": n,
            "rows": [{"k": k, "s": s, "h": h} for k, s, h in rows],
        }
        text = _json_doc(doc)
    else:
        text = _csv_doc("n,k,s,h", *(f"{n},{k},{s!r},{h!r}" for k, s, h in rows))
    _emit(text, args.out)
    return 0


# ----------------------------------------------------------------- anf


def cmd_anf(args) -> int:
    a = parse_anf(args.anf, args.n)
    doc = {
        "n": a.n,
        "anf": format_anf(a),
        "degree": a.degree(),
        "monomials": len(a.monomials),
    }
    if args.classify:
        verdict = classify_top(a)
        doc["classify"] = {
            "case": verdict.case,
            "forced_s": str(verdict.forced_s) if verdict.forced_s else None,
        }
    conditions = theorem2_system(a) if args.system or args.check_s else None
    if args.system:
        doc["conditions"] = [
            {
                "x_monomial": _mono_text(c.x_monomial, "x"),
                "terms": [_mono_text(m, "s") for m in sorted(c.monomials)],
            }
            for c in conditions
        ]
    if args.check_s:
        s = BitVector.from_string(args.check_s)
        if s.n != a.n:
            raise ValueError("--check-s length does not match the variable count")
        solves = all(c.evaluate(s) == 0 for c in conditions)
        diff = derivative_anf(a, s)
        zero = not diff.monomials
        constant = diff.degree() <= 0
        doc["check_s"] = {
            "s": str(s),
            "solves_conditions": solves,
            "derivative": format_anf(diff) if constant else "nonconstant",
            "in_u0": zero,
            "in_u1": constant and not zero,
        }
        # the conditions encode exactly "derivative is the zero function"
        if solves != zero:
            raise RuntimeError("condition system disagrees with the derivative")
    _emit(_json_doc(doc), args.out)
    return 0


# ---------------------------------------------------------------- sat3


def cmd_sat3(args) -> int:
    if not (args.reduce or args.solve or args.verify_theorem4):
        raise ValueError("pick at least one of --reduce, --solve, --verify-theorem4")
    for flag in ("k", "trials"):
        if getattr(args, flag) is not None and not args.verify_theorem4:
            raise ValueError(f"--{flag} is read only by --verify-theorem4")

    doc: dict = {}
    failed = False

    if args.reduce or args.solve:
        if not args.cnf:
            raise ValueError("--reduce and --solve need --cnf <file>")
        cnf = parse_dimacs(_read_text(args.cnf))
        system = reduce_cnf(cnf)
        doc["n"] = cnf.n
        doc["clauses"] = len(cnf.clauses)
        if args.reduce:
            doc["equations"] = [
                [[idx, r] for idx, r in eq] for eq in system.equations
            ]
        if args.solve:
            sol = solve_brute(system)
            doc["satisfiable"] = sol is not None
            doc["assignment"] = str(sol) if sol is not None else None

    if args.verify_theorem4:
        case = args.verify_theorem4
        k_min = _CASES[case]["tail"]
        ks = [args.k] if args.k is not None else list(range(k_min, 9))
        if args.k is not None and not k_min <= args.k <= _THEOREM4_N_MAX:
            raise ValueError(f"case {case} needs {k_min} <= --k <= {_THEOREM4_N_MAX}")
        trials = args.trials if args.trials is not None else 100
        if trials < 1:
            raise ValueError("--trials must be at least 1")
        rng = as_rng(args.seed)
        results = []
        for k in ks:
            draws = (theorem4_instance(case, k, rng) for _ in range(trials))
            hold = sum(theorem4_verify(case, k, *draw) for draw in draws)
            results.append({"k": k, "hold": hold, "trials": trials})
            failed |= hold != trials
        doc["case"] = case
        doc["identity_checks"] = results

    _emit(_json_doc(doc), args.out)
    return 1 if failed else 0


# --------------------------------------------------------------- plant


def cmd_plant(args) -> int:
    rng = as_rng(args.seed)
    if args.kind == "rtype":
        if not args.f:
            raise ValueError("--kind rtype needs --f <base table>")
        if args.n is not None or args.dim is not None:
            raise ValueError("--n and --dim are not read by --kind rtype, which takes the table from --f")
        base = _read_table(args.f)
        r = args.r if args.r is not None else 1
        flipped = plant_r_type(base, r, _child_seed(rng))
        _emit(format_truth_table(flipped), args.out)
        if args.out:
            doc = {"kind": "rtype", "n": base.n, "r": r, "out": args.out}
            sys.stdout.write(_json_doc(doc))
        return 0

    for flag in ("f", "r"):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} is read only by --kind rtype")
    if args.n is None or args.dim is None:
        raise ValueError("--kind structure/periods needs --n and --dim")
    if not 0 <= args.dim <= args.n:
        raise ValueError("--dim must lie in 0..n")
    if args.kind == "periods" and args.dim == 0:
        raise ValueError("a period plant needs --dim >= 1")
    vectors = _independent_anchors(args.n, args.dim, rng)
    span = span_of(args.n, vectors)
    if args.kind == "structure":
        f = plant_structure(PlantSpec(args.n, span, _child_seed(rng)))
        text = format_truth_table(f)
    else:
        F = plant_periods(args.n, span, _child_seed(rng))
        text = format_multi_truth_table(F)
    _emit(text, args.out)
    if args.out:
        doc = {
            "kind": args.kind,
            "n": args.n,
            "dim": span.dim,
            "basis": [str(b) for b in span.basis.rows],
            "out": args.out,
        }
        sys.stdout.write(_json_doc(doc))
    return 0


# --------------------------------------------------------------- bench


def cmd_bench(args) -> int:
    if not 1 <= args.n_min <= args.n_max <= MAX_DIMENSION:
        raise ValueError(f"need 1 <= --n-min <= --n-max <= {MAX_DIMENSION}")
    if args.check and args.n_max == args.n_min:
        raise ValueError("--check compares consecutive n, so it needs --n-max above --n-min")
    if args.repeat < 1:
        raise ValueError("--repeat must be at least 1")
    rng = as_rng(args.seed)
    rows = []
    spectrum_times = []
    for n in range(args.n_min, args.n_max + 1):
        table = rng.integers(0, 2, size=1 << n).astype(np.uint8)
        f = TruthTable(n, table)
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            autocorr_values(f.table)
            best = min(best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        find_structure_simple(f, RunConfig(seed=_child_seed(rng)))
        find_s = time.perf_counter() - t0
        spectrum_times.append(best)
        rows.append(f"{n},{best:.6f},{find_s:.6f}")
    _emit(_csv_doc("n,spectrum_seconds,find_seconds", *rows), args.out)
    if args.check:
        ratios = [
            b / a for a, b in zip(spectrum_times, spectrum_times[1:]) if a > 0
        ]
        bad = [r for r in ratios if not 1.8 <= r <= 2.6]
        if bad:
            sys.stderr.write(
                f"scaling check failed: ratios {['%.2f' % r for r in ratios]}\n"
            )
            return 1
    return 0


# -------------------------------------------------------------- parser


@functools.cache  # one per process: a parser's reference cycles outlive each call as garbage
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=lambda s: int(s, 0),
        default=DEFAULT_SEED,
        help="RNG seed; default 0x53494D4F4E, fixed for reproducibility",
    )
    common.add_argument("--out", help="write the main artifact here instead of stdout")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default=None, help="artifact format (default json)")

    parser = argparse.ArgumentParser(
        prog="simonstruct",
        description="Simulate, recover, and verify linear structures of Boolean functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("find", parents=[common], help="recover structures or periods by sampling")
    p.add_argument("--f", required=True, help="truth-table file, or - for stdin")
    p.add_argument("--mode", choices=("simple", "iterative", "periods"), default="simple")
    p.add_argument("--rounds-cap", type=int, default=None)
    p.add_argument("--verify-p", type=int, default=None)
    p.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-validate against the exact oracle; exit 1 on disagreement",
    )
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("sample", parents=[common], help="emit measurement samples, one y per line")
    p.add_argument("--f", required=True, help="truth-table file, or - for stdin")
    p.add_argument("--anchors", default="random:0", help="anchor file or random:k")
    p.add_argument("--rounds", type=int, default=16)
    p.add_argument("--trace", help="write a JSON-lines trace of (observed, |S|) here")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("oracle", parents=[common, fmt], help="exact spectrum and structure sets")
    p.add_argument("--f", required=True, help="truth-table file, or - for stdin")
    p.add_argument("--scan-r", type=int, default=None, help="also list shifts with <= r violations")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("prob", parents=[common, fmt], help="success-probability tables and checks")
    p.add_argument("--n", type=int, default=None, help="input bits (default 8)")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument(
        "--verify",
        action="store_true",
        help="run the dual-route and Monte-Carlo bridge checks; exit 1 on failure",
    )
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("anf", parents=[common], help="normal-form tools and condition systems")
    p.add_argument("--anf", required=True, help='polynomial text, e.g. "x1*x2 + x3 + 1"')
    p.add_argument("--n", type=int, default=None, help="variable count (default: highest index used)")
    p.add_argument("--classify", action="store_true", help="top-coefficient pattern verdict")
    p.add_argument("--system", action="store_true", help="emit the vanishing-condition system")
    p.add_argument("--check-s", help="test one shift (bit string) against the system")
    p.set_defaults(func=cmd_anf)

    p = sub.add_parser("sat3", parents=[common], help="clause-to-product reduction tools")
    p.add_argument("--cnf", help="DIMACS-style input file")
    p.add_argument("--reduce", action="store_true", help="emit the product-equation system")
    p.add_argument("--solve", action="store_true", help="brute-force the reduced system")
    p.add_argument(
        "--verify-theorem4",
        choices=("1", "2a", "2b", "2c"),
        help="check a tail-coefficient identity on random draws; exit 1 on failure",
    )
    p.add_argument("--k", type=int, default=None, help="restrict the identity check to one k")
    p.add_argument("--trials", type=int, default=None, help="draws per k (default 100)")
    p.set_defaults(func=cmd_sat3)

    p = sub.add_parser("plant", parents=[common], help="construct ground-truth instances")
    p.add_argument("--kind", choices=("structure", "periods", "rtype"), default="structure")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--f", help="base table for --kind rtype")
    p.add_argument("--r", type=int, default=None, help="points to flip for --kind rtype (default 1)")
    p.set_defaults(func=cmd_plant)

    p = sub.add_parser("bench", parents=[common], help="transform and recovery timings per n")
    p.add_argument("--n-min", type=int, default=12)
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--repeat", type=int, default=3, help="timing repetitions, best kept")
    p.add_argument(
        "--check",
        action="store_true",
        help="enforce the n*2^n scaling band (consecutive ratio in [1.8, 2.6])",
    )
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

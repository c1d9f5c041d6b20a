"""simonstruct benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload recover-planted --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  The timed phase runs whole cycles of the workload's ops
(see workloads.py) until another cycle would pass --seconds of op time.  Each
op's answer is checked against planted ground truth between ops, off the
clock.  --trace 0 prints the end-to-end metrics; --trace 1 runs the same ops
untraced and then traced, fails if their output digests differ, and prints
the per-layer metrics.  A result file with the environment, the inputs and
every op's latency and digest goes to .perfbench/results/ in the checkout.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))


def import_package():
    if not (SRC / "simonstruct" / "__init__.py").is_file():
        sys.exit(f"error: no simonstruct package under {SRC}; run inside a checkout")
    sys.path.insert(0, str(SRC))
    import simonstruct

    if Path(simonstruct.__file__).resolve().parent != SRC / "simonstruct":
        sys.exit(f"error: imported simonstruct from {simonstruct.__file__}, not from {SRC}")


# ------------------------------------------------------------------ environment


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int:
    if not text:
        return 0
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def cpu_caches() -> dict[str, int]:
    """Cache sizes of cpu0 by level, read-only from sysfs."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind != "Instruction":
            out[f"L{level}"] = _size_bytes(_read(index / "size"))
    return out


def environment(seed: int, workload) -> dict:
    import simonstruct

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    caches = cpu_caches()
    llc = max(caches.values(), default=0)
    sizes = sorted({n for _, n, _ in workload.slots})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simonstruct": simonstruct.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "blas_threads": "library default (at most nproc)",
        "caches_bytes": caches,
        "seed": seed,
        "workload": workload.name,
        "ops": workload.describe(),
        "array_sizes": [
            {"n": n, "entries": 1 << n, "int64_bytes": 8 << n,
             "int64_over_llc": round((8 << n) / llc, 4) if llc else None}
            for n in sizes
        ],
        "note": "walsh.bytes_moved is computed, not measured; no bandwidth or roofline claim is made",
    }


# ------------------------------------------------------------------ running


def setup(name: str, seed: int, scale: str, workdir: Path):
    """Median set-up time over SETUP_REPEATS, and the workload of the last set-up.

    Set-up is interpreter start plus package import, measured in fresh child
    interpreters, plus planting the instances and writing input files here.
    """
    from workloads import Workload

    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import simonstruct"],
            check=True, timeout=120,
        )
        imports.append(time.perf_counter() - t0)
    for _ in range(SETUP_REPEATS):
        wl = None  # drop the previous pool before planting the next
        t0 = time.perf_counter()
        wl = Workload(name, seed, scale, workdir)
        builds.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(builds), wl, imports, builds


def run_phase(wl, seconds: float, cycles: int | None = None, tracer=None) -> tuple[list[dict], float, int]:
    """Closed loop over whole cycles; returns op records, op time and cycles run."""
    from workloads import CheckFailed

    records: list[dict] = []
    busy, c = 0.0, 0
    while True:
        cycle_time = 0.0
        for op in wl.cycle(c):
            if tracer is not None:
                tracer.op_id = len(records)
            rec = {"op": op.label, "cycle": c}
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception:
                t1 = time.perf_counter()
                rec.update(ok=False, why=traceback.format_exc(limit=3)[-600:])
            else:
                t1 = time.perf_counter()
                try:
                    rec["digest"], rec["out_bytes"] = op.check(result)
                    rec["ok"] = True
                except CheckFailed as exc:
                    rec.update(ok=False, why=str(exc))
                del result
            rec["latency_s"] = t1 - t0
            cycle_time += t1 - t0
            records.append(rec)
        busy += cycle_time
        c += 1
        if cycles is not None:
            if c >= cycles:
                break
        elif busy + cycle_time > seconds:
            break
    return records, busy, c


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten ops beyond it."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[len(xs) - 11], 100.0 * (len(xs) - 10) / len(xs)


def e2e_metrics(records, busy, setup_s) -> tuple[dict, dict]:
    lat = [r["latency_s"] for r in records]
    tail_s, tail_pct = tail(lat)
    failed = sum(not r["ok"] for r in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(lat), "s"),
        "op_s_tail": (tail_s, "s"),
        "ops_per_s": ((len(records) - failed) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "fail_rate": failed / len(records),
        "samples": len(records),
        "tail_percentile": tail_pct,
        "timed_phase_s": busy,
    }
    return metrics, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str, out_dir: Path) -> dict:
    import spans as tracing

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s, wl, imports, builds = setup(name, seed, scale, workdir)
        env = environment(seed, wl)
        if not trace:
            records, busy, cycles = run_phase(wl, seconds)
            metrics, extra = e2e_metrics(records, busy, setup_s)
            correct = all(r["ok"] for r in records)
            result = {"metrics": metrics, "summary": extra, "records": records}
        else:
            plain, busy, cycles = run_phase(wl, seconds / 2)
            tracer = tracing.Tracer()
            traced_names = tracer.install()
            try:
                traced, traced_busy, _ = run_phase(wl, seconds, cycles=cycles, tracer=tracer)
            finally:
                tracer.uninstall()
            records = plain + traced
            same = [a.get("digest") for a in plain] == [b.get("digest") for b in traced]
            correct = same and all(r["ok"] for r in records)
            metrics = tracing.layer_metrics(tracer.spans, env["caches_bytes"].get("L2", 0))
            # the first cycle of the untraced phase also pays process warm-up, so
            # the overhead compares the two phases from their second cycle on
            skip = len(wl.slots) if cycles > 1 else 0
            overhead = (sum(r["latency_s"] for r in traced[skip:])
                        / sum(r["latency_s"] for r in plain[skip:]) - 1.0)
            inside = tracing.op_self_sums(tracer.spans, len(traced))
            gaps = [(r["latency_s"] - t) / r["latency_s"] for r, t in zip(traced, inside)]
            metrics["cli.out_bytes"] = (sum(r.get("out_bytes", 0) for r in traced), "B")
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
            metrics["trace.outside_spans_pct_max"] = (100.0 * float(max(gaps)), "%")
            metrics["trace.spans"] = (len(tracer.spans), "count")
            extra = {
                "digests_identical": same,
                "untraced_ops_per_s": len(plain) / busy,
                "traced_ops_per_s": len(traced) / traced_busy,
                "traced_names": traced_names,
            }
            result = {"metrics": metrics, "summary": extra, "records": records}
            spans_path = out_dir / f"{name}-s{seed}-spans.json"
            out_dir.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "op", "value"], "spans": tracer.spans}
            ))
        result.update(
            workload=name, seed=seed, seconds=seconds, trace=int(trace), scale=scale, cycles=cycles,
            correct=correct, setup={"import_s": imports, "build_s": builds}, environment=env,
        )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def final_line(correct: bool, records: list[dict], metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload at n <= 8, traced, every check on")
    ap.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench" / "results")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke")
    import_package()

    if args.smoke:
        correct, records = True, []
        for name in WORKLOADS:
            for trace in (False, True):
                res = run_workload(name, args.seed, 0.01, trace, "smoke", args.out_dir)
                bad = [r for r in res["records"] if not r["ok"]]
                print(f"{name} trace={int(trace)}: {len(res['records'])} ops, {len(bad)} failed, "
                      f"digests identical: {res['summary'].get('digests_identical', '-')}")
                for r in bad:
                    print(f"  FAIL {r['op']}: {r['why']}")
                correct &= res["correct"]
                records += res["records"]
        print(final_line(correct, records, {}))
        return 0 if correct else 1

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), "full", args.out_dir)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(res, indent=1))
    summary = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in res["summary"].items() if k != "traced_names")
    print(f"{args.workload} seed={args.seed} cycles={res['cycles']}: {summary}")
    for k, (v, u) in res["metrics"].items():
        print(f"  {k:32s} {v:.6g} {u}")
    for r in res["records"]:
        if not r["ok"]:
            print(f"  FAIL {r['op']}: {r['why']}")
    print(f"result file: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(final_line(res["correct"], res["records"], res["metrics"]))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

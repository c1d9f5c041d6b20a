"""Compare two sets of benchmark result files, workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result files that `run.py --trace 0` writes, one per
workload and seed.  For every workload and end-to-end metric in
BENCHMARK.json this prints each side's median and quartiles and a verdict:

  unresolved  the base's own spread (quartile distance over median) is wider
              than the metric's bound, and not every change run beats every
              base run;
  REGRESSION  the change's median is worse than the base's by more than the
              bound;
  gain        the change wins at least nine tenths of the seed-matched pairs
              (ties count for neither) and the medians differ by more than the
              base's quartile distance;
  same        none of the above.

Exit code 1 when any row is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> tuple[dict[str, dict[int, dict[str, float]]], dict[str, str]]:
    """workload -> seed -> metric -> value from untraced result files, and each workload's op list."""
    out: dict[str, dict[int, dict[str, float]]] = {}
    ops: dict[str, str] = {}
    for path in sorted(directory.glob("*-t0.json")):
        res = json.loads(path.read_text())
        out.setdefault(res["workload"], {})[res["seed"]] = {k: v for k, (v, _) in res["metrics"].items()}
        ops[res["workload"]] = json.dumps(res["environment"]["ops"])
    return out, ops


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict[int, float], change: dict[int, float], bound: float, higher_better: bool) -> str:
    sign = 1.0 if higher_better else -1.0
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    c_med = statistics.median(change.values())
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    all_better = min(sign * v for v in change.values()) > max(sign * v for v in base.values())
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (c_med - b_med) < -bound * abs(b_med):
        return "REGRESSION"
    pairs = [(base[s], change[s]) for s in base.keys() & change.keys()]
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - b_med) > b_q3 - b_q1:
        return "gain"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (base, base_ops), (change, change_ops) = load(Path(argv[0])), load(Path(argv[1]))
    regressions = 0
    for workload in sorted(base.keys() | change.keys()):
        if workload not in base or workload not in change:
            print(f"{workload}: results on one side only")
            continue
        print(f"{workload}  ({len(base[workload])} base runs, {len(change[workload])} change runs)")
        if base_ops[workload] != change_ops[workload]:
            print("  the two sides ran different op lists; the rows below compare different work")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = {s: m[name] for s, m in base[workload].items() if name in m}
            c = {s: m[name] for s, m in change[workload].items() if name in m}
            if not b or not c:
                print(f"  {name:12s} missing")
                continue
            v = verdict(b, c, metric["bound"], metric["better"] == "higher")
            regressions += v == "REGRESSION"
            bq, cq = quartiles(list(b.values())), quartiles(list(c.values()))
            print(f"  {name:12s} base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]  "
                  f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {metric['unit']}  "
                  f"bound {metric['bound']:.0%}  {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Smoke tests of the benchmark: python3 -m pytest perfbench/test_smoke.py"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def test_smoke_mode_runs_every_workload_with_every_check(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] >= 3 * 2 * 5


@pytest.fixture()
def package():
    run.import_package()
    import simonstruct

    return simonstruct


def test_wrong_answers_fail_their_checks(package, tmp_path, monkeypatch):
    real = package.brute_structures

    def drop_u1_and_shrink_u0(f, cap=24):
        sets = real(f, cap)
        rows = sets.u0.basis.row_ints()[1:]
        return package.oracle.StructureSets(package.span_of(f.n, rows), ())

    def raise_error(F, cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(package, "brute_structures", drop_u1_and_shrink_u0)
    monkeypatch.setattr(package, "find_periods", raise_error)
    res = run.run_workload("oracle-cap", 3, 0.01, False, "smoke", tmp_path)
    bad = {r["op"].split()[0] for r in res["records"] if not r["ok"]}
    assert bad == {"brute_structures"}
    assert not res["correct"]
    res = run.run_workload("recover-planted", 3, 0.01, False, "smoke", tmp_path)
    bad = {r["op"].split()[0] for r in res["records"] if not r["ok"]}
    assert bad == {"find_periods"}


@pytest.mark.parametrize("workload, used", [
    ("recover-planted", ["recover.rounds", "recover.self_s", "simulate.collapse_calls", "oracle.verify_probes"]),
    ("oracle-cap", ["boolfn.plant_s", "oracle.autocorr_calls", "walsh.transform_calls"]),
    ("cli-roundtrip", ["cli.out_bytes", "cli.self_s", "boolfn.text_bytes", "simulate.collapse_calls"]),
])
def test_traced_run_reports_every_layer_metric(package, tmp_path, workload, used):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    res = run.run_workload(workload, 5, 0.01, True, "smoke", tmp_path)
    assert res["correct"] and res["summary"]["digests_identical"]
    assert {m["name"] for m in spec["per_layer"]} == set(res["metrics"])
    for name in used:
        assert res["metrics"][name][0] > 0, name
    # the layer self times cover each op's wall time up to the loop's own overhead
    assert res["metrics"]["trace.outside_spans_pct_max"][0] < 5.0

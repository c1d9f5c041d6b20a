"""Command-line interface, driven through subprocess like a user would."""

import argparse
import json
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from simonstruct import boolfn, cli, oracle, recover, simulate
from simonstruct.boolfn import TruthTable, parse_multi_truth_table, parse_truth_table
from simonstruct.probmodel import prob_table
from simonstruct.recover import _independent_anchors
from simonstruct.simulate import collapse, sample_y


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "simonstruct", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    r = run_cli("plant", "--n", "8", "--dim", "2", "--seed", "5", "--out", str(path / "f.tt"))
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "plant", "--kind", "periods", "--n", "8", "--dim", "2", "--seed", "6",
        "--out", str(path / "F.mtt"),
    )
    assert r.returncode == 0, r.stderr
    (path / "demo.cnf").write_text("p cnf 4 2\n1 -2 3 0\n-1 2 4 0\n")
    return path


def test_plant_echoes_ground_truth(workdir):
    out = workdir / "g.tt"
    r = run_cli("plant", "--n", "6", "--dim", "1", "--seed", "9", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["kind"] == "structure"
    assert doc["n"] == 6
    assert len(doc["basis"]) == doc["dim"] == 1
    f = parse_truth_table(out.read_text())
    assert f.n == 6


def test_plant_is_deterministic(workdir):
    a = run_cli("plant", "--n", "7", "--dim", "2", "--seed", "3", "--out", str(workdir / "a.tt"))
    b = run_cli("plant", "--n", "7", "--dim", "2", "--seed", "3", "--out", str(workdir / "a.tt"))
    assert a.stdout == b.stdout
    assert (workdir / "a.tt").read_text() == (workdir / "a.tt").read_text()


def test_find_simple_recovers_and_verifies(workdir):
    r = run_cli("find", "--f", str(workdir / "f.tt"), "--oracle-check", "--seed", "2")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["verified"] is True
    assert doc["pseudo_flag"] is False
    assert doc["oracle_checked"] is True
    assert doc["candidate_dim"] == 2
    assert len(doc["candidate_basis"]) == 2
    assert all(set(b) <= {"0", "1"} for b in doc["candidate_basis"])


def test_find_iterative_mode(workdir):
    r = run_cli("find", "--f", str(workdir / "f.tt"), "--mode", "iterative", "--seed", "4")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["stabilized"] is True
    assert doc["candidate_dim"] == 2


def test_find_periods_mode(workdir):
    r = run_cli(
        "find", "--f", str(workdir / "F.mtt"), "--mode", "periods", "--oracle-check"
    )
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["span_dim"] == 2
    assert doc["oracle_agrees"] is True
    assert doc["verified"] is True and doc["witness"] is None


def test_find_reads_stdin(workdir):
    text = (workdir / "f.tt").read_text()
    r = run_cli("find", "--f", "-", "--seed", "2", stdin=text)
    assert r.returncode == 0
    assert json.loads(r.stdout)["candidate_dim"] == 2


def test_find_rejects_garbage_with_exit_2(workdir, capsys):
    r = run_cli("find", "--f", str(workdir / "missing.tt"))
    assert r.returncode == 2
    assert "error:" in r.stderr
    r = run_cli("find", "--f", "-", stdin="not a table\n")
    assert r.returncode == 2
    # a header above the dimension cap of 24 is refused when the table is parsed
    big = workdir / "n25.tt"
    big.write_text("n=25\n0\n")
    for argv in (["find"], ["find", "--mode", "periods"], ["oracle"], ["sample"]):
        assert cli.main([*argv, "--f", str(big)]) == 2
        assert "24" in capsys.readouterr().err


def test_sample_emits_rounds_and_trace(workdir):
    trace = workdir / "trace.jsonl"
    r = run_cli(
        "sample", "--f", str(workdir / "f.tt"), "--anchors", "random:3",
        "--rounds", "5", "--trace", str(trace),
    )
    assert r.returncode == 0
    ys = r.stdout.splitlines()
    assert len(ys) == 5
    assert all(len(y) == 8 and set(y) <= {"0", "1"} for y in ys)
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(rows) == 5
    for i, row in enumerate(rows):
        assert row["round"] == i
        assert row["s_size"] >= 1


def test_sample_anchor_file(workdir):
    anchors = workdir / "anchors.txt"
    anchors.write_text("00000011\n00010000\n")
    r = run_cli("sample", "--f", str(workdir / "f.tt"), "--anchors", str(anchors), "--rounds", "3")
    assert r.returncode == 0
    assert len(r.stdout.splitlines()) == 3


@pytest.mark.parametrize(
    "anchors, junta, kept",
    [("random:0", False, True), ("random:3", False, False), ("random:3", True, True)],
    ids=["random:0", "random:3", "junta-random:3"],
)
def test_sample_law_memo_keeps_the_library_y_stream(
    tmp_path, monkeypatch, capsys, anchors, junta, kept
):
    # n = 10.  On an unstructured table, no anchors give 2 words with S of
    # about 512 inputs, so 2**r <= 4|S| and each law is built once; 3 anchors
    # give 16 words with S of about 64 inputs spanning all of GF(2)**10, so
    # each law is built again every round its word occurs.  A table reading
    # only x_1..x_4 keeps every law, and its words share first values.
    n, rounds, seed = 10, 400, 55
    g = np.random.default_rng(54).integers(0, 2, size=1 << n)
    f = TruthTable(n, g[np.arange(1 << n) & 15] if junta else g)
    table, trace = tmp_path / "f.tt", tmp_path / "t.jsonl"
    table.write_text(boolfn.format_truth_table(f))
    rng = np.random.default_rng(seed)
    lib_anchors = _independent_anchors(n, int(anchors.split(":")[1]), rng)
    want = [str(sample_y(collapse(f, lib_anchors, rng), rng)) for _ in range(rounds)]

    real = simulate.CollapseOutcome.weights
    builds = {}

    def counting(out):
        law = real(out)
        builds.setdefault(out.observed, []).append(1 << law.r <= 4 * out.size)
        return law

    monkeypatch.setattr(simulate.CollapseOutcome, "weights", counting)
    argv = ["sample", "--f", str(table), "--anchors", anchors, "--rounds", str(rounds),
            "--seed", str(seed), "--trace", str(trace)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == want
    seen = Counter(tuple(json.loads(line)["observed"]) for line in trace.read_text().splitlines())
    assert set(builds) == set(seen)
    for word, small in builds.items():
        assert len(set(small)) == 1
        assert len(small) == (1 if small[0] else seen[word])
    assert {small[0] for small in builds.values()} == {kept}


def test_oracle_csv_lists_all_shifts(workdir):
    r = run_cli("oracle", "--f", str(workdir / "f.tt"), "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("# schema=")
    assert lines[1] == "alpha,autocorr,in_u0,in_u1,violations,c"
    body = lines[2:]
    assert len(body) == 256
    first = body[0].split(",")
    assert first[1] == "256" and first[2] == "1"
    u0_rows = [row for row in body if row.split(",")[2] == "1"]
    assert len(u0_rows) == 4


def test_oracle_csv_membership_columns_match_structure_sets(workdir, tmp_path, capsys):
    f = parse_truth_table((workdir / "f.tt").read_text())
    u0 = oracle.brute_structures(f).u0
    low = u0.basis.rows[0].bits & -u0.basis.rows[0].bits
    # adding the linear function x -> x.low moves half of u0 into u1
    g = boolfn.TruthTable(f.n, f.table ^ ((np.arange(1 << f.n) & low) > 0))
    sets = oracle.brute_structures(g)
    assert sets.u1
    (tmp_path / "g.tt").write_text(boolfn.format_truth_table(g))
    assert cli.main(["oracle", "--f", str(tmp_path / "g.tt"), "--format", "csv"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[2:]]
    assert {r[0] for r in rows if r[3] == "1"} == {str(v) for v in sets.u1}
    assert {r[0] for r in rows if r[2] == "1"} == {str(v) for v in sets.u0.members()}


def test_flags_are_refused_where_they_are_not_read(workdir, capsys):
    r = run_cli("find", "--f", str(workdir / "f.tt"), "--format", "csv")
    assert r.returncode == 2
    assert r.stdout == ""
    assert run_cli("bench", "--n-min", "8", "--n-max", "8", "--format", "json").returncode == 2
    assert run_cli("prob", "--n", "2", "--n-cap", "4").returncode == 2
    assert run_cli("prob", "--n", "2", "--csv", str(workdir / "p.csv")).returncode == 2
    # the CSV's violations column already covers every shift
    assert run_cli("oracle", "--f", str(workdir / "f.tt"), "--scan-r", "2", "--format", "csv").returncode == 2
    assert run_cli("sat3", "--cnf", str(workdir / "demo.cnf"), "--reduce", "--k", "4").returncode == 2
    # each refusal names the flag that would be ignored
    ignored = [
        (["plant", "--kind", "structure", "--n", "4", "--dim", "1", "--f", str(workdir / "f.tt")], "--f"),
        (["plant", "--kind", "periods", "--n", "4", "--dim", "1", "--f", str(workdir / "f.tt")], "--f"),
        (["prob", "--verify", "--kmax", "2"], "--kmax"),
        (["plant", "--kind", "rtype", "--f", str(workdir / "f.tt"), "--n", "8"], "--n"),
        (["plant", "--kind", "rtype", "--f", str(workdir / "f.tt"), "--dim", "1"], "--dim"),
        (["plant", "--kind", "structure", "--n", "4", "--dim", "1", "--r", "5"], "--r"),
        (["plant", "--kind", "periods", "--n", "4", "--dim", "1", "--r", "5"], "--r"),
        (["prob", "--verify", "--n", "3"], "--n"),
        (["prob", "--verify", "--format", "csv"], "--format"),
        (["sat3", "--cnf", str(workdir / "demo.cnf"), "--reduce", "--trials", "5"], "--trials"),
    ]
    for argv, flag in ignored:
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and flag in err


def test_defaults_apply_where_a_flag_is_not_given(workdir, capsys):
    assert cli.main(["prob", "--kmax", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 8
    assert cli.main(["sat3", "--verify-theorem4", "1", "--k", "4"]) == 0
    assert [c["trials"] for c in json.loads(capsys.readouterr().out)["identity_checks"]] == [100]
    argv = ["plant", "--kind", "rtype", "--f", str(workdir / "f.tt"), "--out", str(workdir / "r1.tt")]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 1


# every option of every subcommand (help aside); a change here is a change to the CLI
OPTIONS = {
    "find": ["--seed", "--out", "--f", "--mode", "--rounds-cap", "--verify-p", "--oracle-check"],
    "sample": ["--seed", "--out", "--f", "--anchors", "--rounds", "--trace"],
    "oracle": ["--seed", "--out", "--format", "--f", "--scan-r"],
    "prob": ["--seed", "--out", "--format", "--n", "--kmax", "--verify"],
    "anf": ["--seed", "--out", "--anf", "--n", "--classify", "--system", "--check-s"],
    "sat3": ["--seed", "--out", "--cnf", "--reduce", "--solve", "--verify-theorem4", "--k", "--trials"],
    "plant": ["--seed", "--out", "--kind", "--n", "--dim", "--f", "--r"],
    "bench": ["--seed", "--out", "--n-min", "--n-max", "--repeat", "--check"],
}


def test_option_inventory():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }
    assert got == OPTIONS
    assert len(OPTIONS) == 8 and sum(map(len, OPTIONS.values())) == 52


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["sample", "--anchors", "random:-3"], "-3"),
        (["sample", "--rounds", "0"], "--rounds"),
        (["sample", "--rounds", "-2"], "--rounds"),
        (["bench", "--n-min", "4", "--n-max", "4", "--repeat", "0"], "--repeat"),
        (["sat3", "--verify-theorem4", "1", "--trials", "-1"], "--trials"),
        (["sat3", "--verify-theorem4", "1", "--trials", "0"], "--trials"),
        (["sat3", "--verify-theorem4", "2a", "--k", "13"], "12"),
        (["find", "--rounds-cap", "0"], "rounds_cap"),
        (["find", "--rounds-cap", "-3"], "rounds_cap"),
        (["find", "--verify-p", "0"], "verify_p"),
        (["plant", "--n", "25", "--dim", "1"], "24"),
        (["bench", "--n-max", "25"], "24"),
        (["prob", "--n", "400"], "24"),
        (["plant", "--kind", "periods", "--n", "1", "--dim", "1"], "n >= 2"),
        # one n gives no ratio, so --check would pass without checking anything
        (["bench", "--n-min", "10", "--n-max", "10", "--check"], "--check"),
    ],
    ids=[
        "anchors-neg", "rounds-0", "rounds-neg", "repeat-0", "trials-neg", "trials-0", "k-13",
        "rounds-cap-0", "rounds-cap-neg", "verify-p-0", "plant-n-25", "bench-n-max-25",
        "prob-n-400", "plant-periods-n-1", "bench-check-one-n",
    ],
)
def test_bad_counts_exit_2_with_a_message(workdir, capsys, argv, limit):
    if argv[0] in ("sample", "find"):
        argv = [*argv, "--f", str(workdir / "f.tt")]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and limit in err


@pytest.mark.parametrize(
    "argv, found",
    [
        (["find", "--f", "F.mtt"], "a multi-output table"),
        (["find", "--mode", "iterative", "--f", "F.mtt"], "a multi-output table"),
        (["sample", "--f", "F.mtt"], "a multi-output table"),
        (["oracle", "--f", "F.mtt"], "a multi-output table"),
        (["plant", "--kind", "rtype", "--f", "F.mtt"], "a multi-output table"),
        (["find", "--mode", "periods", "--f", "f.tt"], "a one-output table"),
    ],
    ids=["find", "find-iterative", "sample", "oracle", "plant-rtype", "find-periods"],
)
def test_a_table_of_the_other_layout_is_named(workdir, capsys, argv, found):
    argv = [str(workdir / a) if a.endswith("tt") else a for a in argv]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: found {found}") and "find --mode periods" in err


def test_a_broken_table_keeps_its_own_message(tmp_path, capsys):
    # a file that is neither layout is refused with the parser's own message
    (tmp_path / "bad.tt").write_text("n=2\n0120\n")
    cases = ((["oracle"], "only 0/1 characters"), (["find", "--mode", "periods"], "need 4 data lines"))
    for argv, message in cases:
        assert cli.main([*argv, "--f", str(tmp_path / "bad.tt")]) == 2
        err = capsys.readouterr().err
        assert message in err and "found" not in err


def test_find_passes_rounds_cap_and_verify_p_through(tmp_path, capsys, monkeypatch):
    f, F = str(tmp_path / "f.tt"), str(tmp_path / "F.mtt")
    assert cli.main(["plant", "--n", "8", "--dim", "2", "--seed", "11", "--out", f]) == 0
    assert cli.main(["plant", "--kind", "periods", "--n", "8", "--dim", "2", "--seed", "12", "--out", F]) == 0
    capsys.readouterr()
    for mode, table in (("simple", f), ("periods", F)):
        assert cli.main(["find", "--f", table, "--mode", mode, "--rounds-cap", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rounds_used"] == 3 and doc["stabilized"] is False
    # three rounds leave a periods span of dim >= 5, which the probes refute
    assert doc["verified"] is False and len(doc["witness"]) == 2
    assert cli.main(["find", "--f", F, "--mode", "periods", "--rounds-cap", "3", "--oracle-check"]) == 1
    probes = []

    def spy(f, candidates, p, seed=None):
        probes.append(p)
        return oracle.sampled_verify(f, candidates, p, seed)

    monkeypatch.setattr(recover, "sampled_verify", spy)
    for mode, table in (("simple", f), ("periods", F)):
        assert cli.main(["find", "--f", table, "--mode", mode]) == 0
        assert cli.main(["find", "--f", table, "--mode", mode, "--verify-p", "5"]) == 0
    assert probes == [64, 5, 64, 5]


def test_non_ascii_table_exits_with_usage_error(tmp_path, capsys):
    (tmp_path / "f.tt").write_text("n=1\n0\u00e9\n")
    assert cli.main(["oracle", "--f", str(tmp_path / "f.tt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_oracle_json_with_scan(workdir):
    r = run_cli("oracle", "--f", str(workdir / "f.tt"), "--scan-r", "4")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["u0_dim"] == 2
    assert len(doc["u0_basis"]) == 2
    assert doc["spectrum"][0] == 256
    hits = doc["r_type_hits"]
    assert any(h["violations"] == 0 for h in hits)
    assert all(h["violations"] <= 4 for h in hits)


def test_oracle_computes_the_spectrum_once(workdir, monkeypatch, capsys):
    real = boolfn.autocorr_values
    calls = []

    def counted(table):
        calls.append(np.shape(table))
        return real(table)

    for module in (boolfn, oracle, cli):
        monkeypatch.setattr(module, "autocorr_values", counted, raising=False)
    assert cli.main(["oracle", "--f", str(workdir / "f.tt"), "--scan-r", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["u0_dim"] == 2 and doc["r_type_hits"]
    assert calls == [(256,)]


def test_prob_table_csv(workdir):
    r = run_cli("prob", "--n", "2", "--kmax", "5", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[1] == "n,k,s,h"
    assert len(lines) == 6
    assert float(lines[2].split(",")[2]) == pytest.approx(0.375)
    assert float(lines[3].split(",")[2]) == pytest.approx(0.65625)
    # one row per k, each float written in full so that it reads back exactly
    rows = [line.split(",") for line in lines[2:]]
    assert [(int(n), int(k), float(s), float(h)) for n, k, s, h in rows] == [
        (2, k, s, h) for k, s, h in prob_table(2, 5)
    ]


def test_prob_verify_passes(workdir):
    r = run_cli("prob", "--verify")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "PASS" in r.stdout
    assert "FAIL" not in r.stdout


def test_anf_classify_system_and_check(workdir):
    r = run_cli(
        "anf", "--anf", "x1*x2 + x1*x3 + x2*x3", "--classify", "--system",
        "--check-s", "111",
    )
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["classify"]["case"] == "rule2"
    assert doc["classify"]["forced_s"] == "111"
    assert len(doc["conditions"]) > 0
    check = doc["check_s"]
    assert check["solves_conditions"] is False
    assert check["in_u0"] is False
    assert check["in_u1"] is True


def test_anf_system_terms_keep_word_order(capsys):
    # word order puts s2*s3 (0b110) before s1*s10 (bits 0 and 9); the
    # index-list order of format_anf would not
    assert cli.main(["anf", "--anf", "x2*x3 + x1*x10", "--system"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["anf"] == "x1*x10 + x2*x3"
    assert doc["conditions"][0] == {"x_monomial": "1", "terms": ["s2*s3", "s1*s10"]}
    assert [c["x_monomial"] for c in doc["conditions"]] == ["1", "x1", "x2", "x3", "x10"]


def test_anf_rejects_bad_polynomial(capsys):
    r = run_cli("anf", "--anf", "x1 ** x2")
    assert r.returncode == 2
    assert "error:" in r.stderr
    # x25 needs n = 25, above the dimension cap of 24
    assert cli.main(["anf", "--anf", "x1*x25"]) == 2
    assert "24" in capsys.readouterr().err


def test_sat3_reduce_and_solve(workdir):
    r = run_cli("sat3", "--cnf", str(workdir / "demo.cnf"), "--reduce", "--solve")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc["equations"]) == 2
    assert doc["satisfiable"] is True
    assert set(doc["assignment"]) <= {"0", "1"}


def test_sat3_theorem4_subcommand(workdir):
    r = run_cli("sat3", "--verify-theorem4", "2b", "--k", "4", "--trials", "10")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["identity_checks"] == [{"k": 4, "hold": 10, "trials": 10}]


def test_sat3_needs_input_for_reduce(workdir):
    r = run_cli("sat3", "--reduce")
    assert r.returncode == 2


def test_bench_runs_small(workdir):
    r = run_cli("bench", "--n-min", "8", "--n-max", "9", "--repeat", "1")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[1] == "n,spectrum_seconds,find_seconds"
    assert len(lines) == 4


def test_unknown_command_exits_with_usage_error():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("simonstruct ")]
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "demo.cnf").write_text("p cnf 4 2\n1 -2 3 0\n-1 2 4 0\n")
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)

import json

import pytest

from conftest import ROOT, load_script


def test_recorder_writes_into_an_out_directory_it_creates(tmp_path, monkeypatch):
    # the directory must exist before the first run, not only at the end,
    # or every run of a recording is lost
    record_bench = load_script("record_bench")
    names = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    out = tmp_path / "bench" / "nested"

    def fake_run(tree, workload, seed, args, trace=0):
        assert out.is_dir()
        metrics = {name: {"value": 1.0} for name in names}
        return {"returncode": 0, "facts": None,
                "result": {"correct": True, "metrics": metrics}}

    monkeypatch.setattr(record_bench, "run_once", fake_run)
    status = record_bench.main(["--label", "t", "--pairs", "1",
                                "--workload", "solve_ladder", "--out", str(out)])
    assert status == 0
    recorded = json.loads((out / "BENCH_t.json").read_text())
    assert recorded["label"] == "t" and len(recorded["runs"]) == 1


def test_recorder_summarizes_runs_that_report_null_metrics(tmp_path, monkeypatch):
    # perfbench reports null for a percentile that falls on failed
    # problems: a null is left out of the quartiles and counted, and loses
    # every pair it is in, and the file is still written
    record_bench = load_script("record_bench")
    names = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    src = tmp_path / "src"
    (src / "perfbench").mkdir(parents=True)
    (src / "perfbench" / "run.py").touch()
    # per tree and seed: problem_s_p90, null in a different pair per tree,
    # and setup_s, null in every run of the other checkout
    p90 = {"head": {1: None, 2: 1.0, 3: 1.0}, "src": {1: 2.0, 2: 2.0, 3: None}}

    def fake_run(tree, workload, seed, args, trace=0):
        side = "src" if tree == src.resolve() else "head"
        metrics = {name: {"value": 1.0} for name in names}
        metrics["problem_s_p90"]["value"] = p90[side][seed]
        metrics["setup_s"]["value"] = None if side == "src" else 1.0
        return {"returncode": 0, "facts": None,
                "result": {"correct": True, "metrics": metrics}}

    monkeypatch.setattr(record_bench, "run_once", fake_run)
    status = record_bench.main(["--label", "t", "--src", str(src), "--pairs", "3",
                                "--workload", "rate_sweeps", "--out", str(tmp_path)])
    assert status == 0
    summary = json.loads((tmp_path / "BENCH_t.json").read_text())["summary"]["rate_sweeps"]
    assert summary["problem_s_p90"] == {
        "head": {"median": 1.0, "q1": 1.0, "q3": 1.0, "nulls": 1},
        "src": {"median": 2.0, "q1": 2.0, "q3": 2.0, "nulls": 1},
        "head_better_pairs": "2/3"}
    assert summary["setup_s"]["src"] == {"median": None, "q1": None, "q3": None, "nulls": 3}
    assert summary["setup_s"]["head_better_pairs"] == "3/3"
    assert summary["problems_per_s"]["head_better_pairs"] == "0/3"


def test_code_lines_skip_blank_comment_and_docstring_lines(tmp_path, capsys):
    code_lines = load_script("code_lines")
    snippet = '''"""Module docstring,
on two lines."""

import math  # a comment after code counts

# a comment on its own line does not


def area(r):
    """Function docstring."""
    text = """a string that is not a docstring
    counts on every line"""
    return (math.pi
            * r ** 2)
'''
    # import, def, the two lines of the string, the two of the return
    assert code_lines.code_lines(snippet) == 6
    (tmp_path / "a.py").write_text(snippet)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 6\nb 1\ntotal 7\n"


def test_rate_faults_prints_a_count_per_run_and_the_warm_medians(tmp_path, monkeypatch, capsys):
    # the script points the reports at a temporary directory through the
    # environment; monkeypatch restores the variable afterwards
    rate_faults = load_script("rate_faults")
    monkeypatch.setenv(rate_faults.cli.OUTPUT_ENV_VAR, str(tmp_path / "unused"))
    assert rate_faults.main(["--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    runs = [line.split() for line in lines[:6]]
    assert [(r, mode) for r, mode, _ in runs] == [
        (str(r), mode) for r in range(2) for mode in rate_faults.MODES]
    assert all(faults.isdigit() for _, _, faults in runs)
    assert [line.rsplit(" ", 1)[0] for line in lines[6:]] == [
        f"{mode} warm median" for mode in rate_faults.MODES]
    assert not (tmp_path / "unused").exists()
    with pytest.raises(SystemExit):
        rate_faults.main(["--rounds", "0"])


SUMMARY = """\
mode = kernel_gap
N = 256
norms = 1.5 2.25
wall_seconds = 0.5
gate_kernel_ratios = PASS (max ratio 0.25 <= 1)
"""
CSV = "# schema=kernel_gap-v1\nh,j,k,ratio\n1,0,1,0.125\n0.5,0,1,3e-5\n"


def write_outputs(root, summary=SUMMARY, csv=CSV):
    (root / "kernel_gap").mkdir(parents=True)
    (root / "kernel_gap" / "kernel_gap_summary.txt").write_text(summary)
    (root / "kernel_gap" / "kernel_gap.csv").write_text(csv)
    return root


def test_compare_outputs_counts_the_numbers_that_differ(tmp_path, capsys):
    # numbers only counted, whatever their difference; wall_seconds and a
    # gate's numbers not read
    compare_outputs = load_script("compare_outputs")
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b", SUMMARY.replace("2.25", "2.5").replace(
        "0.5\n", "9.5\n").replace("0.25 <=", "0.5 <="), CSV.replace("3e-5", "3.000003e-5"))
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "kernel_gap/kernel_gap.csv: 1 of 3 numbers differ, largest relative difference 1e-06",
        "kernel_gap/kernel_gap_summary.txt: 1 of 2 numbers differ, "
        "largest relative difference 0.1"]
    assert compare_outputs.main([str(a), str(a)]) == 0
    assert "0 of 3 numbers differ, largest relative difference 0" in capsys.readouterr().out


@pytest.mark.parametrize("old, new, named", [
    ("N = 256", "N = 257", "N: 256 against 257"),
    ("PASS", "FAIL", "gate_kernel_ratios: 'PASS (max ratio # <= #)' against"),
    ("norms = 1.5 2.25", "norms = 1.5", "norms: 2 against 1 values"),
    ("mode = kernel_gap\n", "", "keys or columns differ"),
], ids=["integer", "text", "count", "key"])
def test_compare_outputs_fails_on_keys_text_and_integers(tmp_path, capsys, old, new, named):
    compare_outputs = load_script("compare_outputs")
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b", SUMMARY.replace(old, new))
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert f"kernel_gap/kernel_gap_summary.txt: {named}" in capsys.readouterr().out


def test_compare_outputs_fails_without_twins_or_outputs(tmp_path, capsys):
    compare_outputs = load_script("compare_outputs")
    a = write_outputs(tmp_path / "a")
    (tmp_path / "b").mkdir()
    assert compare_outputs.main([str(a), str(tmp_path / "b")]) == 1
    assert "kernel_gap/kernel_gap.csv: no twin in" in capsys.readouterr().out
    assert compare_outputs.main([str(tmp_path / "b"), str(a)]) == 1
    assert capsys.readouterr().out.startswith("no outputs under")


def test_compare_outputs_fails_on_an_output_of_b_with_no_twin_in_a(tmp_path, capsys):
    # a rerun's output that has no reference is named and fails the run,
    # while every output of A is still compared
    compare_outputs = load_script("compare_outputs")
    a = write_outputs(tmp_path / "a")
    b = write_outputs(tmp_path / "b")
    (b / "extra").mkdir()
    (b / "extra" / "extra_summary.txt").write_text(SUMMARY)
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"extra/extra_summary.txt: no twin in {a}",
        "kernel_gap/kernel_gap.csv: 0 of 3 numbers differ, largest relative difference 0",
        "kernel_gap/kernel_gap_summary.txt: 0 of 2 numbers differ, "
        "largest relative difference 0"]

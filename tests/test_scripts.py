import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

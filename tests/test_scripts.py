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

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

ENV = {"nproc": 2, "cpu_model": "test cpu", "python": "3.11.7"}


def write_result(checkout, seed, ops, setup, rss, problems=(), trace=0):
    results = checkout / ".bench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"},
               "setup_s": {"value": setup, "unit": "s"},
               "peak_rss_mib": {"value": rss, "unit": "MiB"},
               "ok_ratio": {"value": 1.0, "unit": "ratio"}}
    if trace:
        metrics = {"classify.full_report.calls": {"value": 3, "unit": "count"}}
    record = {"workload": "table-load", "seed": seed, "trace": trace, "env": ENV,
              "metrics": metrics, "problems": list(problems)}
    (results / f"table-load-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_one_pair_summary(tmp_path):
    write_result(tmp_path / "parent", 7, ops=35.0, setup=0.30, rss=40.0)
    write_result(tmp_path / "change", 7, ops=50.0, setup=0.31, rss=40.0)
    out = tmp_path / "BENCH_demo.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--label", "demo", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["label"] == "demo" and doc["env"] == ENV
    entry = doc["workloads"]["table-load"]
    assert entry["pairs"] == [{"seed": 7,
                               "parent": {"ops_per_s": 35.0, "setup_s": 0.30,
                                          "peak_rss_mib": 40.0},
                               "change": {"ops_per_s": 50.0, "setup_s": 0.31,
                                          "peak_rss_mib": 40.0}}]
    ops = entry["summary"]["ops_per_s"]
    assert ops["parent"] == {"median": 35.0, "q1": 35.0, "q3": 35.0, "iqr": 0.0}
    assert ops["change_over_parent"] == pytest.approx(50 / 35)
    assert (ops["wins"], ops["losses"], ops["ties"]) == (1, 0, 0)
    setup = entry["summary"]["setup_s"]       # lower is better: the change lost
    assert (setup["wins"], setup["losses"], setup["ties"]) == (0, 1, 0)
    rss = entry["summary"]["peak_rss_mib"]
    assert (rss["wins"], rss["losses"], rss["ties"]) == (0, 0, 1)


def test_runs_with_problems_are_refused(tmp_path, capsys):
    write_result(tmp_path / "parent", 7, ops=35.0, setup=0.30, rss=40.0)
    write_result(tmp_path / "change", 7, ops=50.0, setup=0.31, rss=40.0,
                 problems=["classify n40: output differs from the reference"])
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--label", "demo",
                             "--out", str(tmp_path / "out.json")]) == 1
    assert "reports problems" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_traced_runs_are_recorded_and_checked(tmp_path, capsys):
    for side in ("parent", "change"):
        write_result(tmp_path / side, 7, ops=35.0, setup=0.30, rss=40.0)
    write_result(tmp_path / "change", 9, ops=0, setup=0, rss=0, trace=1)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--label", "demo", "--out", str(tmp_path / "out.json")]
    assert bench_pairs.main(argv) == 0
    entry = json.loads((tmp_path / "out.json").read_text())["workloads"]["table-load"]
    assert [p["seed"] for p in entry["pairs"]] == [7]
    assert entry["traced"] == {"parent": [], "change": [{"seed": 9, "correct": True}]}

    (tmp_path / "out.json").unlink()
    write_result(tmp_path / "parent", 9, ops=0, setup=0, rss=0, trace=1,
                 problems=["expected span classify.full_report never fired"])
    assert bench_pairs.main(argv) == 1
    assert "reports problems" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()

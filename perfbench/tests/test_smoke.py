"""Smoke test of the benchmark harness: every workload in smoke mode (every
n <= 2), traced and untraced, must pass its checks and print a result line
that matches the schema of BENCHMARK.json.  Nothing here asserts a timing.

    python3 -m pytest perfbench/tests
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_result_schema(workload, trace):
    done = run_bench(workload, trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    provenance = next(line for line in done.stdout.splitlines()
                      if line.startswith("# provenance "))
    info = json.loads(provenance.split(" ", 2)[2])
    for key in ("nproc", "mem_total_mb", "python", "numpy", "git_rev", "seed"):
        assert key in info


def test_spec_matches_workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS) == sorted(workloads.SMOKE)
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    for table in (workloads.WORKLOADS, workloads.SMOKE):
        for cmds in table.values():
            for argv in cmds:
                assert workloads.key(argv) in expected


def test_refuses_without_sources(tmp_path):
    # A directory holding only the benchmark has no program to measure.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in SPEC["paths"]:
        for source in (ROOT / path).rglob("*"):
            if source.is_file() and "__pycache__" not in source.parts:
                target = tmp_path / source.relative_to(ROOT)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(source.read_bytes())
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload",
         SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_memory_preflight_refusal_is_a_failed_run(monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    monkeypatch.setattr(run, "meminfo_mb", lambda: {"MemTotal": 8192.0, "MemAvailable": 100.0})
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "export", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"])
    assert run.main() == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0

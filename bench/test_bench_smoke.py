"""Smoke test of the benchmark at tiny sizes: `python -m pytest bench`.

Not part of the Tier-1 suite (pyproject's testpaths is `tests`). Runs every
workload once with `--scale tiny`, untraced and traced, and checks the
JSON result line against the metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, out: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--scale", "tiny", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric(tmp_path, workload, trace):
    proc = _run(ROOT, tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
        assert "fail_frac" in proc.stdout
    run_dir = tmp_path / f"{workload}-seed3{'-trace' if trace else ''}"
    assert (run_dir / "run.json").is_file() and (run_dir / "commands.txt").is_file()


def test_sweep_breakdown_names_the_known_defects(tmp_path):
    proc = _run(ROOT, tmp_path, "sweep", 0)
    record = json.loads((tmp_path / "sweep-seed3" / "run.json").read_text(encoding="utf-8"))
    assert record["fail_frac"] > 0, proc.stdout
    assert set(record["failures"]) <= {"unconverged", "bound_miss"}
    assert set(record["failures"]["bound_miss"]) == {"social_welfare"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

The counter test runs every workload twice under tracing (a few minutes).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counters_repeat_exactly(workload):
    outputs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", str(run.DEFAULT_SEED),
                     "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        assert result["correct"] and result["failed"] == 0, details["problems"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert 0.9 < result["metrics"]["trace.layer_share"]["value"] <= 1.0
        outputs.append(details["counters"])
    assert outputs[0] == outputs[1]


def test_untraced_run_reports_every_end_to_end_metric():
    proc = bench("--workload", "numsgp", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = run.WORKLOADS["numsgp"].expected
    assert result["correct"] and result["attempted"] == run.MIN_PASSES * expected
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "sweep6", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_seeded_inputs_depend_only_on_the_seed():
    sys.path.insert(0, str(run.SRC))
    import gstab

    for name in ("fastpath", "numsgp"):
        build = run.WORKLOADS[name].build
        assert repr(build(gstab, 7)) == repr(build(gstab, 7))
        assert repr(build(gstab, 7)) != repr(build(gstab, 8))


def test_percentiles():
    assert run.tail_percentile(208) == 95
    assert run.tail_percentile(110) == 90
    assert run.tail_percentile(20) == 50
    assert abs(run.percentile([float(i) for i in range(1, 21)], 50) - 10.5) < 1e-9
    assert 198 < run.percentile([float(i) for i in range(1, 209)], 95) < 199

"""Smoke test: every workload once at tiny sizes with tracing on.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harness import NullTracer, run_checks  # noqa: E402
from photonlab.fock import StateVector  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_prints_every_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            printed[name] = (float(value), unit)
    for name, unit in {**run.END_TO_END, **run.PER_LAYER, "failed_frac": "ratio"}.items():
        assert name in printed and printed[name][1] == unit, name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"python", "numpy", "scipy", "PyYAML", "nproc", "blas_threads", "commit", "dirty", "seed"} <= set(env)


def test_perturbed_mesh_amplitude_counts_as_failed():
    workload = workloads.build("fock_mesh", seed=3, tiny=True)
    results = {op.name: op.run(NullTracer()) for op in workload.ops}
    assert run_checks(workload.ops, results, {}) == []

    out, *reads = results["mesh_m4"]
    biggest, amp = max(out.items(), key=lambda kv: abs(kv[1]))
    amplitudes = dict(out.items())
    amplitudes[biggest] = amp * (1 + 1e-6)
    results["mesh_m4"] = (StateVector(out.space, amplitudes), *reads)
    assert {name for name, _ in run_checks(workload.ops, results, {})} == {"mesh_m4"}


def test_speed_meter_reads_inside_and_around_an_interval():
    meter = calibrate.SpeedMeter("interpreter")
    with meter.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            sum(range(1000))
        t1 = time.perf_counter()
    meter.read()
    inside = meter.taken(t0, t1)
    # at least two timer readings landed inside, and none is counted twice
    assert 2 * min(meter._times) <= inside < t1 - t0
    # every reading falls within the window around the interval
    assert meter.scale(t0, t1) == calibrate.NOMINAL_S["interpreter"] / statistics.median(meter._times)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "fock_mesh", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""cli_suite: the seven experiments, each run as its own `photonlab run`.

This is what users run, so every run pays interpreter start and the
photonlab import.  Configs are generated from the workload seed: the five
in configs/ with a new seed, plus doppler and ramsey at their defaults.
Every run writes into a directory the benchmark owns and removes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import yaml

import oracles
from harness import Op, Workload, expect

CONFIG_FILES = ("angular", "dispersion-skc", "heisenberg-scaling", "spiral", "sql-scaling")
DEFAULT_RUNS = ("doppler", "ramsey")
CHILD_TIMEOUT_S = 120


def generate_configs(root: Path, dest: Path, seed: int, tiny: bool) -> list[tuple[str, Path]]:
    rng = random.Random(seed)
    docs = [(name, yaml.safe_load((root / "configs" / f"{name}.yaml").read_text())) for name in CONFIG_FILES]
    docs += [(name, {"schema_version": 1, "experiment": name, "params": {}}) for name in DEFAULT_RUNS]
    dest.mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc in docs:
        doc["seed"] = rng.randrange(2 ** 31)
        if tiny and "repetitions" in doc["params"]:
            doc["params"]["repetitions"] = 100
        path = dest / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc))
        written.append((name, path))
    return written


def check_summary(experiment: str, summary: dict, params: dict) -> list[str]:
    """The acceptance tolerances, read off each run's summary.json."""
    if experiment == "sql-scaling":
        return oracles.check_slope(summary["slope"], -0.5, params["trial_grid"], params["repetitions"])
    if experiment == "heisenberg-scaling":
        return oracles.check_slope(summary["slope"], -1.0, params["photon_grid"], params["repetitions"])
    if experiment == "angular":
        return expect(summary["visibility"] >= 0.99 and summary["max_abs_deviation"] <= 1e-12,
                      f"visibility {summary['visibility']}, deviation {summary['max_abs_deviation']:.2e}")
    if experiment == "spiral":
        return expect(summary["symmetry_order"] == params["q"], f"symmetry order {summary['symmetry_order']}")
    if experiment == "dispersion":
        ratio = summary["width_ratio_vs_empty"]
        broadening = oracles.classical_broadening(params["beta"][2] * params["length"], params["sigma"])
        fails = expect(0.99 <= ratio <= 1.01, f"width ratio {ratio:.5f}")
        return fails + expect(abs(summary["classical_broadening_same_beta2"] / broadening - 1.0) <= 0.01,
                              f"classical broadening {summary['classical_broadening_same_beta2']:.4f} vs {broadening:.4f}")
    if experiment == "doppler":
        return expect(summary["r_squared"] > 0.999 and summary["max_bin_error"] <= 1.0,
                      f"R^2 {summary['r_squared']}, max bin error {summary['max_bin_error']}")
    if experiment == "ramsey":
        # analytic readout: Delta omega = 1 / (sqrt(trials) t) for one atom
        expected = 1.0 / (math.sqrt(params["trials"]) * params["t_probe"])
        fails = expect(summary["omega_estimate[rad/s]"] == params["omega"], "estimate differs from omega")
        return fails + expect(abs(summary["delta_omega[rad/s]"] / expected - 1.0) <= 1e-9,
                              f"delta omega {summary['delta_omega[rad/s]']} vs {expected}")
    return [f"no oracle for experiment {experiment!r}"]


def _run_op(name: str, config: Path, out: Path, root: Path, env: dict, info: dict) -> Op:
    real = [sys.executable, "-m", "photonlab.cli", "run", str(config), "--quiet", "--out", str(out)]
    traced = [sys.executable, str(root / "bench" / "cli_child.py"), str(config), str(out)]

    def run(tr):
        proc = subprocess.run(traced if tr.enabled else real, cwd=root, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if tr.enabled and proc.returncode == 0:
            report = json.loads(proc.stdout.splitlines()[-1])
            for span in report["spans"]:
                tr.add_span(*span)
            tr.count("cli.bytes_written", report["bytes_written"])
            info.setdefault("import_s", []).append(report["import_s"])
        return proc.returncode, proc.stderr

    def check(result, _):
        code, stderr = result
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-400:]}"]
        doc = json.loads((out / "summary.json").read_text())
        for csv in sorted(out.glob("*.csv")):
            digest = hashlib.sha256(csv.read_bytes()).hexdigest()
            info.setdefault("sha256", {}).setdefault(f"{name}/{csv.name}", set()).add(digest)
        return check_summary(doc["experiment"], doc["summary"], doc["params"])

    return Op(name, run, check)


def cli_suite(root: Path, work_dir: Path, seed: int, tiny: bool, env: dict) -> Workload:
    configs = generate_configs(root, work_dir / "configs", seed, tiny)
    info: dict = {}
    ops = [_run_op(name, path, work_dir / "out" / name, root, env, info) for name, path in configs]
    warmup = next(op for op in ops if op.name == "ramsey")
    return Workload(ops, warmup, info, reference="spawn")

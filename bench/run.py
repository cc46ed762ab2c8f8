"""photonlab benchmark: one workload, its end-to-end metrics, or its per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_suite, fock_mesh, protocol_sweep, field_kernels (see
bench/README.md).  The run starts WORKERS fresh worker processes one
after another.  Each sets up, then runs passes over the workload's
operations for S / WORKERS seconds, each followed by a traced pass with
--trace 1.  Every operation's output is checked against an oracle.
Times are scaled to the speed of a reference kernel (bench/calibrate.py),
which takes out the host's slowdowns; the raw times are printed too.

Prints a table of every metric with its unit, the environment and any
CSV hashes, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Exits non-zero without a
result when the tree holds no photonlab sources to measure.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
# CLI configs and outputs; removed at the end of every run
SCRATCH = ROOT / ".bench_tmp"

WORKLOADS = ("cli_suite", "fock_mesh", "protocol_sweep", "field_kernels")
# fresh processes per run, each with its own string-hash salt; each sets
# up once and runs passes for its share of the run
WORKERS = 3
INTERPRETER_SAMPLES = 5
RUN_TIMEOUT_S = 170
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "run_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.load_config_s": "s",
    "cli.run_experiment_s": "s",
    "cli.write_bundle_s": "s",
    "cli.bytes_written": "B",
    "sources.prepare_s": "s",
    "sources.states": "count",
    "elements.interferometer_apply_s": "s",
    "elements.elements_applied": "count",
    "elements.terms_out": "count",
    "elements.terms_per_s": "1/s",
    "fock.expectation_s": "s",
    "fock.expectation_calls": "count",
    "fock.number_expectation_s": "s",
    "fock.schmidt_s": "s",
    "fock.state_terms": "count",
    "metrology.state_s": "s",
    "metrology.state_calls": "count",
    "metrology.run_monte_carlo_s": "s",
    "metrology.samples": "count",
    "metrology.clamped_frac": "ratio",
    "metrology.ramsey_s": "s",
    "metrology.scaling_s": "s",
    "oam_imaging.project_s": "s",
    "oam_imaging.correlated_phases_s": "s",
    "oam_imaging.rotate_s": "s",
    "oam_imaging.doppler_s": "s",
    "oam_imaging.coefficients": "count",
    "oam_imaging.coeffs_per_s": "1/s",
    "dispersion.hom_s": "s",
    "dispersion.skc_s": "s",
    "dispersion.franson_s": "s",
    "dispersion.extract_delay_s": "s",
    "dispersion.baseline_s": "s",
    "dispersion.kernel_points": "count",
    "dispersion.points_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env() -> dict:
    """The working tree's sources first on the path; BLAS threads capped at nproc."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cap = nproc()
    for var in BLAS_VARS:
        try:
            env[var] = str(min(int(env[var]), cap))
        except (KeyError, ValueError):
            env[var] = str(cap)
    return env


def require_sources() -> None:
    """Fail fast unless `import photonlab` in a child resolves under src/.

    Children run from ROOT with PYTHONPATH=src, so ROOT and then src are
    searched before any installed copy.
    """
    spec = importlib.machinery.PathFinder.find_spec("photonlab", [str(ROOT), str(SRC)])
    origin = Path(spec.origin).resolve() if spec and spec.origin else None
    if origin is None or not origin.is_relative_to(SRC):
        sys.exit(f"error: no photonlab sources under {SRC} (found {origin})")
    if not (ROOT / "configs").is_dir():
        sys.exit(f"error: no configs/ directory under {ROOT}")


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain"))}


def environment(seed: int, env: dict) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": nproc(),
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        **git_state(),
        "seed": seed,
    }


def spawn_worker(args, env: dict, work_dir: Path, deadline: float, slice_s: float) -> dict:
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--spawned-at", repr(spawned_at), "--slice", repr(slice_s),
           "--work-dir", str(work_dir)]
    if args.tiny:
        cmd.append("--tiny")
    # own session, so a worker that overruns is stopped with its CLI child
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("error: worker overran the run's time limit")
    if proc.returncode != 0:
        sys.exit(f"error: worker exited with code {proc.returncode}")
    return json.loads(stdout.splitlines()[-1])


def interpreter_floor(env: dict) -> float:
    """Median spawn-to-exit time of a bare `python -c pass`."""
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True, timeout=30)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def tally(workers: list[dict]) -> tuple[int, int]:
    """(operations attempted, operations failed) over every pass, traced or not."""
    passes = [p for w in workers for p in w["passes"]]
    return sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes)


def time_weighted_median(latencies: list[float]) -> float:
    """The operation latency below which half of the measured time is spent.

    An operation list mixes latencies from milliseconds to seconds, so the
    plain median lands on whichever short operation sits in the middle
    and jumps when two of them trade places; weighting by duration settles
    on the operations that carry the work.
    """
    ordered = sorted(latencies)
    half, spent = sum(ordered) / 2.0, 0.0
    for t in ordered:
        spent += t
        if spent >= half:
            return t
    return ordered[-1]


def end_to_end(workers: list[dict], raw: bool = False) -> dict:
    """The end-to-end metrics; with raw=True the times are not scaled to the reference speed."""
    key = "raw_" if raw else ""
    attempted, failed = tally(workers)

    def salt_mean(statistic) -> float:
        # each worker's hash salt moves its passes as a block, and a worker
        # fits two or three passes depending on the machine's speed; a
        # statistic per worker, averaged, weighs the three salts equally
        return statistics.fmean(statistic([p for p in w["passes"] if not p["traced"]]) for w in workers)

    return {
        "setup_s": statistics.median(w[key + "setup_s"] for w in workers),
        "wall_s": salt_mean(lambda passes: statistics.median(p[key + "wall_s"] for p in passes)),
        "run_p50_s": salt_mean(lambda passes: time_weighted_median([t for p in passes for t in p[key + "op_s"]])),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        "ok_frac": 1.0 - failed / attempted,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(workers: list[dict], interpreter_s: float) -> dict:
    """Per-pass layer totals from the traced passes, as medians over passes."""
    traced = [p for w in workers for p in w["passes"] if p["traced"]]
    rows = []
    for p in traced:
        row = {name: p["self_s"].get(name, 0.0) for name, unit in PER_LAYER.items() if unit == "s"}
        row.update({name: float(p["counts"].get(name, 0)) for name, unit in PER_LAYER.items() if unit in ("count", "B")})
        c = p["counts"]
        row["elements.terms_per_s"] = _ratio(row["elements.terms_out"], row["elements.interferometer_apply_s"])
        row["oam_imaging.coeffs_per_s"] = _ratio(row["oam_imaging.coefficients"], row["oam_imaging.project_s"])
        kernel_s = row["dispersion.hom_s"] + row["dispersion.skc_s"] + row["dispersion.franson_s"]
        row["dispersion.points_per_s"] = _ratio(row["dispersion.kernel_points"], kernel_s)
        row["metrology.clamped_frac"] = _ratio(c.get("metrology.clamped", 0), c.get("metrology.mc_results", 0))
        rows.append(row)
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    # per process, not per pass
    imports = [t for w in workers for t in w["info"].get("import_s", [])]
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    metrics["cli.interpreter_s"] = interpreter_s
    # paired within each worker, so per-process speed differences cancel
    metrics["trace.overhead_frac"] = statistics.median(
        t["wall_s"] / u["wall_s"] - 1.0 for w in workers for u, t in zip(w["passes"][::2], w["passes"][1::2])
    )
    return {name: metrics[name] for name in PER_LAYER}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, one worker: for the smoke test")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    require_sources()
    env = child_env()
    n_workers = 1 if args.tiny else WORKERS
    SCRATCH.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=SCRATCH))
    workers: list[dict] = []
    try:
        for salt in range(n_workers):
            # string hashing is salted per process, and the salt alone moves
            # the Fock core's dict-heavy passes by up to 1.5x; the same salts
            # in every run keep that out of the run-to-run spread
            worker_env = dict(env, PYTHONHASHSEED=str(salt))
            workers.append(spawn_worker(args, worker_env, work_dir, deadline, args.seconds / n_workers))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run's directory is still there
            pass

    e2e = end_to_end(workers)
    layers = per_layer(workers, interpreter_floor(env)) if args.trace else {}
    attempted, failed = tally(workers)
    plain = [p for w in workers for p in w["passes"] if not p["traced"]]
    counts = {
        "setup_s": len(workers),
        "wall_s": len(plain),
        "run_p50_s": sum(len(p["op_s"]) for p in plain),
    }

    print(f"workload {args.workload}  seed {args.seed}  workers {len(workers)}")
    for name, value in e2e.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"metric {name} {value!r} {END_TO_END[name]}{n}")
    print(f"metric failed_frac {failed / attempted!r} ratio  ({failed} of {attempted} operations)")
    for name, value in end_to_end(workers, raw=True).items():
        if END_TO_END[name] == "s":
            print(f"unscaled {name} {value!r} s")
    for name, value in layers.items():
        print(f"metric {name} {value!r} {PER_LAYER[name]}")
    print("env " + json.dumps(environment(args.seed, env), sort_keys=True))
    # more than one digest for a CSV would mean the same config and seed wrote different bytes
    digests: dict[str, set] = {}
    for w in workers:
        for csv, seen in w["info"].get("sha256", {}).items():
            digests.setdefault(csv, set()).update(seen)
    for csv, seen in sorted(digests.items()):
        print(f"sha256 {csv} {' '.join(sorted(seen))}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": (PER_LAYER if args.trace else END_TO_END)[name]}
            for name, value in (layers if args.trace else e2e).items()
        },
    }))


if __name__ == "__main__":
    main()

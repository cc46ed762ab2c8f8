"""One workload process: set up, then run passes for a slice of the run.

    python bench/worker.py --workload W --seed N --trace 0|1 --spawned-at T \
        --slice S --work-dir D [--tiny]

A pass runs the workload's operations in order, one at a time; the
oracle checks run after the pass, outside its timing.  Passes repeat
while the next one still fits in S seconds; the first always runs.  With
--trace 1 each pass is followed by a traced one, so tracing overhead is
measured in the same process.

Every time is scaled to the reference speed of calibrate.py by the
kernel readings around it, after the time the readings inside it took is
subtracted.  Raw times are kept beside the scaled ones.

Prints one JSON line: setup time, the passes and the peak resident
memory.  bench/run.py starts fresh workers one after another, so no
workload inherits another's memory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import calibrate
from harness import NullTracer, Tracer, run_checks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_pass(workload, traced: bool) -> dict:
    tracer = Tracer() if traced else NullTracer()
    meter = calibrate.SpeedMeter(workload.reference, tracer)
    results, errors, intervals, op_self = {}, {}, [], []
    with meter.running():
        meter.read()
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                results[op.name] = op.run(tracer)
            except Exception as exc:  # an operation that raises is counted as failed
                errors[op.name] = f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc()
            intervals.append((t0, time.perf_counter()))
            meter.read()
            if traced:
                op_self.append(tracer.take_self_times())
    raw, latencies = [], []
    self_s: dict[str, float] = defaultdict(float)
    for i, (t0, t1) in enumerate(intervals):
        took = t1 - t0 - meter.taken(t0, t1)
        factor = meter.scale(t0, t1)
        raw.append(took)
        latencies.append(took * factor)
        if traced:
            for name, t in op_self[i].items():
                self_s[name] += t * factor
    failures = run_checks(workload.ops, results, errors)
    for name, message in failures:
        print(f"FAILED {name}: {message}", file=sys.stderr)
    return {
        "traced": traced,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(raw),
        "op_s": latencies,
        "raw_op_s": raw,
        "attempted": len(workload.ops),
        "failed": len({name for name, _ in failures}),
        "self_s": dict(self_s),
        "counts": dict(tracer.counts) if traced else {},
    }


def set_up(args, meter):
    """The workload, built from the seed; in-process workloads record the photonlab import time."""
    if args.workload == "cli_suite":
        import cli_suite

        return cli_suite.cli_suite(ROOT, Path(args.work_dir), args.seed, args.tiny, dict(os.environ))
    started = time.perf_counter()
    import photonlab.cli  # first import in a fresh process, as a user's run pays it

    ended = time.perf_counter()
    import_s = ended - started - meter.taken(started, ended)
    if not Path(photonlab.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"photonlab resolved to {photonlab.cli.__file__}, not under {SRC}")
    import workloads

    workload = workloads.build(args.workload, args.seed, args.tiny)
    workload.info["import_s"] = [import_s]
    return workload


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--slice", type=float, required=True, help="seconds of passes; at least one pass runs")
    parser.add_argument("--work-dir", required=True, help="scratch directory owned by bench/run.py")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    # set-up is imports, inputs and the warm-up operation: interpreter work,
    # or for cli_suite mostly the warm-up run
    in_process = args.workload != "cli_suite"
    meter = calibrate.SpeedMeter("interpreter" if in_process else "spawn")
    with meter.running():
        started = time.perf_counter()
        meter.read()
        workload = set_up(args, meter)
        workload.warmup.run(NullTracer())
        ended, done = time.perf_counter(), time.monotonic()
    meter.read()
    raw_setup_s = done - args.spawned_at - meter.taken(started, ended)
    setup_s = raw_setup_s * meter.scale(started, ended)

    passes = []
    first = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(workload, traced=False))
        if args.trace:
            passes.append(run_pass(workload, traced=True))
        now = time.monotonic()
        if now - first + (now - t0) > args.slice:
            break

    info = dict(workload.info)
    if "sha256" in info:
        info["sha256"] = {k: sorted(v) for k, v in info["sha256"].items()}
    # in-process: this process; cli_suite: the largest CLI child, the process that did the work
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "passes": passes,
        "info": info,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()

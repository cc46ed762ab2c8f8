"""Traced stand-in for `photonlab run CONFIG --quiet --out OUT`.

Calls the CLI's public load_config, run_experiment and write_bundle
between span marks and prints the spans as one JSON line.  Used only by
traced cli_suite passes; untraced passes run the real entry point.

    python bench/cli_child.py CONFIG OUT
"""

import json
import sys
import time
from pathlib import Path

started = time.perf_counter()
import photonlab.cli as cli  # noqa: E402  (the import is what is being timed)

imported = time.perf_counter()
SRC = Path(__file__).resolve().parents[1] / "src"


def main(config_path: str, out: str) -> int:
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"photonlab resolved to {cli.__file__}, not under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    config = cli.load_config(Path(config_path))
    t1 = time.perf_counter()
    bundle, out_dir = cli.run_experiment(config, None, out)
    t2 = time.perf_counter()
    paths = cli.write_bundle(bundle, out_dir, config["seed"])
    t3 = time.perf_counter()
    spans = [("cli.load_config_s", t0, t1), ("cli.run_experiment_s", t1, t2), ("cli.write_bundle_s", t2, t3)]
    print(json.dumps({
        "import_s": imported - started,
        "spans": spans,
        "bytes_written": sum(p.stat().st_size for p in paths),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

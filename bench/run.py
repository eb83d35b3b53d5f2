#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload scan-large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ./src, and
inputs, outputs and traces go under bench/work/. With --trace 0 the last
line holds the end-to-end metrics, with --trace 1 the per-layer metrics.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-dense", "scan-large", "multilabel"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "hadahash" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'hadahash'}",
              file=sys.stderr)
        return 2

    # One thread for BLAS as for everything else: the load is one process
    # with one busy thread, which keeps timings steady on a small machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import harness

    work = HERE / "work"
    work.mkdir(exist_ok=True)
    try:
        result, failed = harness.run(args.workload, args.seed, args.seconds,
                                     args.trace, work)
    except harness.OperationFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for name, problems in failed:
        print(f"check failed: {name}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

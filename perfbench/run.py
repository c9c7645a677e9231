"""Benchmark entry point (see ``BENCHMARK.json``).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Run from the repository root.  Prints a host/config record and the run
detail as JSON lines, then — as the last line — the result object
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end metric
with ``--trace 0``, every per-layer metric with ``--trace 1``.  Exits
non-zero without a result when the program's sources are absent or a
run cannot complete.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    GENERATOR_CPUS,
    BenchError,
    emit,
    host_record,
    require_sources,
    stop_all,
)

WORKLOAD_NAMES = ("serve-protocol", "serve-simulate", "mine-simulate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke: tiny inputs for the benchmark's own self-check",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.sched_setaffinity(0, GENERATOR_CPUS)
    try:
        require_sources()
        if args.workload.startswith("serve"):
            import serve_bench

            config = {
                "collector_flags": serve_bench.COLLECTOR_FLAGS,
                **serve_bench.WORKLOADS[args.workload],
                **serve_bench.SESSION,
            }
            runner = serve_bench.run_workload
        else:
            import mine_bench

            config = {**mine_bench.SWEEP, **mine_bench.SIZES[args.size]}
            runner = mine_bench.run_workload
        emit({"host": host_record(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=args.trace, size=args.size, config=config,
        )})
        result = runner(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        stop_all()
    emit({"detail": result.pop("detail")})
    emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

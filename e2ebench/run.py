"""Run one benchmark workload and print its result as the last stdout line.

    python3 e2ebench/run.py --workload infer-int8 --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
repository root.  ``--trace 0`` prints the end-to-end metrics (tracing
off); ``--trace 1`` makes a separate traced run and prints the per-layer
metrics, with a reconciliation table on stderr.  The exit code is
non-zero when an output fails its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("infer-int8", "infer-fp32", "serve-int8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.pin_threads()
    common.import_repro()
    with open(common.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    if args.workload.startswith("infer-"):
        import offline

        metrics, attempted, failed, correct = offline.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
        # The offline workloads never touch the serving stack.
        for entry in declared:
            if entry["name"].startswith("serve."):
                metrics[entry["name"]] = common.metric(0, entry["unit"])
    else:
        import serving

        metrics, attempted, failed, correct = serving.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    host = common.host_record(args.workload, args.seed, args.seconds, args.trace)
    return common.emit(host, correct, attempted, failed, metrics, declared)


if __name__ == "__main__":
    sys.exit(main())

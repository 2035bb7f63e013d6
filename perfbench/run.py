"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload array-sim --seed 1 --seconds 10

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric; ``--trace 1`` repeats the work under the layer
tracer (``layers.py``) and prints every per-layer metric. Either way
the workload's outputs are checked, human-readable details are printed
as ``# key: value`` lines, and the last line of standard output is one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--out FILE`` also appends a record with the workload, seed and
details to FILE (JSON lines), the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from common import (END_TO_END, PER_LAYER, check_names, repro_env,
                    require_source, work_dir)

#: Workload name -> module implementing ``run(seed, seconds, trace)``.
WORKLOADS = {
    "sweep-warm": "sweep",
    "serve-mixed": "serve_mixed",
    "array-sim": "array_sim",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append a JSON record")
    args = parser.parse_args(argv)
    require_source()
    with work_dir(args.workload) as work:
        # The program's caches and stores go inside the work directory.
        os.environ.update({k: v for k, v in repro_env(work).items()
                           if k.startswith("REPRO_")})
        module = importlib.import_module(WORKLOADS[args.workload])
        metrics, attempted, failed, info = module.run(
            args.seed, args.seconds, bool(args.trace), work)
    expected = PER_LAYER if args.trace else END_TO_END
    check_names(metrics, expected)
    for key, value in info.items():
        print(f"# {key}: {value}")
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in expected.items()},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "info": info, "result": result}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

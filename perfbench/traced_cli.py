"""Run the ``repro`` command line under the layer tracer.

Usage: ``python perfbench/traced_cli.py SUMMARY.json -- <repro args>``.
Runs ``repro.cli.main(<repro args>)`` in this process with every layer
wrapper installed, then writes the tracer summary, the layout-cache
counter delta and the reuse counter delta to ``SUMMARY.json``. Exits
with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time

from common import require_source, reuse_counters
from layers import Tracer


def main(argv) -> int:
    summary_path, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SUMMARY.json -- ARGS...")
    require_source()
    from repro import cli
    from repro.core import cache

    tracer = Tracer().install()
    try:
        cache_before = cache.stats_snapshot()
        reuse_before = reuse_counters()
        start = time.perf_counter()
        code = cli.main(args)
        end = time.perf_counter()
    finally:
        tracer.restore()
    summary = tracer.summary(start, end)
    cache_delta = cache.CacheStats.delta(cache_before, cache.stats_snapshot())
    summary["cache"] = cache_delta
    summary["reuse"] = {k: v - reuse_before[k]
                        for k, v in reuse_counters().items()}
    with open(summary_path, "w") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

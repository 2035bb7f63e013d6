"""Shared pieces of the benchmark: metric names, statistics, child
processes and the work directory.

The benchmark runs from the root of a source checkout and imports the
program from ``src/``. Everything it writes goes under
``.perfbench-work/`` in that checkout and is removed when a run ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: End-to-end metrics (``--trace 0``): name -> unit. Every workload
#: reports each one; what "pass" and "operation" mean per workload is
#: documented in README.md.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``): name -> unit. A layer a workload
#: never enters reports 0.
PER_LAYER: Dict[str, str] = {
    "graphs.generators.synth_s": "s",
    "graphs.generators.edges": "count",
    "graphs.partition.partition_s": "s",
    "graphs.partition.mutate_grid_s": "s",
    "graphs.partition.shards": "count",
    "graphs.csr.from_coo_s": "s",
    "graphs.csr.calls": "count",
    "core.cache.lookup_s": "s",
    "core.cache.hit_rate": "ratio",
    "core.cache.disk_mb": "MiB",
    "core.loader.build_layout_s": "s",
    "core.loader.groups_by_s": "s",
    "core.algorithms.reference_iteration_s": "s",
    "core.engine.run_s": "s",
    "core.engine.pagerank_s": "s",
    "core.engine.traversal_s": "s",
    "core.engine.wcc_s": "s",
    "core.engine.cf_s": "s",
    "core.engine.cam_searches": "count",
    "core.engine.mac_ops": "count",
    "baselines.graphr.tiles_s": "s",
    "baselines.graphr.run_s": "s",
    "baselines.reference_s": "s",
    "baselines.models_s": "s",
    "experiments.drivers_s": "s",
    "experiments.reporting_s": "s",
    "serve.queue_wait_ms": "ms",
    "serve.engine_run_p50_ms": "ms",
    "serve.coalesce_hit_rate": "ratio",
    "serve.pool.sessions_created": "count",
    "serve.pool.evictions": "count",
    "serve.query_p95_ms": "ms",
    "serve.query_samples": "count",
    "serve.mutate_p50_ms": "ms",
    "core.reuse.hit_rate": "ratio",
    "core.reuse.hits": "count",
    "core.micro.build_s": "s",
    "core.micro.run_s": "s",
    "xbar.cam.search_s": "s",
    "xbar.cam.load_s": "s",
    "xbar.mac.write_s": "s",
    "xbar.mac.mac_s": "s",
    "xbar.adc.convert_s": "s",
    "xbar.cam_searches": "count",
    "xbar.mac_ops": "count",
    "obs.hw.parity_s": "s",
    "unattributed_s": "s",
    "attributed_frac": "ratio",
    "trace_overhead_s": "s",
}


def require_source() -> None:
    """Fail (no result line) when the checkout has no program to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def work_dir(name: str) -> Iterator[Path]:
    """A fresh scratch directory for one run, removed afterwards."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def repro_env(work: Path) -> Dict[str, str]:
    """Environment for the program: caches and stores inside ``work``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env["REPRO_STORE_DIR"] = str(work / "store")
    env["REPRO_LOG_LEVEL"] = "warning"
    return env


def run_child(
    argv: Sequence[str], env: Dict[str, str], stdout: Path, stderr: Path,
    timeout_s: float = 170.0,
) -> Tuple[int, float, float]:
    """Run ``argv`` to completion; returns (exit code, wall seconds,
    peak RSS in MiB of that child alone)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err,
                                cwd=ROOT)
        pid = 0
        try:
            while not pid and time.perf_counter() < start + timeout_s:
                time.sleep(0.01)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        finally:
            if not pid:  # timed out or interrupted: never leave it running
                proc.send_signal(signal.SIGKILL)
                _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_mb(*paths: Path) -> float:
    """Bytes of regular files under ``paths``, MiB."""
    total = 0
    for path in paths:
        for dirpath, _dirs, files in os.walk(path):
            for name in files:
                with contextlib.suppress(OSError):
                    total += os.lstat(os.path.join(dirpath, name)).st_size
    return total / 2**20


def sha256_files(paths: Sequence[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples above it, and
    its value: (percentile, value). Needs at least 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail percentile needs 11 samples, got {n}")
    index = n - 11  # ten samples lie beyond this one
    return 100.0 * (index + 1) / n, float(ordered[index])


def check_names(metrics: Dict[str, float], expected: Dict[str, str]) -> None:
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise RuntimeError(f"metric names drifted: missing={missing} "
                           f"extra={extra}")


def layer_metrics(summary: Dict, extra: Dict[str, float],
                  overhead_s: float) -> Dict[str, float]:
    """Assemble the per-layer metric map from a tracer summary plus the
    workload's own layer readings (serve, cache, reuse)."""
    out = {name: 0.0 for name in PER_LAYER}
    for layer, seconds in summary["self_s"].items():
        out[f"{layer}_s"] = seconds
    out.update(summary["counts"])
    out.update(extra)
    wall = summary["wall_s"]
    out["unattributed_s"] = wall - summary["covered_s"]
    out["attributed_frac"] = summary["covered_s"] / wall if wall else 0.0
    out["trace_overhead_s"] = overhead_s
    check_names(out, PER_LAYER)
    return out


def reuse_counters() -> Dict[str, float]:
    """The process's reuse-layer hit and miss counters."""
    from repro.obs.metrics import get_metrics

    registry = get_metrics()
    return {f"reuse_{k}": registry.counter(f"reuse.{k}").value
            for k in ("hits", "misses")}


def reuse_metrics(before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    """``core.reuse.*`` layer metrics between two counter readings."""
    delta = {k: after[k] - before.get(k, 0) for k in after}
    return {"core.reuse.hits": float(delta["reuse_hits"]),
            "core.reuse.hit_rate": counter_hit_rate(delta)}


def counter_hit_rate(delta: Dict[str, float]) -> float:
    """Hits over lookups for a ``*_hits``/``*_misses`` counter map."""
    hits = sum(v for k, v in delta.items() if k.endswith("_hits"))
    misses = sum(v for k, v in delta.items() if k.endswith("_misses"))
    return hits / (hits + misses) if hits + misses else 0.0


def hub_vertices(graph, count: int = 256):
    """The ``count`` vertices of highest out-degree, ascending by id.

    Traversal sources are drawn from these: each reaches the giant
    component, so a traversal costs about the same whichever vertex a
    seed picks.
    """
    import numpy as np

    order = np.argsort(graph.out_degrees(), kind="stable")[::-1]
    return np.sort(order[:count])

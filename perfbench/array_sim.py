"""``array-sim``: the array-level simulator on a seeded R-MAT graph.

The graph has 8192 vertices and 90000 edges, generated from ``--seed``
(Graph500 R-MAT parameters); the traversal source is a seeded pick
among its 256 highest out-degree vertices. A pass runs ``MicroGaaSX``
PageRank (3 iterations), SSSP and BFS, each on a fresh engine under its
own ``HwMonitor`` whose per-array counters must sum back to the run's
``EventLog`` (``check_parity``). Each pass starts with an empty reuse
cache, so the memo hits it measures are recurrences within the pass
(PageRank iterations, repeated traversal frontiers).

Outside the timed passes, every micro ``EventLog`` must equal the
vectorized ``GaaSXEngine``'s, and the values must equal the golden
references (SSSP and BFS exactly).

Set-up is graph generation plus the three engine constructions, done
three times and reported as the median. A pass is one PageRank + SSSP +
BFS; an operation is one kernel; throughput is simulated events per
host second.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

from repro.baselines import reference
from repro.core.engine import GaaSXEngine
from repro.core.micro import MicroGaaSX
from repro.core.reuse import get_reuse_cache
from repro.graphs.generators import rmat
from repro.obs.hw import HwMonitor, check_parity

from common import (hub_vertices, layer_metrics, median, peak_rss_mb,
                    reuse_counters, reuse_metrics)
from layers import Tracer

VERTICES = 8192
EDGES = 90_000
PAGERANK_ITERATIONS = 3
SETUPS = 3


def make_graph(seed: int):
    """The seeded input graph and traversal source."""
    graph = rmat(VERTICES, EDGES, seed=seed, name=f"array-sim-{seed}")
    rng = np.random.default_rng([seed, 1])
    source = int(rng.choice(hub_vertices(graph)))
    return graph, source


def _kernels(source: int):
    return (
        ("pagerank", lambda m: m.pagerank(iterations=PAGERANK_ITERATIONS)),
        ("sssp", lambda m: m.sssp(source)),
        ("bfs", lambda m: m.bfs(source)),
    )


def _setup(seed: int) -> float:
    start = time.perf_counter()
    graph, _source = make_graph(seed)
    for _ in range(3):
        MicroGaaSX(graph, hw=HwMonitor())
    return time.perf_counter() - start


def _pass(graph, source: int):
    """One timed pass; returns (wall, per-kernel walls, events, outputs,
    parity failures)."""
    get_reuse_cache().clear()
    outputs = {}
    kernel_walls: List[float] = []
    events = 0
    bad_parity = 0
    start = time.perf_counter()
    for name, kernel in _kernels(source):
        begin = time.perf_counter()
        monitor = HwMonitor()
        values, log = kernel(MicroGaaSX(graph, hw=monitor))
        bad_parity += int(not check_parity(monitor, log)["ok"])
        kernel_walls.append(time.perf_counter() - begin)
        events += sum(log.as_dict().values())
        outputs[name] = (values, log)
    wall = time.perf_counter() - start
    return wall, kernel_walls, events, outputs, bad_parity


def _expected(graph, source: int):
    """Engine event logs and reference values the passes must match."""
    engine = GaaSXEngine(graph)
    iterations = PAGERANK_ITERATIONS
    return {
        "pagerank": (reference.pagerank(graph, iterations=iterations),
                     engine.pagerank(iterations=iterations).stats.events),
        "sssp": (reference.sssp(graph, source),
                 engine.sssp(source).stats.events),
        "bfs": (reference.bfs(graph, source),
                engine.bfs(source).stats.events),
    }


def _check(outputs, expected) -> Tuple[int, int]:
    attempted = failed = 0
    for name, (values, log) in outputs.items():
        want_values, want_log = expected[name]
        attempted += 2
        failed += int(not want_log.counters_equal(log))
        if name == "pagerank":
            failed += int(not np.allclose(values, want_values))
        else:
            failed += int(not np.array_equal(values, want_values))
    return attempted, failed


def run(seed: int, seconds: float, trace: bool, work):
    del work  # the program's caches already point inside it
    setup_s = median([_setup(seed) for _ in range(SETUPS)])
    graph, source = make_graph(seed)
    expected = _expected(graph, source)
    attempted = failed = 0
    walls, kernel_walls, rates = [], [], []
    plain_start = time.perf_counter()
    while not walls or time.perf_counter() - plain_start < seconds:
        wall, kwalls, events, outputs, bad = _pass(graph, source)
        walls.append(wall)
        kernel_walls += kwalls
        rates.append(events / wall)
        checked, wrong = _check(outputs, expected)
        attempted += checked + 3
        failed += wrong + bad
    info = {"seed": seed, "source": source, "vertices": graph.num_vertices,
            "edges": graph.num_edges, "events_per_pass": events,
            "passes": len(walls)}
    if trace:
        metrics, checked, wrong = _traced(graph, source, expected,
                                          median(walls))
        return metrics, attempted + checked, failed + wrong, info
    metrics = {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "op_p50_ms": 1000.0 * median(kernel_walls),
        "throughput_per_s": median(rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, attempted, failed, info


def _traced(graph, source, expected, plain_wall: float):
    """One traced pass; overhead is its wall minus the untraced median."""
    before = reuse_counters()
    tracer = Tracer().install()
    try:
        start = time.perf_counter()
        wall, _kwalls, _events, outputs, bad = _pass(graph, source)
        end = time.perf_counter()
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer.summary(start, end),
                            reuse_metrics(before, reuse_counters()),
                            wall - plain_wall)
    checked, wrong = _check(outputs, expected)
    return metrics, checked + 3, wrong + bad

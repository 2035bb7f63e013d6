"""Golden pricing: every platform's accounting on fixed seeded graphs.

``golden_pricing.json`` holds event counts, rows histograms, modelled
times/energy and result digests recorded before the kernels shared one
functional execution. Pricing a shared trace must reproduce every one
of them exactly — counts, float times and the bytes of each result.

Regenerate (only for a deliberate model change) with::

    PYTHONPATH=src python -m tests.baselines.test_golden_pricing
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.graphr import GraphREngine
from repro.baselines.workload import (
    trace_pagerank,
    trace_traversal,
    trace_wcc,
)
from repro.config import ArchConfig, GraphRConfig
from repro.core.engine import GaaSXEngine
from repro.graphs import Graph
from repro.graphs.generators import bipartite_ratings, rmat

GOLDEN_PATH = Path(__file__).with_name("golden_pricing.json")


def _rmat() -> Graph:
    return rmat(512, 4000, seed=11, name="golden-rmat")


def _quirky() -> Graph:
    """Duplicate edges, self-loops, a zero-out-degree vertex reachable
    from the source and an unreachable island."""
    rng = np.random.default_rng(23)
    base = rmat(200, 1200, seed=13, name="golden-base")
    src, dst = base.edges.rows, base.edges.cols
    dup = rng.integers(0, src.size, size=150)
    loops = rng.integers(0, 200, size=20)
    src = np.concatenate([src, src[dup], loops, [0, 230, 231]])
    dst = np.concatenate([dst, dst[dup], loops, [220, 231, 230]])
    weights = rng.uniform(1.0, 9.0, size=src.size)
    return Graph.from_edge_list(
        np.stack([src, dst], axis=1), weights, num_vertices=240,
        name="golden-quirky", deduplicate=False,
    )


def _digest(array: np.ndarray) -> str:
    data = np.ascontiguousarray(array, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _priced(result, values: np.ndarray) -> dict:
    stats = result.stats
    hist = stats.events.mac_rows_hist
    nonzero = np.flatnonzero(hist)
    width = int(nonzero[-1]) + 1 if nonzero.size else 0
    return {
        "events": {k: int(v) for k, v in stats.events.as_dict().items()},
        "hist": [int(h) for h in hist[:width]],
        "load_time_s": float(stats.load_time_s),
        "compute_time_s": float(stats.compute_time_s),
        "total_time_s": float(stats.total_time_s),
        "total_energy_j": float(stats.total_energy_j),
        "passes": int(stats.passes),
        "values": _digest(values),
    }


def _traversals(engine) -> dict:
    bfs, sssp = engine.bfs(0), engine.sssp(0)
    return {
        "bfs": _priced(bfs, bfs.distances),
        "sssp": _priced(sssp, sssp.distances),
    }


def _gaasx(engine, personalized: bool = False) -> dict:
    out = _traversals(engine)
    pr = engine.pagerank(iterations=10)
    out["pagerank"] = _priced(pr, pr.ranks)
    early = engine.pagerank(iterations=50, tolerance=1e-4)
    out["pagerank_tol"] = _priced(early, early.ranks)
    wcc = engine.wcc()
    out["wcc"] = _priced(wcc, wcc.labels)
    n = engine.graph.num_vertices
    warm = engine.wcc(
        warm_labels=np.arange(n), seed_vertices=np.arange(0, n, 3)
    )
    out["wcc_warm"] = _priced(warm, warm.labels)
    if personalized:
        pref = np.zeros(engine.graph.num_vertices)
        pref[:5] = 1.0
        ppr = engine.pagerank(iterations=6, personalization=pref)
        out["pagerank_personalized"] = _priced(ppr, ppr.ranks)
    return out


def _graphr(engine, pagerank: bool = True) -> dict:
    out = _traversals(engine)
    if pagerank:
        pr = engine.pagerank(iterations=10)
        out["pagerank"] = _priced(pr, pr.ranks)
        early = engine.pagerank(iterations=50, tolerance=1e-4)
        out["pagerank_tol"] = _priced(early, early.ranks)
    return out


def _workload(graph: Graph) -> dict:
    out = {}
    for name, weighted in (("bfs", False), ("sssp", True)):
        trace = trace_traversal(graph, 0, weighted=weighted)
        out[name] = {
            "edges_per_pass": [int(x) for x in trace.edges_per_pass],
            "active_vertices_per_pass": [
                int(x) for x in trace.active_vertices_per_pass
            ],
        }
    for name, trace in (("pagerank", trace_pagerank(graph, 10)),
                        ("wcc", trace_wcc(graph))):
        out[name] = {
            "edges_per_pass": [int(x) for x in trace.edges_per_pass],
            "active_vertices_per_pass": [
                int(x) for x in trace.active_vertices_per_pass
            ],
        }
    return out


def _cf(engine) -> dict:
    run = engine.collaborative_filtering(8, 2, seed=4)
    values = np.concatenate(
        [run.user_features.ravel(), run.item_features.ravel()]
    )
    return _priced(run, values)


def collect() -> dict:
    """Price every golden case with the current code."""
    cases = {}
    for name, graph in (("rmat", _rmat()), ("quirky", _quirky())):
        cases[name] = {
            "gaasx": _gaasx(GaaSXEngine(graph), personalized=True),
            "gaasx_streaming": _gaasx(GaaSXEngine(graph, streaming=True)),
            "gaasx_4xbar": _gaasx(
                GaaSXEngine(graph, config=ArchConfig(num_crossbars=4))
            ),
            "graphr": _graphr(GraphREngine(graph)),
            "graphr_skipping": _graphr(
                GraphREngine(graph, frontier_tile_skipping=True),
                pagerank=False,
            ),
            "graphr_4xbar": _graphr(
                GraphREngine(graph, config=GraphRConfig(num_crossbars=4))
            ),
            "workload": _workload(graph),
        }
    ratings = bipartite_ratings(60, 20, 400, seed=9, name="golden-ratings")
    cases["cf"] = {
        "gaasx": _cf(GaaSXEngine(ratings)),
        "graphr": _cf(GraphREngine(ratings)),
    }
    return cases


@pytest.fixture(scope="module")
def priced() -> dict:
    return collect()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("graph", ["rmat", "quirky"])
@pytest.mark.parametrize(
    "platform",
    ["gaasx", "gaasx_streaming", "gaasx_4xbar", "graphr",
     "graphr_skipping", "graphr_4xbar", "workload"],
)
def test_pricing_matches_golden(priced, golden, graph, platform):
    assert priced[graph][platform] == golden[graph][platform]


def test_cf_pricing_matches_golden(priced, golden):
    assert priced["cf"] == golden["cf"]


def dump(node, indent: int = 0) -> str:
    """JSON with one line per priced run."""
    if "events" in node or "edges_per_pass" in node:
        return json.dumps(node, sort_keys=True)
    pad = " " * (indent + 1)
    items = [f"{pad}{json.dumps(key)}: {dump(value, indent + 1)}"
             for key, value in sorted(node.items())]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    GOLDEN_PATH.write_text(dump(collect()) + "\n")

"""The benchmark's own tests: metric names, wrapper hygiene, seeding.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import types

import numpy as np
import pytest

import array_sim
import common
import layers
import run
import serve_mixed


def _declared():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return spec


@pytest.mark.parametrize("trace,key,names", [
    (0, "end_to_end", common.END_TO_END),
    (1, "per_layer", common.PER_LAYER),
])
def test_printed_metric_names_match_benchmark_json(
        trace, key, names, monkeypatch, capsys):
    declared = {m["name"]: m["unit"] for m in _declared()[key]}
    assert declared == names
    fake = types.ModuleType("fake_workload")
    fake.run = lambda seed, seconds, trace, work: (
        {name: 1.0 for name in names}, 1, 0, {"seed": seed})
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setitem(sys.modules, "fake_workload", fake)
    monkeypatch.setitem(run.WORKLOADS, "array-sim", "fake_workload")
    assert run.main(["--workload", "array-sim", "--seed", "3",
                     "--seconds", "1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _declared()["workloads"]] == list(run.WORKLOADS)


def _bindings():
    """Every attribute of every loaded ``repro`` module and every class
    attribute of the traced classes, by identity."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            snapshot[name] = dict(vars(module))
    for _layer, target, _count in layers.TARGETS:
        module_name, qualname = target.split(":")
        if "." in qualname:
            cls = getattr(importlib.import_module(module_name),
                          qualname.split(".")[0])
            snapshot[target] = dict(vars(cls))
    return snapshot


def test_wrappers_are_restored():
    from repro.experiments.registry import EXPERIMENTS
    from repro.graphs import csr, generators

    layers._import_all()
    before = _bindings()
    drivers = {key: spec.driver for key, spec in EXPERIMENTS.items()}
    tracer = layers.Tracer().install()
    try:
        assert not tracer.missing
        assert hasattr(generators.rmat, "__perfbench_original__")
        assert hasattr(csr.CSRMatrix.from_coo, "__perfbench_original__")
        graph = generators.rmat(64, 200, seed=1)
        graph.csr()
    finally:
        tracer.restore()
    assert tracer.self_s["graphs.generators.synth"] > 0
    assert tracer.counts["graphs.generators.edges"] == graph.num_edges
    assert tracer.counts["graphs.csr.calls"] >= 1
    after = _bindings()
    for owner, attrs in before.items():
        for attr, value in attrs.items():
            assert after[owner].get(attr) is value, f"{owner}.{attr}"
    assert {k: s.driver for k, s in EXPERIMENTS.items()} == drivers


def test_self_time_excludes_children():
    tracer = layers.Tracer()
    outer = tracer._wrap("graphs.partition.partition",
                         lambda: inner(), None)
    inner = tracer._wrap("core.loader.build_layout",
                         lambda: sum(range(200000)), None)
    outer()
    assert tracer.self_s["core.loader.build_layout"] > 0
    total = sum(tracer.self_s.values())
    (start, end), = tracer.top_level
    assert total == pytest.approx(end - start, rel=1e-6)


def test_same_seed_same_request_stream():
    sources = {"SD": np.arange(100, 356), "WV": np.arange(0, 256)}

    def blocks(seed, client, count=2):
        stream = serve_mixed.client_stream(seed, client, sources, 7000)
        return [next(stream) for _ in range(count)]

    assert blocks(5, 0) == blocks(5, 0)
    assert blocks(5, 1) == blocks(5, 1)
    assert blocks(5, 0) != blocks(6, 0)
    assert blocks(5, 0) != blocks(5, 1)
    # every block holds the same mix, whatever the seed
    kinds = lambda block: sorted((r.kind, r.dataset, r.algorithm)
                                 for r in block)
    assert kinds(blocks(5, 0)[0]) == kinds(blocks(6, 1)[1])
    mutations = sum(r.kind == "mutate" for r in blocks(5, 0)[0])
    assert mutations == serve_mixed.MUTATIONS_PER_BLOCK


def test_same_seed_same_graph():
    from repro.core.cache import graph_fingerprint

    (g1, s1), (g2, s2) = array_sim.make_graph(4), array_sim.make_graph(4)
    g3, _s3 = array_sim.make_graph(5)
    assert s1 == s2
    assert graph_fingerprint(g1) == graph_fingerprint(g2)
    assert graph_fingerprint(g1) != graph_fingerprint(g3)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    pct, value = common.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0
    with pytest.raises(ValueError):
        common.tail(range(10))

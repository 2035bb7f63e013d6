"""Per-layer tracing from outside the program.

Every layer is a module of ``repro``; its time is the self time of
spans recorded by wrappers installed around that module's public
functions and methods. Nothing inside ``repro`` is edited: a wrapper is
patched in at every name a caller resolves — the defining module, each
``repro`` module that bound the function with ``from x import f``, or
the class for methods — and :meth:`Tracer.restore` puts the originals
back.

Self time is a span's duration minus the durations of the spans nested
directly inside it on the same thread. Counts (edges generated, CAM
searches, ...) are read off the values the wrapped calls return.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# ----------------------------------------------------------------------
# Count extractors: what a wrapped call's return value adds to a count.
# ----------------------------------------------------------------------


def _graph_edges(result: Any) -> Dict[str, float]:
    return {"graphs.generators.edges": float(result.num_edges)}


def _grid_shards(result: Any) -> Dict[str, float]:
    return {"graphs.partition.shards": float(result.num_shards)}


def _csr_call(_result: Any) -> Dict[str, float]:
    return {"graphs.csr.calls": 1.0}


def _engine_events(result: Any) -> Dict[str, float]:
    events = result.stats.events
    return {
        "core.engine.cam_searches": float(events.cam_searches),
        "core.engine.mac_ops": float(events.mac_ops),
    }


def _micro_events(result: Any) -> Dict[str, float]:
    events = result[1]
    return {
        "xbar.cam_searches": float(events.cam_searches),
        "xbar.mac_ops": float(events.mac_ops),
    }


#: (layer, "module:qualname", count extractor). The layer name is the
#: per-layer metric prefix: its self time is reported as ``<layer>_s``.
TARGETS: Tuple[Tuple[str, str, Optional[Callable[[Any], Dict]]], ...] = (
    # dataset synthesis
    ("graphs.generators.synth", "repro.graphs.generators:rmat", _graph_edges),
    ("graphs.generators.synth",
     "repro.graphs.generators:bipartite_ratings", _graph_edges),
    ("graphs.generators.synth",
     "repro.graphs.generators:degree_sorted_relabel", None),
    # partitioning and mutation re-gridding
    ("graphs.partition.partition",
     "repro.graphs.partition:partition_graph", _grid_shards),
    ("graphs.partition.mutate_grid",
     "repro.graphs.partition:mutate_grid", None),
    # CSR construction
    ("graphs.csr.from_coo", "repro.graphs.csr:CSRMatrix.from_coo", _csr_call),
    ("graphs.csr.from_coo", "repro.graphs.csr:CSCMatrix.from_coo", _csr_call),
    # content cache (self time is the .npz load/store around builders)
    ("core.cache.lookup", "repro.core.cache:LayoutCache.cached_graph", None),
    ("core.cache.lookup", "repro.core.cache:LayoutCache.grid", None),
    ("core.cache.lookup", "repro.core.cache:LayoutCache.layout", None),
    # crossbar layout and group index
    ("core.loader.build_layout", "repro.core.loader:build_layout", None),
    ("core.loader.groups_by", "repro.core.loader:CrossbarLayout.groups_by",
     None),
    ("core.loader.groups_by", "repro.core.loader:GroupIndex.edge_index", None),
    ("core.loader.groups_by", "repro.core.loader:GroupIndex.vertex_index",
     None),
    # vectorized engine accounting; reference_iteration is the
    # functional PageRank step the engine computes its values with
    ("core.algorithms.reference_iteration",
     "repro.core.algorithms.pagerank:reference_iteration", None),
    ("core.engine.run", "repro.core.engine:GaaSXEngine.run", None),
    ("core.engine.pagerank", "repro.core.engine:GaaSXEngine.pagerank",
     _engine_events),
    ("core.engine.traversal", "repro.core.engine:GaaSXEngine.bfs",
     _engine_events),
    ("core.engine.traversal", "repro.core.engine:GaaSXEngine.sssp",
     _engine_events),
    ("core.engine.wcc", "repro.core.engine:GaaSXEngine.wcc", _engine_events),
    ("core.engine.cf",
     "repro.core.engine:GaaSXEngine.collaborative_filtering", _engine_events),
    # GraphR dense-tile baseline
    ("baselines.graphr.tiles",
     "repro.baselines.graphr.tiles:build_tile_layout", None),
    ("baselines.graphr.tiles",
     "repro.baselines.graphr.tiles:TileLayout.groups_by_src", None),
    ("baselines.graphr.run",
     "repro.baselines.graphr.engine:GraphREngine.__init__", None),
    ("baselines.graphr.run",
     "repro.baselines.graphr.engine:GraphREngine.pagerank", None),
    ("baselines.graphr.run", "repro.baselines.graphr.engine:GraphREngine.bfs",
     None),
    ("baselines.graphr.run", "repro.baselines.graphr.engine:GraphREngine.sssp",
     None),
    ("baselines.graphr.run",
     "repro.baselines.graphr.engine:GraphREngine.collaborative_filtering",
     None),
    # golden references (the engines' correctness oracle)
    ("baselines.reference", "repro.baselines.reference:pagerank", None),
    ("baselines.reference", "repro.baselines.reference:bfs", None),
    ("baselines.reference", "repro.baselines.reference:sssp", None),
    ("baselines.reference",
     "repro.baselines.reference:collaborative_filtering", None),
    # CPU/GPU/GRAM analytic models and their workload traces
    ("baselines.models", "repro.baselines.workload:trace_pagerank", None),
    ("baselines.models", "repro.baselines.workload:trace_traversal", None),
    ("baselines.models", "repro.baselines.workload:trace_wcc", None),
    ("baselines.models", "repro.baselines.workload:trace_cf", None),
    ("baselines.models", "repro.baselines.cpu:GridGraphModel.run", None),
    ("baselines.models", "repro.baselines.cpu:GraphChiModel.run", None),
    ("baselines.models", "repro.baselines.cpu:GAPBSModel.run", None),
    ("baselines.models", "repro.baselines.gpu:GunrockModel.run", None),
    ("baselines.models", "repro.baselines.gpu:CuMFModel.run", None),
    ("baselines.models", "repro.baselines.gram:GRAMModel.from_graphr", None),
    ("baselines.models", "repro.baselines.gram:TesseractModel.from_graphr",
     None),
    # experiment drivers (registry entries are patched separately)
    ("experiments.drivers", "repro.experiments.harness:comparison_matrix",
     None),
    ("experiments.drivers",
     "repro.experiments.harness:ComparisonMatrix.cell", None),
    # report rendering
    ("experiments.reporting",
     "repro.experiments.reporting:ExperimentResult.render", None),
    ("experiments.reporting",
     "repro.experiments.reporting:ExperimentResult.to_dict", None),
    ("experiments.reporting",
     "repro.experiments.reporting:ExperimentResult.render_chart", None),
    ("experiments.reporting", "repro.experiments.reporting:bar_chart", None),
    # array-level simulator
    ("core.micro.build", "repro.core.micro:MicroGaaSX._build", None),
    ("core.micro.run", "repro.core.micro:MicroGaaSX.pagerank", _micro_events),
    ("core.micro.run", "repro.core.micro:MicroGaaSX.bfs", _micro_events),
    ("core.micro.run", "repro.core.micro:MicroGaaSX.sssp", _micro_events),
    ("xbar.cam.search", "repro.xbar.cam_array:EdgeCam.search_packed", None),
    ("xbar.cam.search", "repro.xbar.cam_array:EdgeCam.search_many", None),
    ("xbar.cam.search", "repro.xbar.cam_array:CamCrossbar.search", None),
    ("xbar.cam.search", "repro.xbar.cam_array:CamCrossbar.search_many", None),
    ("xbar.cam.search", "repro.xbar.cam_array:CamCrossbar.search_packed",
     None),
    ("xbar.cam.search", "repro.xbar.cam_array:CamBank.search_packed", None),
    ("xbar.cam.load", "repro.xbar.cam_array:EdgeCam.load_edges", None),
    ("xbar.cam.load", "repro.xbar.cam_array:CamCrossbar.write_rows", None),
    ("xbar.mac.write", "repro.xbar.mac_array:MacCrossbar.write", None),
    ("xbar.mac.write", "repro.xbar.mac_array:MacCrossbar.write_rows", None),
    ("xbar.mac.mac", "repro.xbar.mac_array:MacCrossbar.mac", None),
    ("xbar.mac.mac", "repro.xbar.mac_array:MacCrossbar.mac_many", None),
    ("xbar.mac.mac", "repro.xbar.mac_array:MacCrossbar.mac_rowwise", None),
    ("xbar.mac.mac", "repro.xbar.mac_array:MacCrossbar.mac_rowwise_many",
     None),
    ("xbar.mac.mac", "repro.xbar.mac_array:MacBank.mac_rowwise_many", None),
    ("xbar.adc.convert", "repro.xbar.adc:ADC.convert", None),
    ("obs.hw.parity", "repro.obs.hw:check_parity", None),
)

#: Layers whose self time is reported (``<layer>_s``), in report order.
TIMED_LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for layer, _target, _count in TARGETS)
)

#: Counts read off return values.
COUNT_NAMES: Tuple[str, ...] = (
    "graphs.generators.edges",
    "graphs.partition.shards",
    "graphs.csr.calls",
    "core.engine.cam_searches",
    "core.engine.mac_ops",
    "xbar.cam_searches",
    "xbar.mac_ops",
)


def _import_all() -> None:
    """Import every ``repro`` module first, so a module that binds a
    target by name is patched even if nothing imported it yet."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


@dataclasses.dataclass
class _Frame:
    start: float
    child: float = 0.0


class Tracer:
    """Installs the layer wrappers and accumulates self time per layer.

    Thread-safe: each thread keeps its own span stack, and totals are
    merged under a lock. ``on_span`` (optional) is called with
    ``(layer, start, end)`` for every finished span.
    """

    def __init__(self, on_span: Optional[Callable] = None) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in TIMED_LAYERS}
        self.counts: Dict[str, float] = {name: 0.0 for name in COUNT_NAMES}
        self.top_level: List[Tuple[float, float]] = []
        self.missing: List[str] = []
        self.on_span = on_span
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, func: Callable, count) -> Callable:
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame(time.perf_counter())
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child += duration
                with tracer._lock:
                    tracer.self_s[layer] += duration - frame.child
                    if not stack:
                        tracer.top_level.append((frame.start, end))
                if tracer.on_span is not None:
                    tracer.on_span(layer, frame.start, end)
            if count is not None:
                extra = count(result)
                with tracer._lock:
                    for name, amount in extra.items():
                        tracer.counts[name] += amount
            return result

        wrapper.__perfbench_original__ = func
        return wrapper

    # -- patching ------------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        """Patch every target; a target missing from the program is
        recorded in :attr:`missing` and skipped."""
        _import_all()
        for layer, target, count in TARGETS:
            module_name, qualname = target.split(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(target)
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                raw = vars(cls).get(attr) if cls is not None else None
                if raw is None:
                    self.missing.append(target)
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(layer, raw.__func__, count))
                else:
                    wrapped = self._wrap(layer, raw, count)
                self._set(cls, attr, wrapped)
                continue
            func = getattr(module, qualname, None)
            if func is None:
                self.missing.append(target)
                continue
            wrapped = self._wrap(layer, func, count)
            # The defining module plus every module that imported the
            # function by name (``from x import f``).
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._set(mod, attr, wrapped)
        self._install_drivers()
        return self

    def _install_drivers(self) -> None:
        """Experiment drivers are held by the registry's spec objects,
        so the registry entries are swapped for wrapped copies."""
        from repro.experiments.registry import EXPERIMENTS

        for key, spec in list(EXPERIMENTS.items()):
            self._patches.append((EXPERIMENTS, key, spec))
            EXPERIMENTS[key] = dataclasses.replace(
                spec,
                driver=self._wrap("experiments.drivers", spec.driver, None),
            )

    def restore(self) -> None:
        """Put every original back, in reverse patch order."""
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- reporting -----------------------------------------------------
    def covered_s(self, start: float, end: float) -> float:
        """Wall time in [start, end] during which any span was open on
        any thread (union of top-level spans)."""
        covered = 0.0
        cursor = start
        for lo, hi in sorted(self.top_level):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered

    def summary(self, start: float, end: float) -> Dict[str, Any]:
        """Self times, counts and coverage of the window [start, end]."""
        wall = end - start
        covered = self.covered_s(start, end)
        return {
            "wall_s": wall,
            "covered_s": covered,
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


def merge_summaries(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several :meth:`Tracer.summary` results (e.g. the cold and
    warm traced processes of one sweep)."""
    out: Dict[str, Any] = {
        "wall_s": 0.0, "covered_s": 0.0,
        "self_s": {name: 0.0 for name in TIMED_LAYERS},
        "counts": {name: 0.0 for name in COUNT_NAMES},
        "missing": [],
    }
    for part in parts:
        out["wall_s"] += part["wall_s"]
        out["covered_s"] += part["covered_s"]
        for key in ("self_s", "counts"):
            for name, value in part[key].items():
                out[key][name] = out[key].get(name, 0.0) + value
        out["missing"] = sorted(set(out["missing"]) | set(part["missing"]))
    return out

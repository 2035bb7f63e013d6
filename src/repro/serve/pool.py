"""Warm engine sessions for the analytics service.

Serving latency is dominated by everything that happens *before* a
kernel iterates: generating/loading the dataset, lexsorting the shard
grid, packing crossbar layouts. The pool pays those costs once per
(dataset, profile, config) and keeps the resulting
:class:`~repro.core.engine.GaaSXEngine` alive across queries — the
serving-side counterpart of the batch layer's content-keyed layout
cache, and keyed on the very same content identities
(:func:`~repro.core.cache.graph_fingerprint` +
:func:`~repro.core.cache.config_fingerprint`).

Capacity is bounded: when full, the least-recently-used *idle* session
is evicted; if every resident session is busy the pool refuses with
:class:`~repro.errors.SessionPoolExhaustedError` instead of queueing —
admission control belongs to the service layer, which sheds load with
typed errors rather than building invisible backlogs.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..config import ArchConfig
from ..core.cache import config_fingerprint, graph_fingerprint
from ..core.engine import GaaSXEngine
from ..errors import SessionPoolExhaustedError
from ..graphs.datasets import DATASETS, load_dataset
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, get_metrics

log = get_logger("repro.serve.pool")

#: Layout orientations warmed at session creation. ``col`` feeds
#: PageRank/CF's column-streamed passes, ``row`` the traversal kernels;
#: warming both means the first query of either family is compute-only.
WARM_ORDERS = ("col", "row")


def _store_backed(graph: object) -> bool:
    """Whether a graph's edge arrays are views over a store file."""
    arr = getattr(getattr(graph, "edges", None), "cols", None)
    while isinstance(arr, np.ndarray):
        if isinstance(arr, np.memmap):
            return True
        arr = arr.base
    return False


class WarmSession:
    """One pre-loaded engine bound to a (dataset, profile, config).

    The session owns no concurrency itself beyond a busy flag — the
    service serializes kernel runs per session (crossbar state is a
    single physical resource) and marks the session busy for the
    duration. ``content_key`` is the content-addressed identity query
    keys build on.
    """

    def __init__(
        self,
        dataset: str,
        profile: str,
        config: ArchConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.dataset = dataset
        self.profile = profile
        self.config = config
        registry = registry if registry is not None else get_metrics()
        # Warm sessions share edge arrays through the mmap CSR store
        # that load_dataset reads square stand-ins from: every session
        # (and every serving process on the host) maps the same
        # read-only file, so per-session residency is the engine's
        # layout state, not another copy of the graph — the LRU pool
        # holds proportionally more engines. Bipartite datasets stay in
        # memory (collaborative filtering needs the BipartiteGraph
        # shape); a store failure (read-only disk, quota) makes
        # load_dataset return an in-memory build instead.
        graph = load_dataset(dataset, profile)
        self.mmap_backed = _store_backed(graph)
        if not self.mmap_backed and not DATASETS[dataset.upper()].bipartite:
            # Degradations must be visible on /metrics, not only in
            # /stats: a host silently falling back to in-memory
            # loading is exactly what a dashboard should catch.
            registry.counter("serve.pool.mmap_fallback").inc()
            log.warning(
                "pool.mmap_fallback", dataset=dataset, profile=profile,
            )
        self.engine = GaaSXEngine(graph, config=config)
        for order in WARM_ORDERS:
            self.engine.layout(order)
        #: Content-addressed identity: same graph bytes + same config
        #: fields => same key, whatever process created the session.
        self.content_key = (
            f"{graph_fingerprint(self.engine.graph)}-"
            f"{config_fingerprint(config)}"
        )
        self.created_unix = time.time()
        self.queries_served = 0
        self.mutations_applied = 0
        self.busy = False
        #: Last results per algorithm family — the warm state the
        #: incremental kernels start from after a mutation (PageRank
        #: warm ranks, WCC warm labels + seed frontier).
        self.algo_state: Dict[str, object] = {}

    @property
    def num_vertices(self) -> int:
        return self.engine.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.engine.graph.num_edges

    def apply_mutation(
        self, inserts=None, deletes=None
    ) -> Dict[str, object]:
        """Apply an edge mutation batch and rebind the session.

        The graph is immutable, so mutation means: derive the new
        graph (:meth:`~repro.graphs.graph.Graph.with_edges`), derive
        its shard grid incrementally from the old one and seed the
        in-process layout cache with it, invalidate the old graph's
        reuse entries (every one is layout-wide or a functional trace
        of the whole graph, so none survives a mutation), then rebuild
        the engine and re-warm both streaming orders. Warm algorithm
        state survives where it is still sound: previous PageRank ranks
        stay as a warm start (they seed residuals, not truth), previous
        WCC labels become a ``(labels, seed)`` warm state via
        :func:`~repro.core.algorithms.incremental.wcc_warm_state`.

        The caller (the service) serializes this against kernel runs
        on the same session. Returns a summary for the mutate
        response.
        """
        from ..core.cache import get_cache
        from ..core.reuse import get_reuse_cache, layout_token
        from ..graphs.graph import normalize_mutation
        from ..graphs.partition import mutate_grid

        engine = self.engine
        old_graph = engine.graph
        n = old_graph.num_vertices
        ins = normalize_mutation(inserts, n)
        dels = normalize_mutation(deletes, n)
        old_grid = engine._grid
        new_graph = old_graph.with_edges(inserts=ins, deletes=dels)
        new_grid = mutate_grid(old_grid, new_graph, inserts=ins, deletes=dels)
        get_cache().seed_grid(new_graph, engine.interval_size, new_grid)
        tokens = [graph_fingerprint(old_graph)] + [  # traces, layouts
            layout_token(old_graph, engine.interval_size, o, engine.config)
            for o in WARM_ORDERS
        ]
        invalidated = sum(map(get_reuse_cache().invalidate, tokens))
        self.engine = GaaSXEngine(
            new_graph, config=self.config,
            interval_size=engine.interval_size,
        )
        for order in WARM_ORDERS:
            self.engine.layout(order)
        self.mmap_backed = False  # the overlay graph lives in memory
        old_key = self.content_key
        self.content_key = (
            f"{graph_fingerprint(new_graph)}-"
            f"{config_fingerprint(self.config)}"
        )
        labels = self.algo_state.pop("wcc_labels", None)
        if labels is not None:
            from ..core.algorithms.incremental import wcc_warm_state

            self.algo_state["wcc_warm"] = wcc_warm_state(
                labels, new_graph.num_vertices,
                inserts=ins, deletes=dels,
            )
        self.mutations_applied += 1
        log.info(
            "pool.session_mutated", dataset=self.dataset,
            profile=self.profile, inserts=int(ins.shape[0]),
            deletes=int(dels.shape[0]), edges=new_graph.num_edges,
            invalidated=invalidated,
        )
        return {
            "old_content_key": old_key,
            "content_key": self.content_key,
            "num_vertices": new_graph.num_vertices,
            "num_edges": new_graph.num_edges,
            "inserts": int(ins.shape[0]),
            "deletes": int(dels.shape[0]),
            "reuse_invalidated": invalidated,
            "mutations_applied": self.mutations_applied,
        }

    def describe(self) -> Dict[str, object]:
        """Introspection payload for the service's /stats endpoint."""
        return {
            "dataset": self.dataset,
            "profile": self.profile,
            "content_key": self.content_key,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "queries_served": self.queries_served,
            "mutations_applied": self.mutations_applied,
            "busy": self.busy,
            "mmap_backed": self.mmap_backed,
        }


class SessionPool:
    """Bounded LRU pool of :class:`WarmSession` objects.

    Thread-safe: creation happens inside the lock-free gap under a
    per-selector reservation so two concurrent first queries for the
    same graph build one session, not two.
    """

    def __init__(
        self,
        config: Optional[ArchConfig] = None,
        max_sessions: int = 8,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_sessions < 1:
            raise SessionPoolExhaustedError(
                f"max_sessions must be >= 1, got {max_sessions}"
            )
        self.config = config if config is not None else ArchConfig()
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[Tuple[str, str], WarmSession]" = (
            OrderedDict()
        )
        self._building: Dict[Tuple[str, str], threading.Event] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Pool lifecycle counters on the scrapeable registry (they
        # were previously visible only through /stats).
        self.registry = registry if registry is not None else get_metrics()
        self._m_evictions = self.registry.counter("serve.pool.evictions")
        self._m_created = self.registry.counter(
            "serve.pool.sessions_created"
        )
        self._m_resident = self.registry.gauge("serve.pool.resident")

    # ------------------------------------------------------------------
    def get(self, selector: Tuple[str, str]) -> Optional[WarmSession]:
        """The resident session for a selector, or ``None`` (no build)."""
        with self._lock:
            session = self._sessions.get(selector)
            if session is not None:
                self._sessions.move_to_end(selector)
                self.hits += 1
            return session

    def acquire(self, dataset: str, profile: str) -> WarmSession:
        """Get-or-create the warm session for (dataset, profile).

        Blocking (dataset generation + layout packing on a miss) — the
        service calls this off the event loop. Raises
        :class:`~repro.errors.SessionPoolExhaustedError` when the pool
        is full of busy sessions.
        """
        selector = (dataset.upper(), profile)
        while True:
            with self._lock:
                session = self._sessions.get(selector)
                if session is not None:
                    self._sessions.move_to_end(selector)
                    self.hits += 1
                    return session
                building = self._building.get(selector)
                if building is None:
                    self._building[selector] = threading.Event()
                    break
            # Another thread is building this session; wait and retry.
            building.wait()
        try:
            session = WarmSession(
                selector[0], profile, self.config, registry=self.registry
            )
            with self._lock:
                self._evict_for_room_locked()
                self._sessions[selector] = session
                self.misses += 1
                self._m_created.inc()
                self._m_resident.set(len(self._sessions))
            log.info(
                "pool.session_created", dataset=selector[0],
                profile=profile, vertices=session.num_vertices,
                edges=session.num_edges,
                resident=len(self._sessions),
            )
            return session
        finally:
            with self._lock:
                event = self._building.pop(selector, None)
            if event is not None:
                event.set()

    def _evict_for_room_locked(self) -> None:
        """Drop idle LRU sessions until one slot is free (lock held)."""
        while len(self._sessions) >= self.max_sessions:
            victim_key = None
            for key, session in self._sessions.items():  # LRU first
                if not session.busy:
                    victim_key = key
                    break
            if victim_key is None:
                raise SessionPoolExhaustedError(
                    f"session pool is full ({self.max_sessions} busy "
                    f"sessions); retry later or raise --max-sessions"
                )
            evicted = self._sessions.pop(victim_key)
            self.evictions += 1
            self._m_evictions.inc()
            self._m_resident.set(len(self._sessions))
            log.info(
                "pool.session_evicted", dataset=evicted.dataset,
                profile=evicted.profile,
                queries_served=evicted.queries_served,
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def describe(self) -> Dict[str, object]:
        """Introspection payload for the service's /stats endpoint."""
        with self._lock:
            sessions = [s.describe() for s in self._sessions.values()]
        return {
            "max_sessions": self.max_sessions,
            "resident": len(sessions),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "sessions": sessions,
        }

    def clear(self) -> None:
        """Drop every resident session (shutdown/tests)."""
        with self._lock:
            self._sessions.clear()
            self._m_resident.set(0)

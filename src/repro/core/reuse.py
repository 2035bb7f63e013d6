"""Cross-superstep reuse: memoized CAM searches and warm-run caches.

Iterative graph algorithms re-issue nearly identical crossbar work
every superstep: PageRank searches the same destination set against
the same CAM banks each iteration, and a warm serve session replays
the same searches run after run. This module is the process-wide memo
layer that exploits that recurrence:

* **Hit-vector tier** — per ``(content token, array unit, frontier
  fingerprint)`` CAM hit matrices. :class:`~repro.core.micro.MicroGaaSX`
  consults it before every gang ``search_packed`` broadcast, under the
  layout-wide unit ``"gang"`` keyed by the searched-key activity mask
  (PageRank searches every key, so one entry covers its whole run); a
  hit returns the stored matrix and charges exactly the events the
  search would have charged
  (:meth:`~repro.xbar.cam_array.CamBank.charge_search`), so the
  :class:`~repro.events.EventLog` and per-array hardware counters are —
  by construction — identical with and without memoization. Only the
  packed-word fold is skipped: memoization is a simulation speedup,
  not a hardware semantic change.
* **Packed-key tier** — per ``(content token, unit, field)`` products;
  the micro engine keeps one ``"layout"`` entry per layout and field
  (every crossbar's distinct searched ids and their packed keys), so
  content-identical graphs never re-encode their searched vertex sets.
* **Functional traces** — per ``(graph fingerprint, "execution",
  kernel and params)`` one algorithm's platform-independent result
  (:mod:`repro.core.algorithms.execution`): GaaS-X, GraphR and the
  CPU/GPU workload models all price the one stored trace.
* **Invalidation** — content tokens embed the graph fingerprint, so a
  mutated graph can never read a stale entry. Every entry is
  layout-wide (the micro engine's ``"gang"``/``"layout"`` units, the
  engine's ``"pagerank-pass"``/``"delta"`` ones; traces live under the
  bare graph fingerprint), so a mutation simply drops the old tokens'
  namespaces (:meth:`ReuseCache.invalidate`) and counts each dropped
  entry as an invalidation.

Counters ``reuse.hits`` / ``reuse.misses`` / ``reuse.invalidations``
are mirrored into the process metrics registry (and therefore the
OpenMetrics export); :func:`reuse_scope` additionally accumulates them
per thread so the serve layer can attach a per-query
``reuse_hit_rate``.

Memoization is on by default; set ``REPRO_REUSE=0`` (or call
:func:`set_reuse_enabled`) to bypass every tier — results and event
counts are identical either way, only wall-clock changes.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..obs.metrics import get_metrics

if TYPE_CHECKING:  # pragma: no cover
    from ..config import ArchConfig
    from ..graphs.graph import Graph

#: Environment variable: set to ``0``/``false``/``off`` to bypass reuse.
REUSE_ENV = "REPRO_REUSE"

#: Default entry bound of the hit-vector tier.
DEFAULT_MAX_ENTRIES = 4096

#: Default byte bound of the hit-vector tier (64 MiB).
DEFAULT_MAX_BYTES = 64 << 20

_FALSEY = ("0", "false", "off", "no")

# Module-level override: None defers to the environment variable.
_enabled_override: Optional[bool] = None


def reuse_enabled(override: Optional[bool] = None) -> bool:
    """Whether the reuse layer is active.

    Resolution order: explicit ``override`` argument (per-engine knob),
    then :func:`set_reuse_enabled`, then ``$REPRO_REUSE``, then on.
    """
    if override is not None:
        return bool(override)
    if _enabled_override is not None:
        return _enabled_override
    env = os.environ.get(REUSE_ENV)
    if env is not None and env.strip().lower() in _FALSEY:
        return False
    return True


def set_reuse_enabled(value: Optional[bool]) -> None:
    """Force the reuse layer on/off process-wide (``None`` = follow env)."""
    global _enabled_override
    _enabled_override = value


# ----------------------------------------------------------------------
# Fingerprints and tokens
# ----------------------------------------------------------------------
def frontier_fingerprint(values: np.ndarray) -> str:
    """Stable content digest of one frontier (or any key array).

    Dtype and shape are folded in so a boolean activity mask and an id
    array of the same bytes cannot collide.
    """
    arr = np.ascontiguousarray(values)
    h = hashlib.blake2b(digest_size=16)
    h.update(arr.dtype.str.encode("ascii"))
    h.update(str(arr.shape).encode("ascii"))
    h.update(arr.tobytes())
    return h.hexdigest()


def layout_token(
    graph: "Graph",
    interval_size: int,
    order: str,
    config: "ArchConfig",
) -> str:
    """The content identity of one (graph, interval, order, config)
    crossbar layout — the namespace reuse entries live under.

    Embedding the graph fingerprint makes stale reads structurally
    impossible: a mutated graph has a new fingerprint, hence a new
    token, hence an empty namespace.
    """
    from .cache import config_fingerprint, graph_fingerprint

    return (
        f"{graph_fingerprint(graph)}:{int(interval_size)}:{order}:"
        f"{config_fingerprint(config)}"
    )


# ----------------------------------------------------------------------
# Per-query scopes
# ----------------------------------------------------------------------
class ReuseScope:
    """Hit/miss tally of one scoped region (one serve query)."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _ScopeStack(threading.local):
    def __init__(self) -> None:
        self.stack: list = []


_scopes = _ScopeStack()


class reuse_scope:
    """Context manager accumulating this thread's reuse hits/misses.

    The serve layer wraps each engine run in one, turning the global
    counters into a per-query ``reuse_hit_rate`` without cross-query
    interference (runs execute on worker threads; the scope is
    thread-local)."""

    def __enter__(self) -> ReuseScope:
        self.scope = ReuseScope()
        _scopes.stack.append(self.scope)
        return self.scope

    def __exit__(self, *exc_info) -> None:
        _scopes.stack.remove(self.scope)


def _tally(hit: bool) -> None:
    for scope in _scopes.stack:
        if hit:
            scope.hits += 1
        else:
            scope.misses += 1


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
def _value_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, tuple):
        return sum(_value_bytes(part) for part in value)
    return 64  # scalar-ish payloads (EventLog floats, counts)


def _freeze(value):
    """Mark stored arrays read-only so no consumer can corrupt a memo."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for part in value:
            _freeze(part)
    return value


class ReuseCache:
    """Bounded LRU memo of cross-superstep reusable artifacts.

    Two tiers share the bounds: the hit-vector tier (plus any other
    per-frontier artifact, e.g. the engine's delta-pass group
    expansions) keyed ``(token, unit, fingerprint)``, and the
    packed-key tier keyed ``(token, unit, field)``. ``unit`` names
    the layout-wide artifact (``"gang"``, ``"layout"``,
    ``"pagerank-pass"``, ``"delta"``).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Tuple[str, object, str], object]" = (
            OrderedDict()
        )
        self._packed: "OrderedDict[Tuple[str, object, str], object]" = (
            OrderedDict()
        )
        self._bytes = 0
        self._lock = threading.RLock()
        # Authoritative plain-int counters (survive registry resets in
        # tests); every increment is mirrored to the process registry
        # so the OpenMetrics export carries them.
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def _count(self, name: str, hit: Optional[bool] = None) -> None:
        get_metrics().counter(f"reuse.{name}").inc()
        if hit is not None:
            _tally(hit)

    def _record_hit(self) -> None:
        with self._lock:
            self.hits += 1
        self._count("hits", hit=True)

    def _record_miss(self) -> None:
        with self._lock:
            self.misses += 1
        self._count("misses", hit=False)

    # ------------------------------------------------------------------
    # Hit-vector tier
    # ------------------------------------------------------------------
    def lookup(self, token: str, unit, fingerprint: str):
        """The memoized artifact, or ``None`` (counts a hit or miss)."""
        key = (token, unit, fingerprint)
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        if value is None:
            self._record_miss()
        else:
            self._record_hit()
        return value

    def store(self, token: str, unit, fingerprint: str, value) -> None:
        """Memoize one artifact (ndarray or tuple of ndarrays)."""
        key = (token, unit, fingerprint)
        size = _value_bytes(value)
        if size > self.max_bytes:
            return  # larger than the whole budget; never cacheable
        _freeze(value)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= _value_bytes(old)
            self._entries[key] = value
            self._bytes += size
            self._evict_locked()

    def _evict_locked(self) -> None:
        while self._entries and (
            len(self._entries) + len(self._packed) > self.max_entries
            or self._bytes > self.max_bytes
        ):
            _key, value = self._entries.popitem(last=False)
            self._bytes -= _value_bytes(value)

    # ------------------------------------------------------------------
    # Packed-key tier
    # ------------------------------------------------------------------
    def packed_keys(self, token: str, unit, field: str, builder):
        """Get-or-create the content-keyed ``pack_keys`` product.

        ``builder`` is a zero-argument callable producing the value on
        a miss. Packed keys are tiny and regeneration is cheap relative
        to hit vectors, so this tier only counts toward the entry
        bound, not the byte budget.
        """
        key = (token, unit, field)
        with self._lock:
            value = self._packed.get(key)
            if value is not None:
                self._packed.move_to_end(key)
        if value is not None:
            self._record_hit()
            return value
        self._record_miss()
        value = _freeze(builder())
        with self._lock:
            self._packed[key] = value
            while len(self._packed) > self.max_entries:
                self._packed.popitem(last=False)
        return value

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, token: Optional[str] = None) -> int:
        """Drop every entry (``token=None``) or one token's namespace.

        Returns the number of dropped entries; each is counted as one
        ``reuse.invalidations``.
        """
        with self._lock:
            dropped = self._drop_locked(0, token)
            self.invalidations += dropped
        if dropped:
            get_metrics().counter("reuse.invalidations").inc(dropped)
        return dropped

    def clear(self, unit=None) -> None:
        """Drop every entry (``unit=None``) or one unit's without
        counting invalidations (tests, benchmark hygiene)."""
        with self._lock:
            self._drop_locked(1, unit)

    def _drop_locked(self, part: int, match) -> int:
        dropped = 0
        for store in (self._entries, self._packed):
            for key in [k for k in store if match in (None, k[part])]:
                if store is self._entries:
                    self._bytes -= _value_bytes(store[key])
                del store[key]
                dropped += 1
        return dropped

    @property
    def hit_rate(self) -> float:
        """Lifetime fraction of lookups served from the cache."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def describe(self) -> Dict[str, object]:
        """Introspection payload (the serve /stats ``reuse`` section)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "hit_rate": round(self.hit_rate, 4),
                "entries": len(self._entries) + len(self._packed),
                "bytes": self._bytes,
            }


# ----------------------------------------------------------------------
# Process-global cache
# ----------------------------------------------------------------------
_global_cache: Optional[ReuseCache] = None
_global_lock = threading.Lock()


def get_reuse_cache() -> ReuseCache:
    """The process-wide reuse cache (created on first use)."""
    global _global_cache
    with _global_lock:
        if _global_cache is None:
            _global_cache = ReuseCache()
        return _global_cache


def reset_reuse_cache() -> None:
    """Replace the global cache (tests and pool hygiene)."""
    global _global_cache
    with _global_lock:
        _global_cache = None

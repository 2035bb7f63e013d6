"""CSR-native, memory-mapped graph store.

The accelerator model consumes edges shard by shard, but until this
module every software layer above it re-materialized the same edge set
in RAM per process: the dataset generator built a COO copy, each engine
another, each pool worker yet another. Here a dataset is written to
disk **once**, in a content-addressed, versioned binary layout, and
every subsequent consumer opens zero-copy read-only ``np.memmap`` views
over the same bytes — cross-process sharing is then just page-cache
sharing, and out-of-core iteration falls out of the extent table.

File layout (little-endian throughout)::

    offset 0   magic  b"GSX-CSR1"           (8 bytes)
    offset 8   format version               (u32 LE)
    offset 12  header JSON length H         (u32 LE)
    offset 16  header JSON                  (H bytes, UTF-8)
    ...        zero padding to a 64-byte boundary
    ...        indptr   extent              (num_vertices + 1 x <i8)
    ...        indices  extent              (nnz x <i8)
    ...        data     extent              (nnz x <f8)

The header records the array extents (absolute byte offset + element
count) plus a **sub-shard table**: contiguous row ranges sized to a
target edge count, each with its row and edge bounds. A shard's CSR
arrays are therefore plain slices of the global extents — per-shard
``indptr``/``indices``/``data`` views cost no copies beyond the local
(#rows + 1)-element indptr rebase.

Content addressing: the file name is the
:func:`~repro.core.cache.graph_fingerprint` of the graph the file hands
back (edges in CSR order), so equal graphs converge on one file
regardless of which host or process wrote them, and a corrupt/partial
write can never alias a good one (writes go through a temp file +
``os.replace``). Alias files map human tags (e.g. ``dataset-WV-bench``)
to digests so reopening a dataset never has to regenerate it just to
learn its key; a file that fails :func:`read_header` is a miss.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import time
from dataclasses import dataclass
from functools import cache
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple,
)

import numpy as np

from ..errors import StorageError
from ..graphs.csr import CSRMatrix
from ..obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graphs.graph import Graph

log = get_logger("repro.storage.mmap")

#: File magic; changes only with a byte-incompatible relayout.
MAGIC = b"GSX-CSR1"

#: Format version recorded in the header. Bump on any change to the
#: header schema, the extent layout or the meaning of ``digest``.
FORMAT_VERSION = 2

#: Canonical on-disk dtypes (explicit little-endian). Every consumer
#: sees exactly these regardless of host endianness.
INDPTR_DTYPE = "<i8"
INDEX_DTYPE = "<i8"
VALUE_DTYPE = "<f8"

#: Array extents start on this alignment (mmap-friendly, SIMD-safe).
ALIGNMENT = 64

#: Default sub-shard granularity: contiguous row ranges holding about
#: this many edges. Small enough that scheduling can balance workers,
#: large enough that per-shard overhead stays negligible.
DEFAULT_SHARD_EDGES = 1 << 18

#: Environment variable overriding the store root directory.
STORE_DIR_ENV = "REPRO_STORE_DIR"

_HEADER_PREFIX = struct.Struct("<8sII")  # magic, version, json length


def default_store_dir() -> str:
    """Resolved store root (env override, else XDG-ish)."""
    env = os.environ.get(STORE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "store")


def _fingerprint(csr: CSRMatrix) -> str:
    """The content key of a stored CSR: the fingerprint of the graph
    :meth:`StoredGraph.graph` hands back for it."""
    from ..core.cache import graph_fingerprint
    from ..graphs.graph import Graph

    return graph_fingerprint(Graph.from_csr(csr))


def _align(offset: int) -> int:
    return -(-offset // ALIGNMENT) * ALIGNMENT


def build_shard_table(
    indptr: np.ndarray, target_edges: int
) -> List[Dict[str, int]]:
    """Split rows into contiguous sub-shards of ~``target_edges`` edges.

    Greedy row packing: a shard closes once it holds at least the
    target (a single super-hub row may exceed it — rows are never
    split at this level; the out-of-core iterator chunks by edge range
    when it needs an exact byte bound). Every row lands in exactly one
    shard and shards cover ``[0, num_rows)`` without gaps.
    """
    if target_edges < 1:
        raise StorageError(f"target_edges must be >= 1, got {target_edges}")
    num_rows = int(indptr.size - 1)
    shards: List[Dict[str, int]] = []
    row_lo = 0
    edge_lo = 0
    while row_lo < num_rows:
        # First row whose cumulative edge count reaches the target.
        row_hi = int(
            np.searchsorted(indptr, edge_lo + target_edges, side="left")
        )
        row_hi = max(row_hi, row_lo + 1)
        row_hi = min(row_hi, num_rows)
        edge_hi = int(indptr[row_hi])
        shards.append(
            {
                "row_lo": row_lo,
                "row_hi": row_hi,
                "edge_lo": edge_lo,
                "edge_hi": edge_hi,
            }
        )
        row_lo, edge_lo = row_hi, edge_hi
    if not shards:  # zero-vertex graph: one empty covering shard
        shards.append({"row_lo": 0, "row_hi": 0, "edge_lo": 0, "edge_hi": 0})
    return shards


def write_graph_file(
    path: str,
    num_vertices: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    name: str = "graph",
    target_edges: int = DEFAULT_SHARD_EDGES,
    digest: Optional[str] = None,
) -> str:
    """Write one CSR graph as a store file; returns its content digest.

    ``digest`` defaults to the graph fingerprint of the stored edges.

    The write is atomic (temp file + rename), so readers never observe
    a partial file and concurrent writers of equal content are
    harmless — last rename wins with identical bytes.
    """
    indptr = np.ascontiguousarray(indptr).astype(INDPTR_DTYPE, copy=False)
    indices = np.ascontiguousarray(indices).astype(INDEX_DTYPE, copy=False)
    data = np.ascontiguousarray(data).astype(VALUE_DTYPE, copy=False)
    if indptr.size != num_vertices + 1:
        raise StorageError(
            f"indptr has {indptr.size} entries for {num_vertices} vertices"
        )
    if indices.size != data.size:
        raise StorageError("indices and data must match in length")
    if digest is None:
        digest = _fingerprint(
            CSRMatrix(indptr, indices, data, (num_vertices, num_vertices))
        )
    nnz = int(indices.size)
    shards = build_shard_table(indptr, target_edges)
    # Lay the extents out: header JSON size depends on the extent
    # offsets, which depend on the header size. The offsets are written
    # with fixed-width padding so one sizing pass suffices.
    header = {
        "format_version": FORMAT_VERSION,
        "name": name,
        "digest": digest,
        "num_vertices": int(num_vertices),
        "num_edges": nnz,
        "dtypes": {
            "indptr": INDPTR_DTYPE,
            "indices": INDEX_DTYPE,
            "data": VALUE_DTYPE,
        },
        "created_unix": round(time.time(), 3),
        "shards": shards,
        "arrays": {
            "indptr": {"offset": 0, "count": int(indptr.size)},
            "indices": {"offset": 0, "count": nnz},
            "data": {"offset": 0, "count": nnz},
        },
    }
    # Fix the header size with placeholder offsets of maximal width,
    # then fill in the real offsets (same width, zero-padded).
    for extent in header["arrays"].values():
        extent["offset"] = 10**15  # 16-digit placeholder
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    base = _align(_HEADER_PREFIX.size + len(payload))
    offsets = {
        "indptr": base,
        "indices": _align(base + indptr.size * 8),
    }
    offsets["data"] = _align(offsets["indices"] + nnz * 8)
    for array_name, offset in offsets.items():
        header["arrays"][array_name]["offset"] = offset
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    parent = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp.gsx")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(
                _HEADER_PREFIX.pack(MAGIC, FORMAT_VERSION, len(payload))
            )
            handle.write(payload)
            for array_name, arr in (
                ("indptr", indptr), ("indices", indices), ("data", data)
            ):
                pad = offsets[array_name] - handle.tell()
                if pad < 0:  # pragma: no cover - sizing invariant
                    raise StorageError("store extent layout overlap")
                handle.write(b"\x00" * pad)
                arr.tofile(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest


def read_header(path: str) -> Dict[str, object]:
    """Parse and validate a store file's header."""
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(_HEADER_PREFIX.size)
            if len(prefix) < _HEADER_PREFIX.size:
                raise StorageError(f"{path}: truncated store header")
            magic, version, length = _HEADER_PREFIX.unpack(prefix)
            if magic != MAGIC:
                raise StorageError(
                    f"{path}: not a GSX CSR store file (bad magic)"
                )
            if version != FORMAT_VERSION:
                raise StorageError(
                    f"{path}: store format v{version} is not the "
                    f"supported v{FORMAT_VERSION}"
                )
            payload = handle.read(length)
    except OSError as exc:
        raise StorageError(f"cannot read store file {path!r}: {exc}") from exc
    if len(payload) < length:
        raise StorageError(f"{path}: truncated store header JSON")
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"{path}: corrupt store header: {exc}") from exc
    for key in ("num_vertices", "num_edges", "arrays", "shards", "digest"):
        if key not in header:
            raise StorageError(f"{path}: store header missing {key!r}")
    return header


@dataclass(frozen=True)
class StoredShard:
    """One sub-shard's bounds inside a stored graph."""

    index: int
    row_lo: int
    row_hi: int
    edge_lo: int
    edge_hi: int

    @property
    def num_rows(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def num_edges(self) -> int:
        return self.edge_hi - self.edge_lo


@dataclass(frozen=True)
class StreamChunk:
    """One bounded-residency slice of a stored graph's edge extents.

    ``indices``/``data`` are zero-copy memmap views over the edge range
    ``[edge_lo, edge_hi)``; ``indptr`` is the rebased local row pointer
    (``indptr[0] == 0``) over rows ``[row_lo, row_hi)``, clipped at
    both ends when the chunk splits a hub row.
    """

    row_lo: int
    row_hi: int
    edge_lo: int
    edge_hi: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.edge_hi - self.edge_lo

    @property
    def nbytes(self) -> int:
        """Resident bytes this chunk maps/materializes."""
        return int(
            self.indptr.nbytes + self.indices.nbytes + self.data.nbytes
        )

    def row_ids(self) -> np.ndarray:
        """Global source-row id of every edge in the chunk."""
        return np.repeat(
            np.arange(self.row_lo, self.row_hi, dtype=np.int64),
            np.diff(self.indptr),
        )


class StoredGraph:
    """Zero-copy read-only views over one store file.

    All array attributes are ``np.memmap`` views opened with
    ``mode="r"`` — attempting to write through them raises. The object
    is cheap to construct (only the header is read eagerly); pages
    fault in as consumers touch them.
    """

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        header = read_header(self.path)
        self.meta = header
        self.name = str(header.get("name", "graph"))
        self.digest = str(header["digest"])
        self.num_vertices = int(header["num_vertices"])
        self.num_edges = int(header["num_edges"])
        arrays = header["arrays"]

        def _view(array_name: str, dtype: str) -> np.ndarray:
            extent = arrays[array_name]
            return np.memmap(
                self.path,
                dtype=dtype,
                mode="r",
                offset=int(extent["offset"]),
                shape=(int(extent["count"]),),
            )

        self.indptr = _view("indptr", INDPTR_DTYPE)
        self.indices = _view("indices", INDEX_DTYPE)
        self.data = _view("data", VALUE_DTYPE)
        self.shards: Tuple[StoredShard, ...] = tuple(
            StoredShard(index=i, **entry)
            for i, entry in enumerate(header["shards"])
        )

    # ------------------------------------------------------------------
    # Whole-graph views
    # ------------------------------------------------------------------
    def csr(self) -> CSRMatrix:
        """The whole graph as a zero-copy :class:`CSRMatrix`."""
        return CSRMatrix(
            self.indptr,
            self.indices,
            self.data,
            (self.num_vertices, self.num_vertices),
        )

    def graph(self) -> "Graph":
        """A :class:`~repro.graphs.graph.Graph` over the stored views.

        Destination ids and weights stay memmap-backed; only the
        source-id column is materialized (CSR stores it implicitly).
        The graph's content fingerprint is pre-seeded with the store
        digest, so layout-cache keys are identical in every process
        that opens this file — warm caches are shared for free.
        """
        from ..core.cache import seed_fingerprint
        from ..graphs.graph import Graph

        graph = Graph.from_csr(self.csr(), name=self.name)
        seed_fingerprint(graph, self.digest)
        return graph

    def mutated(self, inserts=None, deletes=None) -> "Graph":
        """In-memory graph with an edge mutation batch applied.

        The store file is immutable (it is content-addressed — mutating
        it in place would falsify its digest), so a mutation produces a
        fresh :class:`~repro.graphs.graph.Graph` overlay whose own
        content fingerprint keys all downstream caches. Serve sessions
        hold the overlay; persisting it back is an explicit
        :meth:`MmapStore.put_graph` when the owner wants a durable
        snapshot.
        """
        return self.graph().with_edges(inserts=inserts, deletes=deletes)

    def out_degrees(self) -> np.ndarray:
        """Per-row edge counts (one O(V) pass over indptr)."""
        return np.diff(self.indptr)

    # ------------------------------------------------------------------
    # Sub-shard views and scheduling
    # ------------------------------------------------------------------
    def shard_csr(self, index: int) -> CSRMatrix:
        """Sub-shard ``index`` as a local CSR over its row range.

        Indices/data are zero-copy views; the local indptr rebase is
        the only allocation (``num_rows + 1`` int64).
        """
        shard = self.shards[index]
        return self.csr().slice_rows(shard.row_lo, shard.row_hi)

    def shard_edge_counts(self) -> np.ndarray:
        """Edges per sub-shard, in row order."""
        return np.array([s.num_edges for s in self.shards], dtype=np.int64)

    def schedule(self, num_workers: int) -> List[List[int]]:
        """Degree-sorted balanced shard assignment for a worker pool.

        Longest-processing-time heuristic: shards sorted by descending
        edge count, each placed on the currently lightest worker —
        the classic 4/3-approximate makespan bound, which is what keeps
        every worker's edge total within a few percent of the mean on
        power-law graphs (one hub shard cannot capsize a worker).
        """
        if num_workers < 1:
            raise StorageError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        loads = np.zeros(num_workers, dtype=np.int64)
        assignment: List[List[int]] = [[] for _ in range(num_workers)]
        counts = self.shard_edge_counts()
        for index in np.argsort(-counts, kind="stable"):
            worker = int(np.argmin(loads))
            assignment[worker].append(int(index))
            loads[worker] += counts[index]
        return assignment

    def schedule_balance(self, num_workers: int) -> Dict[str, float]:
        """Balance statistics of :meth:`schedule` (1.0 is perfect)."""
        assignment = self.schedule(num_workers)
        counts = self.shard_edge_counts()
        loads = np.array(
            [int(counts[ids].sum()) for ids in assignment], dtype=np.float64
        )
        mean = float(loads.mean()) if loads.size else 0.0
        return {
            "workers": float(num_workers),
            "shards": float(len(self.shards)),
            "max_edges": float(loads.max(initial=0.0)),
            "mean_edges": mean,
            "balance": float(mean / loads.max()) if loads.max() > 0 else 1.0,
        }

    # ------------------------------------------------------------------
    # Out-of-core iteration
    # ------------------------------------------------------------------
    def iter_chunks(
        self, max_resident_bytes: Optional[int] = None
    ) -> Iterator[StreamChunk]:
        """Stream the edge extents under a resident-memory budget.

        Chunks are cut on exact edge boundaries — hub rows split across
        chunks — so ``chunk.nbytes`` never exceeds the budget (subject
        to the hard floor of one edge plus its two indptr entries).
        With no budget, one chunk per stored sub-shard is yielded.
        Consumers typically materialize O(chunk) temporaries on top
        (e.g. :meth:`StreamChunk.row_ids`), so a pipeline's true peak
        is a small multiple of the budget; the budget knob is the
        control surface, not a hard process RSS cap.
        """
        if max_resident_bytes is None:
            for shard in self.shards:
                yield self._chunk(shard.edge_lo, shard.edge_hi)
            return
        # Bytes per edge in a chunk: one index + one value; indptr adds
        # 8 bytes per covered row, accounted by shrinking the edge
        # budget conservatively (dense rows cover few indptr entries).
        per_edge = 16
        max_edges = max(1, (int(max_resident_bytes) - 2 * 8) // (per_edge + 8))
        edge_lo = 0
        while edge_lo < self.num_edges:
            edge_hi = min(edge_lo + max_edges, self.num_edges)
            yield self._chunk(edge_lo, edge_hi)
            edge_lo = edge_hi
        if self.num_edges == 0:
            yield self._chunk(0, 0)

    def _chunk(self, edge_lo: int, edge_hi: int) -> StreamChunk:
        indptr = self.indptr
        if edge_hi > edge_lo:
            row_lo = int(np.searchsorted(indptr, edge_lo, side="right")) - 1
            row_hi = int(np.searchsorted(indptr, edge_hi, side="left"))
        else:
            row_lo, row_hi = 0, 0
        local = np.clip(
            np.asarray(indptr[row_lo : row_hi + 1], dtype=np.int64),
            edge_lo,
            edge_hi,
        ) - edge_lo
        if local.size == 0:
            local = np.zeros(1, dtype=np.int64)
        return StreamChunk(
            row_lo=row_lo,
            row_hi=row_hi,
            edge_lo=edge_lo,
            edge_hi=edge_hi,
            indptr=local,
            indices=self.indices[edge_lo:edge_hi],
            data=self.data[edge_lo:edge_hi],
        )

    def __repr__(self) -> str:
        return (
            f"StoredGraph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, shards={len(self.shards)}, "
            f"digest={self.digest[:12]})"
        )


class MmapStore:
    """Content-addressed directory of stored graphs.

    ``root`` resolves through the explicit argument, then
    ``$REPRO_STORE_DIR``, then ``~/.cache/repro/store``. Files are
    ``<digest>.gsx``; alias files ``alias-<tag>.json`` map human tags
    to digests so a dataset converts exactly once per content.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else default_store_dir()

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> str:
        """The store file path of a content digest."""
        return os.path.join(self.root, f"{digest}.gsx")

    def _alias_path(self, tag: str) -> str:
        slug = "".join(
            ch if ch.isalnum() or ch in "-_." else "_" for ch in tag
        )
        return os.path.join(self.root, f"alias-{slug}.json")

    def _readable(self, digest: str) -> bool:
        """Whether the digest's file exists and has a current header."""
        path = self.path_for(digest)
        if not os.path.exists(path):
            return False
        try:
            read_header(path)
        except StorageError as exc:
            log.warning("store.stale_entry", path=path, error=str(exc))
            return False
        return True

    def resolve_alias(self, tag: str) -> Optional[str]:
        """Digest a tag points at, or None (missing/corrupt alias, or a
        file that no longer opens)."""
        try:
            with open(self._alias_path(tag), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            digest = payload.get("digest")
        except (OSError, json.JSONDecodeError, AttributeError):
            return None
        if not isinstance(digest, str) or not self._readable(digest):
            return None
        return digest

    def put_alias(self, tag: str, digest: str) -> None:
        """Point a tag at a digest (atomic overwrite)."""
        os.makedirs(self.root, exist_ok=True)
        path = self._alias_path(tag)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp.json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({"digest": digest, "tag": tag}, fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # ------------------------------------------------------------------
    def put_graph(
        self,
        graph: "Graph",
        tag: Optional[str] = None,
        target_edges: int = DEFAULT_SHARD_EDGES,
    ) -> StoredGraph:
        """Convert a graph to the store (idempotent) and open it.

        The graph's canonical CSR is built, content-addressed, and
        written unless a readable file with that digest is already
        stored; ``tag`` optionally records an alias for later
        :meth:`open_tag` lookups.
        """
        csr = graph.csr()
        digest = _fingerprint(csr)
        path = self.path_for(digest)
        if not self._readable(digest):
            os.makedirs(self.root, exist_ok=True)
            write_graph_file(
                path,
                graph.num_vertices,
                csr.indptr,
                csr.indices,
                csr.data,
                name=graph.name,
                target_edges=target_edges,
                digest=digest,
            )
            log.info(
                "store.converted", digest=digest, name=graph.name,
                vertices=graph.num_vertices, edges=graph.num_edges,
                path=path,
            )
        if tag is not None:
            self.put_alias(tag, digest)
        return StoredGraph(path)

    def open(self, digest: str) -> StoredGraph:
        """Open a stored graph by content digest."""
        path = self.path_for(digest)
        if not os.path.exists(path):
            raise StorageError(
                f"no stored graph with digest {digest!r} under {self.root}"
            )
        return StoredGraph(path)

    def open_tag(self, tag: str) -> StoredGraph:
        """Open a stored graph by alias tag."""
        digest = self.resolve_alias(tag)
        if digest is None:
            raise StorageError(
                f"no stored graph tagged {tag!r} under {self.root}; "
                f"convert it first (repro store-convert)"
            )
        return self.open(digest)

    def entries(self) -> List[Dict[str, object]]:
        """Header summaries of every stored graph (for store-info)."""
        if not os.path.isdir(self.root):
            return []
        out: List[Dict[str, object]] = []
        for entry in sorted(os.listdir(self.root)):
            if not entry.endswith(".gsx"):
                continue
            path = os.path.join(self.root, entry)
            try:
                header = read_header(path)
            except StorageError:
                continue
            out.append(
                {
                    "digest": header["digest"],
                    "name": header.get("name", "graph"),
                    "vertices": header["num_vertices"],
                    "edges": header["num_edges"],
                    "shards": len(header["shards"]),
                    "bytes": os.path.getsize(path),
                }
            )
        return out

    # ------------------------------------------------------------------
    def get_or_put(
        self, tag: str, build: Callable[[], "Graph"]
    ) -> StoredGraph:
        """Open the graph tagged ``tag``; on a miss, ``build`` it and
        store it under that tag."""
        digest = self.resolve_alias(tag)
        if digest is not None:
            return self.open(digest)
        return self.put_graph(build(), tag=tag)

    def dataset(self, key: str, profile: str = "bench") -> StoredGraph:
        """Get-or-convert the stand-in dataset for (key, profile).

        Bipartite datasets (Netflix) are stored as their unified square
        graph — the shape every shard/streaming consumer expects; the
        collaborative-filtering path keeps its in-memory
        :class:`~repro.graphs.graph.BipartiteGraph` and does not route
        through the store.
        """
        from ..graphs.datasets import synthesize_dataset
        from ..graphs.graph import BipartiteGraph

        def build() -> "Graph":
            graph = synthesize_dataset(key, profile)
            if isinstance(graph, BipartiteGraph):
                return graph.as_unified_graph()
            return graph

        return self.get_or_put(dataset_tag(key, profile), build)


def dataset_tag(key: str, profile: str) -> str:
    """The alias tag of one (dataset, profile) stand-in."""
    return f"dataset-{key.upper()}-{profile}"


def get_or_build(tag: str, build: Callable[[], "Graph"]) -> "Graph":
    """The graph tagged ``tag`` in the process-wide store, built and
    stored on a miss.

    The store is the only place a generated graph is persisted. When it
    cannot be used (unwritable root, full disk) the build is returned
    in memory instead, with a warning, so callers still get the graph.
    """
    build = cache(build)  # a failed put must not build twice
    store = get_store()
    try:
        return store.get_or_put(tag, build).graph()
    except (StorageError, OSError) as exc:
        log.warning(
            "store.unavailable", tag=tag, root=store.root, error=str(exc)
        )
        return build()


# ----------------------------------------------------------------------
# Process-global store
# ----------------------------------------------------------------------
_global_store: Optional[MmapStore] = None


def get_store(root: Optional[str] = None) -> MmapStore:
    """The process-wide store (re-rooted when ``root`` is given)."""
    global _global_store
    if root is not None:
        _global_store = MmapStore(root)
    elif _global_store is None:
        _global_store = MmapStore()
    return _global_store


def reset_store() -> None:
    """Drop the global store binding (tests)."""
    global _global_store
    _global_store = None

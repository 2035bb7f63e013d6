"""Graph I/O: SNAP-style edge lists and single-file CSR store files.

The SNAP datasets the paper uses ship as whitespace-separated edge-list
text files with ``#`` comment headers; :func:`read_edge_list` accepts
exactly that shape (with an optional third weight column). The binary
container is the mmap store's ``.gsx`` CSR file, the only on-disk graph
format.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from ..errors import GraphFormatError
from .coo import COOMatrix
from .graph import Graph


def read_edge_list(
    path: str | os.PathLike,
    weighted: Optional[bool] = None,
    num_vertices: Optional[int] = None,
    comment: str = "#",
    name: Optional[str] = None,
) -> Graph:
    """Read a SNAP-style edge-list text file.

    Each non-comment line is ``src dst`` or ``src dst weight``. When
    ``weighted`` is None the format is inferred from the first data
    line. Vertex ids must be non-negative integers; they are used as-is
    (no compaction), matching how SNAP files number vertices.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    weights: list[float] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(comment):
                continue
            parts = line.split()
            if weighted is None:
                weighted = len(parts) >= 3
            expected = 3 if weighted else 2
            if len(parts) < expected:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected {expected} columns, "
                    f"got {len(parts)}"
                )
            try:
                srcs.append(int(parts[0]))
                dsts.append(int(parts[1]))
                if weighted:
                    weights.append(float(parts[2]))
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: {exc}") from exc
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    data = np.asarray(weights, dtype=np.float64) if weighted else None
    n = num_vertices
    if n is None:
        n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1 if src.size else 0
    coo = COOMatrix(src, dst, data, (n, n))
    label = name if name is not None else os.path.basename(os.fspath(path))
    return Graph(coo, name=label)


def write_edge_list(
    graph: Graph,
    path: str | os.PathLike,
    weighted: bool = True,
    header: Optional[str] = None,
) -> None:
    """Write a graph as a SNAP-style edge-list text file."""
    edges = graph.edges
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# vertices: {graph.num_vertices}\n")
        handle.write(f"# edges: {graph.num_edges}\n")
        if weighted:
            for s, d, w in zip(edges.rows, edges.cols, edges.data):
                handle.write(f"{s}\t{d}\t{w:g}\n")
        else:
            for s, d in zip(edges.rows, edges.cols):
                handle.write(f"{s}\t{d}\n")


def read_matrix_market(
    path: str | os.PathLike, name: Optional[str] = None
) -> Graph:
    """Read a MatrixMarket ``coordinate`` file as a directed graph.

    Supports ``real``/``integer``/``pattern`` fields and the
    ``general``/``symmetric`` symmetry modes (symmetric entries are
    mirrored). Indices are 1-based per the format and converted.
    """
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split()
        if (
            len(header) < 5
            or header[0] != "%%MatrixMarket"
            or header[1].lower() != "matrix"
            or header[2].lower() != "coordinate"
        ):
            raise GraphFormatError(
                f"{path}: not a MatrixMarket coordinate file"
            )
        field = header[3].lower()
        symmetry = header[4].lower()
        if field not in ("real", "integer", "pattern"):
            raise GraphFormatError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise GraphFormatError(
                f"{path}: unsupported symmetry {symmetry!r}"
            )
        line = handle.readline()
        while line.startswith("%"):
            line = handle.readline()
        dims = line.split()
        if len(dims) != 3:
            raise GraphFormatError(f"{path}: malformed size line")
        num_rows, num_cols, nnz = (int(x) for x in dims)
        if num_rows != num_cols:
            raise GraphFormatError(
                f"{path}: adjacency matrix must be square, "
                f"got {num_rows}x{num_cols}"
            )
        srcs = np.empty(nnz, dtype=np.int64)
        dsts = np.empty(nnz, dtype=np.int64)
        weights = np.ones(nnz, dtype=np.float64)
        for i in range(nnz):
            parts = handle.readline().split()
            expected = 2 if field == "pattern" else 3
            if len(parts) < expected:
                raise GraphFormatError(f"{path}: truncated entry {i + 1}")
            srcs[i] = int(parts[0]) - 1
            dsts[i] = int(parts[1]) - 1
            if field != "pattern":
                weights[i] = float(parts[2])
    if symmetry == "symmetric":
        off_diag = srcs != dsts
        mirrored_src = np.concatenate([srcs, dsts[off_diag]])
        mirrored_dst = np.concatenate([dsts, srcs[off_diag]])
        weights = np.concatenate([weights, weights[off_diag]])
        srcs, dsts = mirrored_src, mirrored_dst
    coo = COOMatrix(srcs, dsts, weights, (num_rows, num_rows))
    label = name if name is not None else os.path.basename(os.fspath(path))
    return Graph(coo, name=label)


def write_matrix_market(graph: Graph, path: str | os.PathLike) -> None:
    """Write a graph as a general real MatrixMarket coordinate file."""
    edges = graph.edges
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        handle.write(f"% generated by repro (graph {graph.name})\n")
        n = graph.num_vertices
        handle.write(f"{n} {n} {graph.num_edges}\n")
        for s, d, w in zip(edges.rows, edges.cols, edges.data):
            handle.write(f"{s + 1} {d + 1} {w:g}\n")


def save_store(graph: Graph, path: str | os.PathLike) -> str:
    """Write a graph as a canonical CSR store file; returns its digest.

    The store file is the only on-disk graph container: it reopens as
    zero-copy read-only views via :func:`load_store` and is
    byte-identical for equal graphs on every host (canonical
    little-endian CSR layout, see :mod:`repro.storage.mmap_store`).
    """
    from ..storage.mmap_store import write_graph_file

    csr = graph.csr()
    return write_graph_file(
        os.fspath(path),
        graph.num_vertices,
        csr.indptr,
        csr.indices,
        csr.data,
        name=graph.name,
    )


def load_store(path: str | os.PathLike) -> Graph:
    """Open a CSR store file as a memmap-backed :class:`Graph`.

    Destination ids and weights stay memory-mapped (read-only; shared
    across processes through the page cache); the graph's content
    fingerprint is pre-seeded from the store digest.
    """
    from ..storage.mmap_store import StoredGraph

    return StoredGraph(os.fspath(path)).graph()

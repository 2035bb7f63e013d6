"""Synthetic stand-ins for the paper's evaluation datasets (Table II).

The paper evaluates on six SNAP graphs plus the Netflix rating matrix.
This environment has no network access, so each dataset is replaced by a
seeded R-MAT (or bipartite Zipf) graph with the same vertex/edge counts.
Three profiles control scale:

* ``tiny``   — a few hundred edges; unit tests.
* ``bench``  — default; full scale for the small graphs, the three
  largest scaled down so a laptop-class benchmark run stays in minutes
  (divisors recorded per dataset and reported by the harness).
* ``full``   — the paper's published sizes.

The R-MAT parameters (a=0.57, b=c=0.19) are the Graph500 defaults, which
give degree skew comparable to SNAP social graphs; every generator is
deterministic in the dataset's fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from ..errors import DatasetError
from .generators import bipartite_ratings, degree_sorted_relabel, rmat
from .graph import BipartiteGraph, Graph

PROFILES = ("tiny", "bench", "full")


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry for one evaluation dataset."""

    key: str
    full_name: str
    description: str
    vertices: int
    edges: int
    seed: int
    #: scale divisor per profile (vertices and edges divided by this)
    profile_divisors: Dict[str, int]
    bipartite: bool = False
    items: int = 0  # only for bipartite datasets
    #: item-count divisor per profile (bipartite only). Items scale
    #: less aggressively than users so the rating-matrix density stays
    #: at the real dataset's (Netflix: ~1.16 %).
    item_divisors: Optional[Dict[str, int]] = None

    def sizes(self, profile: str) -> Tuple[int, int]:
        """(vertices, edges) after applying the profile divisor."""
        if profile not in PROFILES:
            raise DatasetError(
                f"unknown profile {profile!r}; expected one of {PROFILES}"
            )
        div = self.profile_divisors[profile]
        return max(self.vertices // div, 64), max(self.edges // div, 128)


def _spec(
    key: str,
    full_name: str,
    description: str,
    vertices: int,
    edges: int,
    seed: int,
    bench_divisor: int = 1,
    tiny_divisor: int = 512,
    bipartite: bool = False,
    items: int = 0,
) -> DatasetSpec:
    return DatasetSpec(
        key=key,
        full_name=full_name,
        description=description,
        vertices=vertices,
        edges=edges,
        seed=seed,
        profile_divisors={"tiny": tiny_divisor, "bench": bench_divisor, "full": 1},
        bipartite=bipartite,
        items=items,
    )


#: Table II of the paper, with per-profile scaling. Keys follow the
#: paper's dataset abbreviations.
DATASETS: Dict[str, DatasetSpec] = {
    spec.key: spec
    for spec in (
        _spec("WV", "WikiVote", "Wikipedia voting data", 7_000, 103_000, 11),
        _spec("SD", "Slashdot", "Slashdot Zoo social network", 82_000, 948_000, 13),
        _spec("AZ", "Amazon", "Amazon co-purchasing network", 262_000, 1_200_000, 17),
        _spec(
            "WG",
            "WebGoogle",
            "Web graph from Google",
            880_000,
            5_100_000,
            19,
            bench_divisor=4,
        ),
        _spec(
            "LJ",
            "LiveJournal",
            "LiveJournal social network",
            4_800_000,
            69_000_000,
            23,
            bench_divisor=48,
            tiny_divisor=65_536,
        ),
        _spec(
            "OR",
            "Orkut",
            "Orkut social network",
            3_000_000,
            106_000_000,
            29,
            bench_divisor=64,
            tiny_divisor=131_072,
        ),
        DatasetSpec(
            key="NF",
            full_name="Netflix",
            description="Netflix movie user ratings",
            vertices=480_000,
            edges=99_000_000,
            seed=31,
            # Ratings scale by 200x (99M -> ~495k), users by 20x and
            # items by 10x, preserving the real ~1.16 % matrix density.
            profile_divisors={"tiny": 8_192, "bench": 200, "full": 1},
            bipartite=True,
            items=17_800,
            item_divisors={"tiny": 256, "bench": 10, "full": 1},
        ),
    )
}

#: Datasets used for the PageRank/BFS/SSSP figures, in the paper's
#: plotting order (SD, LJ, WV, WG, AZ, OR for Figures 11/12/15/16).
FIGURE_ORDER = ("SD", "LJ", "WV", "WG", "AZ", "OR")


def _lookup(key: str) -> DatasetSpec:
    try:
        return DATASETS[key.upper()]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {key!r}; known: {sorted(DATASETS)}"
        ) from None


def synthesize_dataset(
    key: str, profile: str = "bench"
) -> Graph | BipartiteGraph:
    """Build the synthetic stand-in for dataset ``key`` from its seed.

    The uncached generator behind :func:`load_dataset` and
    :meth:`repro.storage.mmap_store.MmapStore.dataset`; deterministic
    for a given (key, profile).
    """
    spec = _lookup(key)
    vertices, edges = spec.sizes(profile)
    name = f"{spec.key}-{profile}"
    if spec.bipartite:
        edge_div = spec.profile_divisors[profile]
        item_div = (spec.item_divisors or {}).get(profile, edge_div)
        # user_div x item_div == edge_div keeps the rating-matrix
        # density at the real dataset's value.
        user_div = max(edge_div // item_div, 1)
        users = max(spec.vertices // user_div, 64)
        items = max(spec.items // item_div, 16)
        ratings = max(min(spec.edges // edge_div, users * items // 2), 128)
        return bipartite_ratings(
            num_users=users,
            num_items=items,
            num_ratings=ratings,
            seed=spec.seed,
            name=name,
        )
    # Cap the edge request below what a simple digraph of this size can
    # actually hold (generators reject impossible densities).
    edges = min(edges, vertices * (vertices - 1) // 2)
    # a=0.8 concentrates edges the way SNAP crawl-ordered graphs do:
    # the resulting 16x16 tile profile (~90 % of non-empty tiles at
    # <= 10 % density, dense/sparse write ratio in the 25-55x band)
    # matches the paper's Section II-C measurements.
    graph = rmat(
        vertices, edges, a=0.80, b=0.08, c=0.08, seed=spec.seed, name=name,
    )
    # Degree-sorted ids reproduce SNAP-like tile locality (see
    # generators.degree_sorted_relabel).
    return degree_sorted_relabel(graph)


@lru_cache(maxsize=32)
def load_dataset(key: str, profile: str = "bench") -> Graph | BipartiteGraph:
    """The synthetic stand-in for dataset ``key``.

    Returns a :class:`Graph`, or a :class:`BipartiteGraph` for the
    Netflix stand-in. Deterministic for a given (key, profile), and
    cached: callers receive a shared instance and must not mutate it.

    Square stand-ins come from the mmap CSR store (``$REPRO_STORE_DIR``
    or ``~/.cache/repro/store``): the first call per (key, profile) on a
    host synthesizes and stores the graph, every later call — in this
    or any other process — opens read-only memmap views over the same
    file. An unusable store degrades to the in-memory build. Netflix
    stays in memory: collaborative filtering needs the
    :class:`BipartiteGraph` shape, which the square store does not keep.
    """
    spec = _lookup(key)
    if spec.bipartite:
        return synthesize_dataset(spec.key, profile)
    from ..storage.mmap_store import dataset_tag, get_or_build

    return get_or_build(
        dataset_tag(spec.key, profile),
        lambda: synthesize_dataset(spec.key, profile),
    )

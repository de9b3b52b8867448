"""Seeded graph strategies for the differential fuzzer.

Each strategy maps ``(rng, max_edges)`` to a *raw* edge array — possibly
containing duplicates, reversed pairs, and self-loops, because the cleaning
pipeline is part of the system under test.  The mix is chosen to hit the
failure surfaces of the studied kernels:

* power-law and R-MAT graphs drive workload imbalance and deep hash chains;
* stars and overlapping cliques are the degenerate shapes where
  orientation and granularity switches (Bisson's degree switch, TRUST's
  1024/32 heuristic, GroupTC's chunking) change code paths;
* duplicate-heavy lists stress deduplication and idempotence;
* bucket-collider graphs place every clique vertex id in the same
  32-bucket hash class and on bitmap word boundaries, and keep those ids
  through cleaning.

``generate_case(seed, max_edges)`` is fully deterministic: the seed picks
the strategy round-robin and feeds a ``numpy`` PCG64 generator, so any
failing seed replays bit-identically on another machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import generators as gen

__all__ = [
    "FuzzCase",
    "ClusterCase",
    "PARTITION_COUNTS",
    "STRATEGIES",
    "generate_case",
    "generate_cluster_case",
    "strategy_names",
]


def _empty() -> np.ndarray:
    return np.empty((0, 2), dtype=np.int64)


def power_law(rng: np.random.Generator, max_edges: int) -> np.ndarray:
    n = int(rng.integers(4, 80))
    target = int(rng.integers(1, max(2, max_edges)))
    exponent = float(rng.uniform(1.8, 2.9))
    return gen.chung_lu(n, target, exponent=exponent, seed=int(rng.integers(2**31)))


def rmat(rng: np.random.Generator, max_edges: int) -> np.ndarray:
    scale = int(rng.integers(2, 7))
    target = int(rng.integers(1, max(2, max_edges)))
    a = float(rng.uniform(0.4, 0.7))
    b = c = (1.0 - a) / 2.6
    return gen.rmat(scale, target, a=a, b=b, c=c, seed=int(rng.integers(2**31)))


def adversarial_star(rng: np.random.Generator, max_edges: int) -> np.ndarray:
    """A dominant hub whose leaves hide a small clique (hub triangles)."""
    leaves = int(rng.integers(2, max(3, min(60, max_edges))))
    hub = np.stack(
        [np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1, dtype=np.int64)], axis=1
    )
    k = int(rng.integers(0, min(7, leaves) + 1))
    if k >= 2:
        members = rng.choice(np.arange(1, leaves + 1), size=k, replace=False).astype(np.int64)
        iu, iv = np.triu_indices(k, k=1)
        clique = np.stack([members[iu], members[iv]], axis=1)
        hub = np.concatenate([hub, clique], axis=0)
    return hub[: max_edges]


def overlapping_cliques(rng: np.random.Generator, max_edges: int) -> np.ndarray:
    """Several cliques sharing vertices: dense, high-support edge lists."""
    parts: list[np.ndarray] = []
    budget = max_edges
    base = 0
    for _ in range(int(rng.integers(1, 5))):
        k = int(rng.integers(3, 9))
        if k * (k - 1) // 2 > budget:
            break
        ids = base + rng.permutation(k + int(rng.integers(0, 3)))[:k].astype(np.int64)
        iu, iv = np.triu_indices(k, k=1)
        parts.append(np.stack([ids[iu], ids[iv]], axis=1))
        budget -= k * (k - 1) // 2
        base += int(rng.integers(1, k))  # overlap: next clique starts inside this one
    return np.concatenate(parts, axis=0) if parts else _empty()


def duplicate_heavy(rng: np.random.Generator, max_edges: int) -> np.ndarray:
    """A small base graph drowned in duplicates, flips, and self-loops."""
    n = int(rng.integers(3, 16))
    base_m = int(rng.integers(1, max(2, min(3 * n, max_edges // 2))))
    base = rng.integers(0, n, size=(base_m, 2)).astype(np.int64)
    picks = rng.integers(0, base_m, size=max(0, max_edges - base_m))
    dup = base[picks]
    flip_mask = rng.random(dup.shape[0]) < 0.5
    dup[flip_mask] = dup[flip_mask][:, ::-1]
    loops = np.repeat(rng.integers(0, n, size=int(rng.integers(0, 4))), 2).reshape(-1, 2)
    return np.concatenate([base, dup, loops.astype(np.int64)], axis=0)[:max_edges]


def bucket_collider(rng: np.random.Generator, max_edges: int) -> np.ndarray:
    """A clique whose vertex ids are all congruent mod 32: worst-case hash
    chains and ids that sit exactly on 32-bit bitmap word boundaries.

    Cleaning compacts vertex ids, so every other id below the largest
    member hangs off the next member above it.  Compaction is then the
    identity and the kernels see the collision.  ``k`` shrinks until clique
    plus filler fit ``max_edges`` (below ~32 edges the tail is cut and the
    ids compact).
    """
    k = int(rng.integers(2, 12))
    offset = int(rng.integers(0, 32))
    # other ids below the top member: 31 * (k - 1) + offset
    while k > 2 and k * (k - 1) // 2 + 31 * (k - 1) + offset > max_edges:
        k -= 1
    ids = np.arange(k, dtype=np.int64) * 32 + offset
    iu, iv = np.triu_indices(k, k=1)
    keep = rng.random(iu.size) < float(rng.uniform(0.3, 1.0))
    keep[iv == iu + 1] = True  # a path through the members keeps every one
    clique = np.stack([ids[iu[keep]], ids[iv[keep]]], axis=1)
    # Degree one makes the filler triangle-free, and every edge's larger
    # end stays in the members' residue class.
    others = np.setdiff1d(np.arange(ids[-1], dtype=np.int64), ids)
    filler = np.stack([others, ids[np.searchsorted(ids, others)]], axis=1)
    return np.concatenate([clique, filler])[:max_edges]


def sparse_noise(rng: np.random.Generator, max_edges: int) -> np.ndarray:
    """Uniform random pairs over a small id range (includes degenerate shapes)."""
    n = int(rng.integers(1, 24))
    m = int(rng.integers(0, max(1, min(3 * n, max_edges))))
    return rng.integers(0, n, size=(m, 2)).astype(np.int64)


#: Registry, round-robined by seed so every fuzz batch covers every family.
STRATEGIES: tuple[tuple[str, object], ...] = (
    ("power-law", power_law),
    ("rmat", rmat),
    ("adversarial-star", adversarial_star),
    ("overlapping-cliques", overlapping_cliques),
    ("duplicate-heavy", duplicate_heavy),
    ("bucket-collider", bucket_collider),
    ("sparse-noise", sparse_noise),
)


def strategy_names() -> list[str]:
    return [name for name, _ in STRATEGIES]


@dataclass(frozen=True)
class FuzzCase:
    """One generated fuzz input (raw, pre-cleaning edge list)."""

    seed: int
    strategy: str
    edges: np.ndarray


def generate_case(seed: int, max_edges: int = 400) -> FuzzCase:
    """Deterministically generate the fuzz case for one seed."""
    name, fn = STRATEGIES[seed % len(STRATEGIES)]
    rng = np.random.default_rng(seed)
    edges = np.asarray(fn(rng, max_edges), dtype=np.int64)
    if edges.size == 0:
        edges = _empty()
    return FuzzCase(seed=seed, strategy=name, edges=edges[:max_edges])


#: Partition counts the cluster fuzz cases cycle through — the curve's
#: 1/2/4/8/16 plus 3 (a non-power-of-two hash grid).  Combined with the
#: small fuzz graphs this includes the degenerate shapes by construction:
#: more partitions than vertices, and empty partitions.
PARTITION_COUNTS = (1, 2, 3, 4, 8, 16)


@dataclass(frozen=True)
class ClusterCase:
    """One partitioner fuzz input: a fuzz graph plus a partitioning config."""

    case: FuzzCase
    parts: int
    partitioner: str
    partition_seed: int


def generate_cluster_case(seed: int, max_edges: int = 400) -> ClusterCase:
    """Deterministic cluster fuzz case: graph strategy × partition count.

    Extends the :data:`STRATEGIES` round-robin with a second axis: the
    same seed also picks a partition count from :data:`PARTITION_COUNTS`,
    a partitioner, and the hash seed — so a failing seed reproduces the
    full partitioned configuration bit-identically.
    """
    rng = np.random.default_rng(seed ^ 0xC1A5)
    return ClusterCase(
        case=generate_case(seed, max_edges),
        parts=PARTITION_COUNTS[seed % len(PARTITION_COUNTS)],
        partitioner="edge1d" if (seed // len(PARTITION_COUNTS)) % 2 else "hash2d",
        partition_seed=int(rng.integers(2**31)),
    )

"""Machine-independent work-efficiency metrics for the studied algorithms.

Wall-clock comparisons between intersection strategies conflate the
algorithm with the device model, the scheduler, and the cache hierarchy.
This module provides the orthogonal axis: **how many element comparisons
does each algorithm perform on a given graph**, measured against the
instance-optimal lower bound for comparison-based set intersection.

Lower bound
-----------
Any comparison-based intersection of two sorted sets ``A`` and ``B`` must
inspect at least ``min(|A|, |B|)`` elements (every member of the shorter
list has to be ruled in or out).  Summing over the oriented edge list gives
the instance lower bound used throughout::

    LB(G) = sum over oriented edges (u, v) of min(d+(u), d+(v))

``comparisons / LB`` is then a dimensionless *work ratio*: how much the
algorithm over-searches relative to an instance-optimal edge iterator.

Counting rules
--------------
Every model counts **element comparisons** — probes of neighbour-list
values against neighbour-list values (merge steps, binary-search probes,
hash-slot inspections, bitmap bit tests).  Index arithmetic, prefix-scan
bookkeeping, and bucket-fill loads are excluded.  Every count is exact:
it equals a per-edge replay of the kernel's control flow, which
``tests/test_work_metrics.py`` runs as the reference.

The models never replay a search.  They read one **rank index** per graph
(:class:`_RankIndex`, built on first use and cached on the frozen CSR).
For every oriented edge ``(u, v)`` with ``A = N+(u)`` and ``B = N+(v)`` it
holds the rank (count of smaller elements) and the membership of each
``x in A`` within ``B`` and of each ``y in B`` within ``A``, from two global
``searchsorted`` calls over the row-major encoding of the CSR.

CSR rows are strictly increasing, so comparing a key with a table element
is decided by positions alone: ``table[mid] < key`` iff ``mid < rank`` and
``table[mid] == key`` iff the key is a hit at ``mid == rank``.  The path of
the kernels' early-exit ``while lo < hi`` binary search therefore depends
only on the table length, the key's rank and whether it hits, and
``mid = (lo + hi) >> 1`` makes every sub-interval search like a fresh one
of its own length.  :func:`_probe_depths` tabulates the probe count of each
outcome by that recursion, and a model sums table lookups.  A lower-bound
search without early exit (Green's diagonal search) follows the same path
as an early-exit search that misses at the answer's offset, so it reads the
miss half of the same table.

* ``Polak`` — closed form: the two-pointer merge of rows ``A``/``B``
  performs ``|{a <= c}| + |{b <= c}| - |A ∩ B|`` iterations, where
  ``c = min(max A, max B)``; the three terms are ranks and hits of the
  row maxima.
* ``Green`` — per edge and lane, the merge-path crossing of the lane's
  diagonal ``d`` is ``i(d) = |{k : k + rank_B(a_k) < d}|`` (the kernel
  takes ``a`` first on ties), and the diagonal search costs the miss-table
  entry of its interval length at offset ``i(d)``.  The budgeted slice
  merges take one iteration per merged element before the first list runs
  out, except the ``b`` half of an equal pair whose ``a`` half the same
  lane consumed: it is skipped unless a lane starts exactly on it.
* ``TriCore`` / ``Fox`` — early-exit binary search of every query
  (shorter list) into its table (longer list); the two differ only in the
  tie rule when ``d(u) == d(v)``.
* ``GroupTC`` — early-exit binary search with the u-row-tail table and the
  1:32 flip rule; a rank in the tail is the rank in ``A`` minus the tail's
  offset.  The kernel's *memo-resume* optimisation (which narrows a search
  using the previous hit of the same thread) is deliberately not modelled:
  it depends on the work-list schedule, and the metric must stay a pure
  function of the graph.  The owning-edge search over the shared prefix
  array compares scan counters, not elements, and is excluded.
* ``Hu`` — early-exit binary search of every 2-hop neighbour into the
  root's row.
* ``H-INDEX`` / ``TRUST`` — hash-probe counts.  The strided build inserts
  each sorted row in ascending order, so a bucket's slot order is
  ascending; a hit inspects its smaller same-bucket elements plus itself,
  a miss inspects the whole bucket.  Per bucket count the index keeps each
  entry's slot within its bucket (from one stable sort by ``(row,
  bucket)``) and each bucket's fill; a hit's rank is its CSR position.
* ``Bisson`` — bitmap bit tests over the full symmetric adjacency:
  ``sum over vertices w of d_full(w)^2``.

Hash and bitmap algorithms are not comparison-based, so their work ratio
can legitimately drop below 1 — the lower bound is a yardstick, not a
floor, for those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "WorkEfficiency",
    "WORK_MODELS",
    "comparisons_performed",
    "lower_bound_comparisons",
    "work_efficiency",
]

_I64 = np.int64
_I32 = np.int32

#: Green runs one warp per edge; each lane owns 1/32 of the merge path.
_GREEN_LANES = 32


# ---------------------------------------------------------------------------
# probe-depth tables


def _probe_depths(lengths) -> tuple[np.ndarray, np.ndarray]:
    """``(table, base)``: probes of the kernels' binary search, per outcome.

    A ``while lo < hi`` search with ``mid = (lo + hi) >> 1`` and an early
    exit on equality, over a strictly increasing table of length ``L``, for
    a key of rank ``r`` costs ``table[base[L] + 2 * r + hit]``.  Every
    length in ``lengths`` gets all ``2L + 1`` outcomes (ranks ``0..L`` on a
    miss, ``0..L-1`` on a hit); other lengths get none, so the table stays
    proportional to the searches that use it.
    """
    wanted = {int(x) for x in np.flatnonzero(np.bincount(lengths))}
    need, stack = {0}, list(wanted)
    while stack:  # the sub-interval lengths every wanted length recurses into
        length = stack.pop()
        if length not in need:
            need.add(length)
            stack += [length >> 1, length - (length >> 1) - 1]
    miss = {0: np.zeros(1, dtype=_I64)}
    hit = {0: np.zeros(0, dtype=_I64)}
    for length in sorted(need - {0}):
        mid = length >> 1
        right = length - mid - 1
        # The first probe is table[mid]; smaller ranks continue left in an
        # interval of length mid, larger ones right in one of length right.
        miss[length] = 1 + np.concatenate([miss[mid], miss[right]])
        hit[length] = 1 + np.concatenate([hit[mid], [0], hit[right]])
    base = np.zeros(max(wanted, default=0) + 1, dtype=_I64)
    parts, offset = [], 0
    for length in sorted(wanted):
        base[length] = offset
        both = np.zeros(2 * length + 1, dtype=_I64)
        both[0::2] = miss[length]
        both[1::2] = hit[length]
        parts.append(both)
        offset += both.shape[0]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=_I64), base


def _search_probes(lengths, ranks, hits) -> int:
    """Total probes of early-exit searches with these outcomes."""
    if lengths.shape[0] == 0:
        return 0
    table, base = _probe_depths(lengths)
    return int(table[base[lengths] + 2 * ranks.astype(_I64) + hits].sum())


# ---------------------------------------------------------------------------
# the shared per-graph rank index


@dataclass(frozen=True)
class _Side:
    """Every key of one side of every oriented edge, ranked in the other.

    Side ``a`` lists ``N(u)`` per edge ``(u, v)`` ranked in ``N(v)``; side
    ``b`` lists ``N(v)`` ranked in ``N(u)``.  Entries of edge ``e`` sit at
    ``off[e]:off[e + 1]`` in row order.
    """

    off: np.ndarray  #: (m + 1,) int64 segment offsets
    seg: np.ndarray  #: int32 edge id of each entry
    rank: np.ndarray  #: int32 count of smaller elements in the other row
    hit: np.ndarray  #: bool, the key occurs in the other row
    key_shift: np.ndarray  #: (m,) int64 CSR position of entry j is j + key_shift[seg[j]]
    table_rows: np.ndarray  #: (m,) the other row of each edge

    def positions(self, idx: np.ndarray) -> np.ndarray:
        """CSR positions of the keys at entries ``idx``."""
        return idx + self.key_shift[self.seg[idx]]


class _RankIndex:
    """Per-graph facts every work model reads; built once per CSR."""

    def __init__(self, csr: CSRGraph) -> None:
        self.csr = csr
        self.eu = csr.edge_sources()
        self.ev = csr.col
        deg = csr.degrees
        self.du = deg[self.eu]
        self.dv = deg[self.ev]
        self.lower_bound = int(np.minimum(self.du, self.dv).sum())
        self._hash: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def of(cls, csr: CSRGraph) -> "_RankIndex":
        """The index of ``csr``, cached on the frozen graph."""
        cached = csr.__dict__.get("_rank_index")
        if cached is None:
            cached = cls(csr)
            object.__setattr__(csr, "_rank_index", cached)
        return cached

    @cached_property
    def _encoded(self) -> np.ndarray:
        """Globally sorted ``u * n + x`` encoding of every CSR entry."""
        n = self.csr.n
        if n and n * n > np.iinfo(_I64).max:  # pragma: no cover
            raise OverflowError("graph too large for encoded row queries")
        return self.eu * _I64(n) + self.ev

    def _side(self, key_rows, table_rows, counts) -> _Side:
        csr = self.csr
        off = np.zeros(csr.m + 1, dtype=_I64)
        np.cumsum(counts, out=off[1:])
        seg = np.repeat(np.arange(csr.m, dtype=_I32), counts)
        key_shift = csr.row_ptr[key_rows] - off[:-1]
        keys = csr.col[np.arange(seg.shape[0], dtype=_I64) + key_shift[seg]]
        needle = table_rows[seg] * _I64(csr.n) + keys
        found = np.searchsorted(self._encoded, needle)
        hit = np.zeros(needle.shape[0], dtype=bool)
        inside = found < csr.m
        hit[inside] = self._encoded[found[inside]] == needle[inside]
        rank = found - csr.row_ptr[table_rows][seg]
        return _Side(off, seg, rank.astype(_I32), hit, key_shift, table_rows)

    @cached_property
    def a(self) -> _Side:
        """``N(u)`` of every edge ``(u, v)``, ranked in ``N(v)``."""
        return self._side(self.eu, self.ev, self.du)

    @cached_property
    def b(self) -> _Side:
        """``N(v)`` of every edge ``(u, v)``, ranked in ``N(u)``."""
        return self._side(self.ev, self.eu, self.dv)

    def hash_slots(self, num_buckets: int) -> tuple[np.ndarray, np.ndarray]:
        """``(slot, fill)`` of the bucketed hash of every row.

        ``slot[p]`` is how many same-bucket elements precede CSR entry
        ``p`` in its row; ``fill[row * num_buckets + bucket]`` is the size
        of that bucket.
        """
        cached = self._hash.get(num_buckets)
        if cached is None:
            csr = self.csr
            code = self.eu * _I64(num_buckets) + self.ev % num_buckets
            # A stable sort keeps each bucket's elements in row (ascending) order.
            order = np.argsort(code, kind="stable")
            fill = np.bincount(code, minlength=csr.n * num_buckets)
            first = np.cumsum(fill) - fill
            slot = np.empty(csr.m, dtype=_I32)
            slot[order] = np.arange(csr.m, dtype=_I64) - first[code[order]]
            cached = self._hash[num_buckets] = (slot, fill.astype(_I32))
        return cached


# ---------------------------------------------------------------------------
# lower bound


def lower_bound_comparisons(csr: CSRGraph) -> int:
    """Instance-optimal comparison lower bound over the oriented edges."""
    return _RankIndex.of(csr).lower_bound


# ---------------------------------------------------------------------------
# merge models


def _polak_comparisons(csr: CSRGraph) -> int:
    ix = _RankIndex.of(csr)
    a, b = ix.a, ix.b
    live = ix.dv > 0
    # |{a <= max B}| and |{b <= max A}| from the ranks of the row maxima;
    # one of them is the full row, whichever maximum is smaller.
    last_a = a.off[1:][live] - 1
    last_b = b.off[1:][live] - 1
    cu = b.rank[last_b].astype(_I64) + b.hit[last_b]
    cv = a.rank[last_a].astype(_I64) + a.hit[last_a]
    return int(cu.sum() + cv.sum()) - int(np.count_nonzero(a.hit))


def _green_comparisons(csr: CSRGraph) -> int:
    """Merge Path, all 32 lanes: diagonal searches plus slice merges."""
    ix = _RankIndex.of(csr)
    if not (ix.dv > 0).any():
        return 0
    a, b = ix.a, ix.b
    la, lb = ix.du, ix.dv
    total = la + lb
    # Merge-path positions: a_k sits at k + rank_B(a_k) in the merge of
    # edge e, which occupies [a.off[e] + b.off[e], ...) of one global
    # sequence; a running count of A marks gives every crossing i(d).
    marks = np.zeros(a.seg.shape[0] + b.seg.shape[0] + 1, dtype=_I32)
    marks[np.arange(a.seg.shape[0], dtype=_I64) + b.off[:-1][a.seg] + a.rank + 1] = 1
    crossings = np.cumsum(marks, dtype=_I64)
    origin = a.off[:-1] + b.off[:-1]

    # --- diagonal search: a lower-bound search of each lane's crossing.
    lanes = np.arange(_GREEN_LANES, dtype=_I64)
    diag = (total[:, None] * lanes) // _GREEN_LANES
    lo = np.maximum(diag - lb[:, None], 0)
    length = np.minimum(diag, la[:, None]) - lo
    offset = crossings[origin[:, None] + diag] - a.off[:-1, None] - lo
    table, base = _probe_depths(length.ravel())
    probes = int(table[base[length] + 2 * offset].sum())

    # --- slice merges: one iteration per merged position before the
    # first list runs out ...
    live = lb > 0
    last_a = a.off[1:][live] - 1
    last_b = b.off[1:][live] - 1
    exhausted = np.minimum(
        la[live] + a.rank[last_a], lb[live] + b.rank[last_b] + b.hit[last_b]
    )
    probes += int(exhausted.sum())
    # ... less the b half of each equal pair, consumed with its a half,
    # unless that b opens a lane's slice (its a half closed the previous one).
    stop = np.zeros(csr.m, dtype=_I64)
    stop[live] = exhausted
    paired = np.flatnonzero(b.hit)
    seg = b.seg[paired]
    pos = paired - b.off[:-1][seg] + b.rank[paired] + 1
    span = total[seg]
    lane = (_GREEN_LANES * pos + span - 1) // span
    opens = lane * span < _GREEN_LANES * (pos + 1)
    probes -= int(np.count_nonzero((pos < stop[seg]) & ~opens))
    return probes


# ---------------------------------------------------------------------------
# binary-search models


def _edge_bisect_comparisons(csr: CSRGraph, queries_from_u) -> int:
    """Shorter-list-queries-into-longer-table search, per oriented edge.

    ``queries_from_u`` is the tie rule: which side queries when
    ``d(u) == d(v)`` (TriCore keeps the u side as the table, Fox as the
    queries).
    """
    ix = _RankIndex.of(csr)
    u_queries = (ix.du <= ix.dv) if queries_from_u else (ix.du < ix.dv)
    total = 0
    for side, edges, table_len in ((ix.a, u_queries, ix.dv), (ix.b, ~u_queries, ix.du)):
        idx = np.flatnonzero(edges[side.seg])
        total += _search_probes(table_len[side.seg[idx]], side.rank[idx], side.hit[idx])
    return total


def _tricore_comparisons(csr: CSRGraph) -> int:
    return _edge_bisect_comparisons(csr, queries_from_u=False)


def _fox_comparisons(csr: CSRGraph) -> int:
    return _edge_bisect_comparisons(csr, queries_from_u=True)


def _grouptc_comparisons(csr: CSRGraph) -> int:
    from ..algorithms.grouptc import FLIP_RATIO

    ix = _RankIndex.of(csr)
    a, b = ix.a, ix.b
    # Edge e = (u, v) sits at position k_e of N(u); its table or query list
    # on the u side is the tail of N(u) after v.
    tail_at = np.arange(csr.m, dtype=_I64) - csr.row_ptr[ix.eu] + 1
    tail_len = ix.du - tail_at
    live = (tail_len > 0) & (ix.dv > 0)
    flip = live & (ix.dv * FLIP_RATIO < tail_len)
    # Flipped: the tail queries N(v).
    idx = np.flatnonzero(flip[a.seg])
    seg = a.seg[idx]
    idx = idx[idx - a.off[:-1][seg] >= tail_at[seg]]
    total = _search_probes(ix.dv[a.seg[idx]], a.rank[idx], a.hit[idx])
    # Otherwise N(v) queries the tail: ranks shift by the tail's offset.
    idx = np.flatnonzero((live & ~flip)[b.seg])
    seg = b.seg[idx]
    rank = b.rank[idx] - tail_at[seg]
    hit = b.hit[idx] & (rank >= 0)
    return total + _search_probes(tail_len[seg], np.maximum(rank, 0), hit)


def _hu_comparisons(csr: CSRGraph) -> int:
    # Every 2-hop neighbour w of every wedge (u, v) is searched in N(u).
    ix = _RankIndex.of(csr)
    b = ix.b
    return _search_probes(ix.du[b.seg], b.rank, b.hit)


# ---------------------------------------------------------------------------
# hash models


def _hash_probes(ix: _RankIndex, side: _Side, edges, num_buckets: int) -> int:
    """Slot inspections of every key of ``side`` on the ``edges`` mask,
    each probing the bucketed hash of its edge's other row."""
    idx = np.flatnonzero(edges[side.seg])
    if idx.shape[0] == 0:
        return 0
    slot, fill = ix.hash_slots(num_buckets)
    seg = side.seg[idx]
    hit = side.hit[idx]
    # A hit inspects its smaller same-bucket elements plus itself; its rank
    # in the table row is its CSR position there.
    found = ix.csr.row_ptr[side.table_rows[seg[hit]]] + side.rank[idx[hit]]
    total = int(slot[found].sum()) + found.shape[0]
    # A miss inspects the whole bucket of the table row.
    miss = ~hit
    keys = ix.csr.col[side.positions(idx[miss])]
    bucket = side.table_rows[seg[miss]] * _I64(num_buckets) + keys % num_buckets
    return total + int(fill[bucket].sum())


def _hindex_comparisons(csr: CSRGraph) -> int:
    from ..algorithms.hindex import NUM_BUCKETS

    ix = _RankIndex.of(csr)
    live = ix.dv > 0
    hash_u = ix.du <= ix.dv  # shorter list is hashed, longer list queries
    return _hash_probes(ix, ix.b, live & hash_u, NUM_BUCKETS) + _hash_probes(
        ix, ix.a, live & ~hash_u, NUM_BUCKETS
    )


def _trust_comparisons(csr: CSRGraph) -> int:
    from ..algorithms.trust import BLOCK_DEGREE, MIN_DEGREE

    ix = _RankIndex.of(csr)
    du = ix.du
    # N(u) is hashed once per tier vertex; every 2-hop neighbour
    # x in N(w), w in N(u) probes it.
    return _hash_probes(
        ix, ix.b, (du >= MIN_DEGREE) & (du <= BLOCK_DEGREE), 32
    ) + _hash_probes(ix, ix.b, du > BLOCK_DEGREE, 1024)


# ---------------------------------------------------------------------------
# bitmap model


def _bisson_comparisons(csr: CSRGraph) -> int:
    """Bit tests over the full symmetric adjacency: sum of d_full(w)^2."""
    if csr.m == 0:
        return 0
    deg_full = csr.degrees.astype(_I64)
    if csr.is_oriented():
        deg_full = deg_full + np.bincount(csr.col, minlength=csr.n)
    return int((deg_full.astype(np.float64) ** 2).sum())


# ---------------------------------------------------------------------------
# public API

WORK_MODELS = {
    "polak": _polak_comparisons,
    "green": _green_comparisons,
    "tricore": _tricore_comparisons,
    "fox": _fox_comparisons,
    "grouptc": _grouptc_comparisons,
    "hu": _hu_comparisons,
    "hindex": _hindex_comparisons,
    "h-index": _hindex_comparisons,
    "trust": _trust_comparisons,
    "bisson": _bisson_comparisons,
}


def comparisons_performed(csr: CSRGraph, algorithm: str) -> int:
    """Element comparisons ``algorithm`` performs on ``csr`` (exact model)."""
    try:
        model = WORK_MODELS[algorithm.lower()]
    except KeyError:
        raise KeyError(
            f"no work model for {algorithm!r}; known: "
            f"{sorted(set(WORK_MODELS) - {'h-index'})}"
        ) from None
    return int(model(csr))


@dataclass(frozen=True)
class WorkEfficiency:
    """One algorithm's comparison count against the instance lower bound."""

    algorithm: str
    comparisons: int
    lower_bound: int

    @property
    def work_ratio(self) -> float:
        """``comparisons / lower_bound`` (1.0 for the empty graph)."""
        if self.lower_bound > 0:
            return self.comparisons / self.lower_bound
        return 1.0 if self.comparisons == 0 else float("inf")


def work_efficiency(csr: CSRGraph, algorithm: str) -> WorkEfficiency:
    """Comparisons performed, lower bound, and their ratio for one cell.

    A pure function of the graph: identical under the event and vectorized
    engines, under batched and per-launch replay, and across devices.
    """
    return WorkEfficiency(
        algorithm=algorithm,
        comparisons=comparisons_performed(csr, algorithm),
        lower_bound=lower_bound_comparisons(csr),
    )

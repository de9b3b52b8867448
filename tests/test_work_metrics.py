"""Work-efficiency metrics: exactness, invariance, and report integration.

Every model in :mod:`repro.analysis.work` is cross-checked against a naive
per-edge reference replay of the kernel's comparison loop on all golden
fixtures, and the metric is asserted to be invariant across engines and
replay batching (it is a pure function of the graph).
"""

import functools

import numpy as np
import pytest

from repro.algorithms.base import algorithm_names
from repro.analysis.work import (
    WORK_MODELS,
    _probe_depths,
    comparisons_performed,
    lower_bound_comparisons,
    work_efficiency,
)
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import clean_edges, symmetrize_edges
from repro.graph.orientation import oriented_csr
from repro.verify.fixtures import GOLDEN_ORDERING, fixture_csr, fixture_edges, fixture_names
from repro.verify.strategies import generate_case

ALGORITHMS = ("Polak", "Green", "TriCore", "Fox", "GroupTC", "Hu", "H-INDEX", "TRUST", "Bisson")


# --- naive references: direct per-edge replays of each kernel's loop -------


def _bisect_probes_ref(table, key):
    lo, hi, probes = 0, len(table), 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        val = int(table[mid])
        if val == key:
            break
        if val < key:
            lo = mid + 1
        else:
            hi = mid
    return probes


def _merge_iters_ref(a, b):
    i = j = iters = 0
    while i < len(a) and j < len(b):
        iters += 1
        if int(a[i]) < int(b[j]):
            i += 1
        elif int(b[j]) < int(a[i]):
            j += 1
        else:
            i += 1
            j += 1
    return iters


def _hash_probes_ref(row, key, buckets):
    same = [int(x) for x in row if int(x) % buckets == key % buckets]
    if key in same:
        return same.index(key) + 1
    return len(same)


def _ref_polak(csr):
    esrc = csr.edge_sources()
    return sum(
        _merge_iters_ref(csr.neighbors(int(esrc[e])), csr.neighbors(int(csr.col[e])))
        for e in range(csr.m)
    )


def _ref_green(csr):
    esrc = csr.edge_sources()
    total = 0
    for e in range(csr.m):
        a = csr.neighbors(int(esrc[e]))
        b = csr.neighbors(int(csr.col[e]))
        la, lb = len(a), len(b)
        if not (la and lb):
            continue
        for lane in range(32):
            dlo = ((la + lb) * lane) // 32
            dhi = ((la + lb) * (lane + 1)) // 32
            lo, hi = max(0, dlo - lb), min(dlo, la)
            while lo < hi:
                mid = (lo + hi) // 2
                total += 1
                if int(a[mid]) <= int(b[dlo - 1 - mid]):
                    lo = mid + 1
                else:
                    hi = mid
            i, j, budget = lo, dlo - lo, dhi - dlo
            while budget > 0 and i < la and j < lb:
                av, bv = int(a[i]), int(b[j])
                total += 1
                if av < bv:
                    i, budget = i + 1, budget - 1
                elif bv < av:
                    j, budget = j + 1, budget - 1
                else:
                    i, j, budget = i + 1, j + 1, budget - 2
    return total


def _ref_edge_bisect(csr, queries_from_u):
    esrc = csr.edge_sources()
    total = 0
    for e in range(csr.m):
        a = csr.neighbors(int(esrc[e]))
        b = csr.neighbors(int(csr.col[e]))
        if not (len(a) and len(b)):
            continue
        if queries_from_u:
            q, t = (a, b) if len(a) <= len(b) else (b, a)
        else:
            q, t = (b, a) if len(a) >= len(b) else (a, b)
        total += sum(_bisect_probes_ref(t, int(k)) for k in q)
    return total


def _ref_grouptc(csr):
    esrc = csr.edge_sources()
    total = 0
    for e in range(csr.m):
        u, v = int(esrc[e]), int(csr.col[e])
        u_tail = csr.col[e + 1 : int(csr.row_ptr[u + 1])]
        v_row = csr.neighbors(v)
        if not (len(u_tail) and len(v_row)):
            continue
        if len(v_row) * 32 < len(u_tail):
            q, t = u_tail, v_row
        else:
            q, t = v_row, u_tail
        total += sum(_bisect_probes_ref(t, int(k)) for k in q)
    return total


def _ref_hu(csr):
    esrc = csr.edge_sources()
    total = 0
    for e in range(csr.m):
        a = csr.neighbors(int(esrc[e]))
        total += sum(
            _bisect_probes_ref(a, int(w)) for w in csr.neighbors(int(csr.col[e]))
        )
    return total


def _ref_hindex(csr):
    esrc = csr.edge_sources()
    total = 0
    for e in range(csr.m):
        u, v = int(esrc[e]), int(csr.col[e])
        du, dv = csr.degree(u), csr.degree(v)
        if not (du and dv):
            continue
        h, q = (u, v) if du <= dv else (v, u)
        row = csr.neighbors(h)
        total += sum(_hash_probes_ref(row, int(k), 32) for k in csr.neighbors(q))
    return total


def _ref_trust(csr):
    esrc = csr.edge_sources()
    total = 0
    for e in range(csr.m):
        u = int(esrc[e])
        d = csr.degree(u)
        if d < 2:
            continue
        buckets = 1024 if d > 100 else 32
        row = csr.neighbors(u)
        total += sum(
            _hash_probes_ref(row, int(k), buckets)
            for k in csr.neighbors(int(csr.col[e]))
        )
    return total


def _ref_bisson(csr):
    from repro.algorithms.bisson import Bisson

    full = Bisson._full_adjacency(csr)
    return sum(
        full.degree(int(w)) for u in range(full.n) for w in full.neighbors(u)
    )


_REFERENCES = {
    "Polak": _ref_polak,
    "Green": _ref_green,
    "TriCore": lambda csr: _ref_edge_bisect(csr, False),
    "Fox": lambda csr: _ref_edge_bisect(csr, True),
    "GroupTC": _ref_grouptc,
    "Hu": _ref_hu,
    "H-INDEX": _ref_hindex,
    "TRUST": _ref_trust,
    "Bisson": _ref_bisson,
}


@pytest.mark.parametrize("fixture", fixture_names())
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_model_matches_naive_reference(algorithm, fixture):
    csr = fixture_csr(fixture)
    assert comparisons_performed(csr, algorithm) == _REFERENCES[algorithm](csr)


# --- graphs beyond the golden fixtures -------------------------------------


def _dense_core():
    """A 50-clique with a sparse fringe: under degree ordering some oriented
    edge has d+(u) + d+(v) >= 96, so Green lanes get merge budgets above 1
    and equal pairs are double-stepped inside a multi-element slice."""
    rng = np.random.default_rng(7)
    iu, iv = np.triu_indices(50, k=1)
    fringe = rng.integers(0, 120, size=(150, 2))
    edges = np.concatenate([np.stack([iu, iv], axis=1), fringe])
    return oriented_csr(clean_edges(edges), ordering=GOLDEN_ORDERING)


def _keep_ids(edges):
    """``u < v`` CSR over the raw vertex ids.  Cleaning compacts ids, which
    would undo a graph built to share one hash-bucket class."""
    edges = np.sort(np.asarray(edges, dtype=np.int64), axis=1)
    return CSRGraph.from_edges(np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0))


def _degree_ties():
    """Circulant graph oriented by id: almost every edge joins two rows of
    equal out-degree, where TriCore and Fox pick opposite query sides and
    H-INDEX's choice of hashed row decides the count (every id is a
    multiple of 32, so each row fills a single hash bucket)."""
    n = 96
    src = np.repeat(np.arange(n), 5)
    dst = (src + np.tile([1, 2, 3, 5, 8], n)) % n
    return _keep_ids(np.stack([src, dst], axis=1) * 32)


def _symmetric():
    """A full (unoriented) adjacency: rows also hold smaller ids, so no model
    may lean on orientation (keys of N(v) can rank before GroupTC's tail)."""
    return CSRGraph.from_edges(symmetrize_edges(fixture_edges("powerlaw-120")))


def _fuzz_case(seed):
    case = generate_case(seed)
    if case.strategy == "bucket-collider":
        return _keep_ids(case.edges)
    return oriented_csr(clean_edges(case.edges), ordering=GOLDEN_ORDERING)


#: bucket-collider is strategy 5: seeds 5 and 12 put every id in one hash
#: bucket class; 0 and 3 are power-law and overlapping-clique shapes.
EXTRA_GRAPHS = {
    "dense-core": _dense_core,
    "degree-ties": _degree_ties,
    "symmetric": _symmetric,
    **{f"fuzz-{seed}": functools.partial(_fuzz_case, seed) for seed in (0, 3, 5, 12)},
}


def test_extra_graphs_reach_their_regimes():
    dense = _dense_core()
    deg = dense.degrees
    assert int((deg[dense.edge_sources()] + deg[dense.col]).max()) >= 96
    ties = _degree_ties()
    deg = ties.degrees
    assert np.count_nonzero(deg[ties.edge_sources()] == deg[ties.col]) > ties.m // 2
    for graph in (ties, _fuzz_case(5), _fuzz_case(12)):
        assert graph.m and len(np.unique(graph.col % 32)) == 1


@pytest.mark.parametrize("graph", sorted(EXTRA_GRAPHS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_model_matches_naive_reference_beyond_fixtures(algorithm, graph):
    csr = EXTRA_GRAPHS[graph]()
    assert comparisons_performed(csr, algorithm) == _REFERENCES[algorithm](csr)


def test_every_registered_algorithm_has_a_model():
    for name in algorithm_names():
        assert name.lower() in WORK_MODELS


def test_unknown_algorithm_raises():
    with pytest.raises(KeyError, match="no work model"):
        comparisons_performed(fixture_csr("wheel-24"), "nope")


@pytest.mark.parametrize("fixture", fixture_names())
def test_lower_bound_and_ratios(fixture):
    csr = fixture_csr(fixture)
    lb = lower_bound_comparisons(csr)
    deg = csr.degrees
    eu, ev = csr.edge_sources(), csr.col
    assert lb == int(np.minimum(deg[eu], deg[ev]).sum())
    # The merge stops only after fully consuming one list, so Polak can
    # never beat the comparison lower bound; hash/bitmap algorithms can.
    we = work_efficiency(csr, "Polak")
    assert we.lower_bound == lb
    assert we.work_ratio >= 1.0
    for algorithm in ALGORITHMS:
        we = work_efficiency(csr, algorithm)
        assert we.comparisons >= 0
        assert we.work_ratio == we.comparisons / lb


def test_metric_invariant_under_engine_and_batching(tmp_path, monkeypatch):
    """The metric is a pure graph function: engines and replay batching
    (which only change *how* counters are reduced) cannot move it."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.gpu.device import get_device
    from repro.gpu.engine import replay_launch_batch, use_engine
    from repro.gpu.trace import get_trace_cache, reset_trace_cache
    from repro.verify.fixtures import GOLDEN_DEVICES

    csr = fixture_csr("star-cliques")
    baseline = {a: work_efficiency(csr, a) for a in ALGORITHMS}
    reset_trace_cache()
    with use_engine("event"):
        assert {a: work_efficiency(csr, a) for a in ALGORITHMS} == baseline
    with use_engine("vectorized"):
        assert {a: work_efficiency(csr, a) for a in ALGORITHMS} == baseline
        # Populate the cache and replay everything batched: still identical.
        from repro.algorithms.base import get_algorithm

        device = get_device(GOLDEN_DEVICES[0])
        get_algorithm("Polak").profile(csr, device=device, max_blocks_simulated=4)
        traces = list(get_trace_cache()._entries.values())
        assert traces
        replay_launch_batch(traces, device)
    assert {a: work_efficiency(csr, a) for a in ALGORITHMS} == baseline
    reset_trace_cache()


def test_run_one_records_work_metrics(tmp_path, monkeypatch):
    """run_one attaches comparisons/work_ratio, identically per engine."""
    from repro.framework.runner import run_one

    recs = {
        engine: run_one("Polak", "As-Caida", engine=engine)
        for engine in ("event", "vectorized")
    }
    for rec in recs.values():
        assert rec.status == "ok"
        assert rec.comparisons and rec.comparisons > 0
        assert rec.work_ratio and rec.work_ratio >= 1.0
    assert recs["event"].comparisons == recs["vectorized"].comparisons
    assert recs["event"].work_ratio == recs["vectorized"].work_ratio


def test_work_report_renders_all_columns():
    """The report exposes both new columns for a small matrix."""
    from repro.framework.compare import run_matrix
    from repro.framework.report import (
        matrix_to_csv,
        render_figure_series,
        render_work_efficiency,
    )

    matrix = run_matrix(["Polak", "TRUST"], ["As-Caida"])
    table = render_work_efficiency(matrix)
    assert "work efficiency" in table and "LB" in table
    for alg in ("Polak", "TRUST"):
        assert alg in table
    fig = render_figure_series(matrix, "work_ratio")
    assert "lower bound" in fig
    header = matrix_to_csv(matrix).splitlines()[0]
    assert "comparisons" in header and "work_ratio" in header


# --- probe-depth tables -----------------------------------------------------


def _diagonal_search_ref(a, b, diag):
    """Green's merge-path diagonal search, replayed: (crossing, probes)."""
    lo, hi, probes = max(0, diag - len(b)), min(diag, len(a)), 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if a[mid] <= b[diag - 1 - mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo, probes


def test_early_exit_table_matches_search_replay():
    table, base = _probe_depths(np.arange(65))
    for length in range(65):
        row = [2 * k for k in range(length)]  # strictly increasing, even
        for rank in range(length + 1):
            # an odd key misses with `rank` smaller entries; an even one hits
            assert table[base[length] + 2 * rank] == _bisect_probes_ref(row, 2 * rank - 1)
            if rank < length:
                assert table[base[length] + 2 * rank + 1] == _bisect_probes_ref(row, 2 * rank)


@pytest.mark.parametrize("start", [0, 3])
def test_lower_bound_table_matches_diagonal_search(start):
    """The miss half of the table is Green's diagonal-search cost: the
    search interval has `length` slots from `start`, and the crossing sits
    `offset` slots into it."""
    table, base = _probe_depths(np.arange(65))
    for length in range(65):
        for offset in range(length + 1):
            # the first start + length merged elements: start + offset
            # small a's, then length - offset small b's
            a = list(range(start + offset)) + [1000 + k for k in range(length - offset)]
            b = [100 + k for k in range(length - offset)] + [2000 + k for k in range(offset)]
            crossing, probes = _diagonal_search_ref(a, b, start + length)
            assert crossing == start + offset
            assert table[base[length] + 2 * offset] == probes


def test_probe_table_covers_only_requested_lengths():
    table, base = _probe_depths(np.array([1000, 3, 1000]))
    assert table.shape[0] == (2 * 3 + 1) + (2 * 1000 + 1)
    assert table[base[1000] + 2 * 500 + 1] == _bisect_probes_ref(list(range(1000)), 500)


# --- run_one integration: failures and time reach the registry -------------


@pytest.fixture
def metrics_on(monkeypatch):
    """A fresh process-wide registry, enabled through configure_metrics."""
    from repro.obs.metrics import METRICS_ENV, MetricsRegistry, configure_metrics, set_metrics

    monkeypatch.setenv(METRICS_ENV, "")  # restored after the test
    old = set_metrics(MetricsRegistry())
    yield configure_metrics(True)
    set_metrics(old)


def test_run_one_counts_work_model_failures(metrics_on, monkeypatch):
    from repro.framework.runner import run_one

    def broken(csr):
        raise RuntimeError("model bug")

    monkeypatch.setitem(WORK_MODELS, "polak", broken)
    rec = run_one("Polak", "As-Caida", max_blocks_simulated=1)
    assert rec.status == "ok"
    assert rec.comparisons is None and rec.work_ratio is None
    assert metrics_on.get("work_metric_failures") == 1


def test_run_one_reports_work_model_time(metrics_on):
    from repro.framework.runner import run_one

    from repro.obs.statsview import render_stats

    rec = run_one("Hu", "As-Caida", max_blocks_simulated=1)
    assert rec.comparisons
    assert metrics_on.get("runner_work_model_s") > 0
    assert metrics_on.get("work_metric_failures") == 0
    assert "work model: " in render_stats(metrics_on.snapshot())

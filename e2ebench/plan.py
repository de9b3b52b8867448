"""Workload definitions and the seeded draw of each run's work.

A workload fixes *what* work a run does (the multiset of matrix cells,
sweep pairs or serve jobs); ``--seed`` only permutes the order in which
that work is issued.  Two different seeds therefore do the same amount of
work, and the same seed always issues it in the same order.
"""

from __future__ import annotations

import random

#: the paper's nine kernels, listed here rather than read from the program's
#: registry so that the benchmark's work cannot change under it.
ALGORITHMS = (
    "Green", "Polak", "Bisson", "Fox", "TriCore", "H-INDEX", "Hu", "TRUST", "GroupTC",
)

#: figure-cold rows: the two smallest small-regime replicas.  A cold unit
#: over them is ~85% trace record, like a first regeneration of a figure.
COLD_ROWS = ("As-Caida", "P2p-Gnutella31")
#: figure-warm rows: large-regime replicas whose warm cells are dominated by
#: the work model.  Twitter and Com-Friendster are left out (seconds per cell
#: in the work model and GBs of RSS each).
WARM_ROWS = ("Soc-Pokec", "Com-Lj")
#: serve-closed jobs: every figure-cold cell, submitted against a warm store.
SERVE_ROWS = COLD_ROWS
#: cluster-sweep (algorithm, row) pairs, each swept over CLUSTER_DEVICES.
CLUSTER_PAIRS = (
    ("TRUST", "Com-Dblp"),
    ("Polak", "Email-EuAll"),
    ("GroupTC", "Soc-Slashdot0922"),
)
CLUSTER_DEVICES = (1, 2, 4, 8, 16)
CLUSTER_JOBS = 2
SERVE_WORKERS = 2
SERVE_CONNECTIONS = 2

#: reduced shapes for the self-test: same code paths, a fraction of the work.
SMOKE = {
    "rows": ("As-Caida",),
    "algorithms": ("Polak", "TRUST"),
    "cluster_pairs": (("TRUST", "As-Caida"),),
    "cluster_devices": (1, 2),
}

WORKLOADS = ("figure-cold", "figure-warm", "serve-closed", "cluster-sweep")


def shape(workload: str, smoke: bool = False) -> dict:
    """The fixed work of one unit (figure/cluster) or one round (serve)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    algs = SMOKE["algorithms"] if smoke else ALGORITHMS
    if workload == "cluster-sweep":
        return {
            "pairs": SMOKE["cluster_pairs"] if smoke else CLUSTER_PAIRS,
            "devices": SMOKE["cluster_devices"] if smoke else CLUSTER_DEVICES,
            "jobs": CLUSTER_JOBS,
        }
    rows = {"figure-cold": COLD_ROWS, "figure-warm": WARM_ROWS, "serve-closed": SERVE_ROWS}[workload]
    return {"rows": SMOKE["rows"] if smoke else rows, "algorithms": algs}


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def unit_order(workload: str, seed: int, unit: int, smoke: bool = False) -> dict:
    """Issue order of unit number ``unit``: a permutation of its fixed work."""
    sh = shape(workload, smoke)
    rng = _rng(workload, seed, f"unit{unit}")
    if workload == "cluster-sweep":
        pairs = list(sh["pairs"])
        rng.shuffle(pairs)
        return {**sh, "pairs": pairs}
    rows, algs = list(sh["rows"]), list(sh["algorithms"])
    rng.shuffle(rows)
    rng.shuffle(algs)
    return {**sh, "rows": rows, "algorithms": algs}


def serve_cells(smoke: bool = False) -> list[tuple[str, str]]:
    sh = shape("serve-closed", smoke)
    return [(alg, row) for row in sh["rows"] for alg in sh["algorithms"]]


def serve_round(seed: int, connection: int, rnd: int, smoke: bool = False) -> list[tuple[str, str]]:
    """Jobs connection ``connection`` submits in round ``rnd``: every serve
    cell once, in a seeded order."""
    cells = serve_cells(smoke)
    _rng("serve-closed", seed, f"conn{connection}/round{rnd}").shuffle(cells)
    return cells

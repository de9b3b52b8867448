"""The unified testing framework of Section IV.

* :mod:`~repro.framework.runner` — one (algorithm, dataset, device) cell,
  including paper-scale capacity checks (red-cross failures).
* :mod:`~repro.framework.compare` — the full comparison matrix.
* :mod:`~repro.framework.pool` — supervised persistent worker processes,
  the one executor behind the matrix, serve, cluster and sweeps.
* :mod:`~repro.framework.resilience` — the matrix executor (``run_cells``),
  checkpoint/resume journal, cell timeouts with degrading retries,
  validation & quarantine, chaos harness.
* :mod:`~repro.framework.scheduler` — priority job queue with deadlines,
  precision shedding, and worker supervision (shared by ``run_matrix``
  and the ``repro serve`` daemon).
* :mod:`~repro.framework.report` — Tables I/II and the figure series.
* :mod:`~repro.framework.sweep` — configuration sweeps / ablations.
"""

from .cluster import (
    ClusterRecord,
    PartitionRecord,
    ScaleoutPoint,
    cluster_to_run_record,
    run_cluster,
    run_cluster_matrix,
    scaleout_curve,
)
from .compare import ComparisonMatrix, metric_maximizes, run_matrix
from .pool import default_jobs, parallel_starmap
from .resilience import (
    ChaosSpec,
    RetryPolicy,
    RunJournal,
    chaos_from_env,
    new_run_id,
    parse_chaos,
    run_cell_resilient,
    run_cells,
    seeded_jitter,
    validate_record,
)
from .scheduler import (
    CellJob,
    JobHandle,
    JobScheduler,
    SupervisionPolicy,
    shed_blocks,
)
from .report import (
    matrix_to_csv,
    render_cluster,
    render_figure_series,
    render_scaleout,
    render_speedups,
    render_table1,
    render_table2,
)
from .runner import (
    DEFAULT_MAX_BLOCKS,
    RunRecord,
    paper_scale_footprint,
    run_one,
    run_one_safe,
)
from .sweep import SweepPoint, best_config, sweep_config

__all__ = [
    "DEFAULT_MAX_BLOCKS",
    "CellJob",
    "ChaosSpec",
    "ClusterRecord",
    "ComparisonMatrix",
    "JobHandle",
    "JobScheduler",
    "PartitionRecord",
    "RetryPolicy",
    "RunJournal",
    "RunRecord",
    "ScaleoutPoint",
    "SupervisionPolicy",
    "SweepPoint",
    "best_config",
    "chaos_from_env",
    "cluster_to_run_record",
    "default_jobs",
    "matrix_to_csv",
    "metric_maximizes",
    "new_run_id",
    "paper_scale_footprint",
    "parallel_starmap",
    "parse_chaos",
    "render_cluster",
    "render_figure_series",
    "render_scaleout",
    "render_speedups",
    "render_table1",
    "render_table2",
    "run_cell_resilient",
    "run_cells",
    "run_cluster",
    "run_cluster_matrix",
    "run_matrix",
    "run_one",
    "run_one_safe",
    "scaleout_curve",
    "seeded_jitter",
    "shed_blocks",
    "sweep_config",
    "validate_record",
]

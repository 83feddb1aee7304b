"""Experiment harness: per-figure runners, metrics, table formatting."""

from .incastbench import IncastConfig, run_incast, run_incast_flock, run_incast_ud
from .indexbench import (
    IndexBenchConfig,
    run_erpc_index,
    run_flock_index,
    sweep_index,
)
from .lifecycle import RunSpec, run_lifecycle
from .metrics import Recorder, RunResult
from .microbench import (
    MicrobenchConfig,
    run_erpc,
    run_flock,
    run_raw_reads,
    run_rc,
    run_ud_rpc,
    sweep_flock_vs_erpc,
    sweep_raw_reads,
    sweep_ud_rpc,
)
from .parallel import SweepPoint, run_sweep
from .scorecards import (
    scorecard_fidelity_ab,
    scorecard_fig2a,
    scorecard_fig9,
    scorecard_fig10,
    scorecard_fig11,
    scorecard_fig12,
    scorecard_fig14,
    scorecard_fig15,
    scorecard_incast,
    scorecards_fig6_7_8,
)
from .tables import format_table, print_table
from .txnbench import (
    TxnBenchConfig,
    build_txn_servers,
    run_fasst_txn,
    run_flocktx,
    sweep_txn,
)

__all__ = [
    "IncastConfig",
    "IndexBenchConfig",
    "MicrobenchConfig",
    "Recorder",
    "RunResult",
    "RunSpec",
    "SweepPoint",
    "TxnBenchConfig",
    "build_txn_servers",
    "format_table",
    "print_table",
    "run_erpc",
    "run_erpc_index",
    "run_fasst_txn",
    "run_flock",
    "run_flock_index",
    "run_flocktx",
    "run_incast",
    "run_incast_flock",
    "run_incast_ud",
    "run_lifecycle",
    "run_raw_reads",
    "run_rc",
    "run_sweep",
    "run_ud_rpc",
    "scorecard_fidelity_ab",
    "scorecard_fig2a",
    "scorecard_fig9",
    "scorecard_fig10",
    "scorecard_fig11",
    "scorecard_fig12",
    "scorecard_fig14",
    "scorecard_fig15",
    "scorecard_incast",
    "scorecards_fig6_7_8",
    "sweep_flock_vs_erpc",
    "sweep_index",
    "sweep_raw_reads",
    "sweep_txn",
    "sweep_ud_rpc",
]

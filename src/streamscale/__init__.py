"""streamscale: saturation time scale of link streams.

Aggregating a stream of timestamped links into a series of snapshot
graphs preserves its propagation properties only up to a network-specific
window length, the saturation scale. This package finds that scale by
sweeping the window length and scoring how uniformly the occupancy rates
of all minimal trips spread over (0, 1], and ships the companion
baseline statistics, loss validation measures and synthetic generators.
"""

from .stream import (LinkStream, StreamSummary, ParseError, parse_tsv,
                     parse_konect, write_tsv, stream_summary)
from .aggregate import GraphSeries, aggregate, delta_grid
from .reach import (OccupancyDistribution, DistanceAggregates,
                    minimal_trip_sweep, scan_minimal_trips)
from .metrics import (icd_points, mk_distance, mk_proximity, std_dev,
                      variation_coeff, shannon_entropy, cre, select_gamma,
                      compute_metrics)
from .classic import ClassicStats, snapshot_stats, classic_stats
from .validate import (TransitionSet, ElongationResult, LossReport,
                       enumerate_shortest_transitions, lost_fraction,
                       mean_elongation, run_validation)
from .synth import UniformSpec, TwoModeSpec, gen_uniform, gen_two_mode
from .sweep import SweepReport, GridEntry, run_sweep, report_to_json

__version__ = "0.1.0"

__all__ = [
    "LinkStream", "StreamSummary", "ParseError", "parse_tsv", "parse_konect",
    "write_tsv", "stream_summary",
    "GraphSeries", "aggregate", "delta_grid",
    "OccupancyDistribution", "DistanceAggregates", "minimal_trip_sweep",
    "scan_minimal_trips",
    "icd_points", "mk_distance", "mk_proximity", "std_dev",
    "variation_coeff", "shannon_entropy", "cre", "select_gamma",
    "compute_metrics",
    "ClassicStats", "snapshot_stats", "classic_stats",
    "TransitionSet", "ElongationResult", "LossReport",
    "enumerate_shortest_transitions", "lost_fraction", "mean_elongation",
    "run_validation",
    "UniformSpec", "TwoModeSpec", "gen_uniform", "gen_two_mode",
    "SweepReport", "GridEntry", "run_sweep", "report_to_json",
    "__version__",
]

"""Online AQP serving layer: the sharded synopsis store with incremental
re-thresholding.

The paper builds synopses offline; this package serves them online —
concurrent reads via versioned snapshots and a reconstruction LRU,
appends via incremental re-thresholding that rebuilds only the dirtied
sub-trees, and static series for synopses built once (docs/SERVING.md).
"""

from repro.serving.cache import ReconstructionCache, reconstruct_segment
from repro.serving.incremental import DPMaintainer, GreedyMaintainer, MaintenanceStats
from repro.serving.store import Query, QueryResult, SeriesVersion, ShardedSynopsisStore

__all__ = [
    "ReconstructionCache",
    "reconstruct_segment",
    "DPMaintainer",
    "GreedyMaintainer",
    "MaintenanceStats",
    "Query",
    "QueryResult",
    "SeriesVersion",
    "ShardedSynopsisStore",
]

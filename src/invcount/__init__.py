"""Exact adaptive and approximate inversion counting.

The package reduces inversion counting to red-blue dominance counting,
builds shallow staircase cuttings and red-blue cells over the point sets,
and counts either exactly (with I/O cost adaptive to the true inversion
count, measured by an analytic external-memory tally) or approximately
(one pass of weighted pair sampling).
"""

from .approx import Estimate, PairSampler, estimate_inversions
from .cells import Cell, RedBlueCells, audit_cells, build_cells
from .core import (Point, PointSet, brute_force_count, mergesort_count,
                   reduce_inversions)
from .counting import (AdaptiveCount, cap_schedule, count_adaptive,
                       count_adaptive_ram, count_capped, count_capped_ram,
                       count_nonadaptive, merge_count_dominance,
                       ram_cap_schedule)
from .cuttings import (StaircaseCutting, build_blue_cutting,
                       build_red_cutting)
from .instances import InstanceSpec, generate
from .iomodel import EmParams, IoTally, RAM_PARAMS

__all__ = [
    "AdaptiveCount", "Cell", "EmParams", "Estimate",
    "InstanceSpec", "IoTally", "PairSampler", "Point", "PointSet",
    "RAM_PARAMS", "RedBlueCells", "StaircaseCutting", "audit_cells",
    "brute_force_count", "build_blue_cutting",
    "build_cells", "build_red_cutting", "cap_schedule", "count_adaptive",
    "count_adaptive_ram", "count_capped", "count_capped_ram",
    "count_nonadaptive", "estimate_inversions", "generate",
    "merge_count_dominance", "mergesort_count", "ram_cap_schedule",
    "reduce_inversions",
]

__version__ = "0.1.0"

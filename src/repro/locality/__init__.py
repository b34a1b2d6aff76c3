"""Locality substrate: HOTL metrics (paper §III).

Reuse times → gaps → average footprint → fill time / inter-miss time /
miss ratio, plus the :class:`~repro.locality.mrc.MissRatioCurve` consumed by
every optimizer in :mod:`repro.core`.
"""

from repro.locality.derived import (
    implied_stack_distance_ccdf,
    implied_stack_distance_pmf,
    predicted_set_assoc_miss_ratio,
)
from repro.locality.footprint import (
    FootprintCurve,
    average_footprint,
    footprint_from_gaps,
    windowed_wss,
)
from repro.locality.hotl import fill_time, inter_miss_time, miss_ratio
from repro.locality.mrc import MissRatioCurve, mrc_from_trace
from repro.locality.phases import (
    EpochProfile,
    detect_phases,
    epoch_profiles,
    epoch_working_sets,
)
from repro.locality.reuse import (
    ReuseCarry,
    ReuseProfile,
    batch_previous_positions,
    first_last_positions,
    gap_histogram,
    previous_occurrence,
    reuse_intervals,
    reuse_profile,
    reuse_time_histogram,
)
from repro.locality.sampling import bursty_footprint, sample_bursts

__all__ = [
    "implied_stack_distance_ccdf",
    "implied_stack_distance_pmf",
    "predicted_set_assoc_miss_ratio",
    "FootprintCurve",
    "average_footprint",
    "footprint_from_gaps",
    "windowed_wss",
    "fill_time",
    "inter_miss_time",
    "miss_ratio",
    "MissRatioCurve",
    "mrc_from_trace",
    "EpochProfile",
    "detect_phases",
    "epoch_profiles",
    "epoch_working_sets",
    "bursty_footprint",
    "sample_bursts",
    "ReuseCarry",
    "ReuseProfile",
    "batch_previous_positions",
    "first_last_positions",
    "gap_histogram",
    "previous_occurrence",
    "reuse_intervals",
    "reuse_profile",
    "reuse_time_histogram",
]

"""The two contraction-order DPs, each forced on any network.

:func:`repro.core.network.optimal_path` runs the vectorized bitmask DP
and falls back to the per-pair object DP only when the bitmask tables
cannot hold the network.  These entry points pin one DP so parity
tests can compare them on the same (small) networks.
"""

from typing import Optional

from repro.core.network import (
    ContractionPath,
    NetworkSpec,
    _emit_steps,
    _optimal_split_object,
    _optimal_split_vectorized,
    _SubsetTables,
)


def _path(split, spec: NetworkSpec,
          memory_cap: Optional[int]) -> ContractionPath:
    tables = _SubsetTables(spec)
    best_split, total, peak = split(tables, memory_cap)
    return ContractionPath(spec, _emit_steps(tables, best_split),
                           total, peak)


def object_path(spec: NetworkSpec,
                memory_cap: Optional[int] = None) -> ContractionPath:
    """Optimal path from the per-pair object DP."""
    return _path(_optimal_split_object, spec, memory_cap)


def vectorized_path(spec: NetworkSpec,
                    memory_cap: Optional[int] = None) -> ContractionPath:
    """Optimal path from the NumPy bitmask DP."""
    return _path(_optimal_split_vectorized, spec, memory_cap)


#: DP name -> entry point, for tests that loop over both.
PATHS = {"vectorized": vectorized_path, "object": object_path}

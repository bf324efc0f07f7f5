"""Occupancy calculation for thread blocks on an SM.

Mirrors the CUDA occupancy calculator at the granularity the paper's
pruning rules need: how many blocks of a given shape fit on one SM
concurrently, limited by threads, shared memory, registers, and the
per-SM block limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .arch import GpuArch

_NO_LIMIT = 2 ** 63 - 1


class Elementwise(NamedTuple):
    """The elementwise functions a shared scalar/column model uses.

    Model code written with operators plus these four runs unchanged
    on NumPy columns (:data:`COLUMNS`) and on Python scalars
    (:data:`SCALARS`), with the same IEEE results.  The scalar set
    exists because NumPy calls on Python scalars cost microseconds
    each, several times the arithmetic they replace.
    """

    minimum: Callable
    maximum: Callable
    where: Callable
    #: Whether any element of a boolean column (or the scalar) is true.
    any: Callable


COLUMNS = Elementwise(np.minimum, np.maximum, np.where, np.any)
SCALARS = Elementwise(min, max, lambda cond, a, b: a if cond else b, bool)


@dataclass(frozen=True)
class Occupancy:
    """Concurrent residency of one kernel's blocks on an SM."""

    blocks_per_sm: int
    threads_per_block: int
    max_threads_per_sm: int
    limiter: str

    @property
    def active_threads(self) -> int:
        return self.blocks_per_sm * self.threads_per_block

    @property
    def fraction(self) -> float:
        """Occupancy as a fraction of the SM's maximum resident threads."""
        if self.max_threads_per_sm == 0:
            return 0.0
        return min(1.0, self.active_threads / self.max_threads_per_sm)


def compute_occupancy(
    arch: GpuArch,
    threads_per_block: int,
    smem_bytes_per_block: int,
    registers_per_thread: int,
) -> Occupancy:
    """Blocks per SM and occupancy for a block shape on ``arch``.

    Returns an :class:`Occupancy` with ``blocks_per_sm == 0`` when the
    block cannot run at all (exceeds a per-block hardware limit).
    """
    if threads_per_block > arch.max_threads_per_block:
        return Occupancy(0, threads_per_block, arch.max_threads_per_sm,
                         "threads_per_block")
    if smem_bytes_per_block > arch.shared_mem_per_block:
        return Occupancy(0, threads_per_block, arch.max_threads_per_sm,
                         "shared_memory_per_block")
    if registers_per_thread > arch.max_registers_per_thread:
        return Occupancy(0, threads_per_block, arch.max_threads_per_sm,
                         "registers_per_thread")

    limits = {
        "max_blocks": arch.max_blocks_per_sm,
        "threads": arch.max_threads_per_sm // max(1, threads_per_block),
    }
    if smem_bytes_per_block > 0:
        limits["shared_memory"] = arch.shared_mem_per_sm // smem_bytes_per_block
    regs_per_block = registers_per_thread * threads_per_block
    if regs_per_block > 0:
        limits["registers"] = arch.registers_per_sm // regs_per_block

    limiter = min(limits, key=lambda k: limits[k])
    blocks = limits[limiter]
    return Occupancy(blocks, threads_per_block, arch.max_threads_per_sm,
                     limiter)


def occupancy_columns(
    arch: GpuArch, threads, smem_bytes, registers,
    ops: Elementwise = COLUMNS,
):
    """Elementwise ``(blocks_per_sm, fraction)`` of :func:`compute_occupancy`.

    Takes equal-length NumPy columns (``ops=COLUMNS``) or one row's
    Python scalars (``ops=SCALARS``); either way each row gets the same
    integer block count and bit-identical float fraction as the
    per-plan calculator.  Rows over a per-block hardware limit get zero
    blocks, like :func:`compute_occupancy`.
    """
    blocks = ops.minimum(
        arch.max_blocks_per_sm,
        arch.max_threads_per_sm // ops.maximum(threads, 1),
    )
    blocks = ops.minimum(blocks, ops.where(
        smem_bytes > 0,
        arch.shared_mem_per_sm // ops.maximum(smem_bytes, 1),
        _NO_LIMIT,
    ))
    regs_per_block = registers * threads
    blocks = ops.minimum(blocks, ops.where(
        regs_per_block > 0,
        arch.registers_per_sm // ops.maximum(regs_per_block, 1),
        _NO_LIMIT,
    ))
    runnable = (
        (threads <= arch.max_threads_per_block)
        & (smem_bytes <= arch.shared_mem_per_block)
        & (registers <= arch.max_registers_per_thread)
    )
    blocks = ops.where(runnable, blocks, 0)
    # A zero-thread SM admits zero blocks, so the guarded divisor only
    # ever divides zero and the fraction stays 0.0 as in Occupancy.
    fraction = ops.minimum(
        1.0, (blocks * threads) / max(arch.max_threads_per_sm, 1)
    )
    return blocks, fraction

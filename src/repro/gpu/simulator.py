"""Analytical GPU performance simulator.

This module substitutes for running generated kernels on real P100/V100
hardware (none is available offline).  It is a mechanistic resource model:
the kernel's demand on each hardware resource is computed from the plan's
geometry, converted to SM cycles, and the slowest resource bounds the
runtime (a roofline over DRAM bandwidth, double/single-precision FMA
issue, and shared-memory bandwidth), with multiplicative corrections for
occupancy-limited latency hiding, warp fill, wave quantisation and a
fixed launch overhead.

The whole time model is one elementwise core (:meth:`GpuSimulator._core`)
over geometry and traffic columns.  It uses only operators plus the
``minimum``/``maximum``/``where``/``any`` of an
:class:`~repro.gpu.occupancy.Elementwise` set, so
:meth:`GpuSimulator.simulate` feeds it one plan's Python scalars and
:meth:`GpuSimulator.simulate_batch` feeds it the NumPy columns of a
:class:`~repro.core.columnar.ColumnarBatch`; both give bit-identical
:class:`SimulationResult` values for the same configuration.

The simulator deliberately models *more* than the paper's ranking cost
model (which counts only DRAM transactions): this gap is what makes the
"cost model correlates with actual performance" experiment
(EXPERIMENTS.md) meaningful rather than circular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..core.costmodel import CostModel, TransactionEstimate
from ..core.plan import KernelPlan
from .arch import GpuArch
from .occupancy import (
    COLUMNS,
    SCALARS,
    Elementwise,
    compute_occupancy,
    occupancy_columns,
)

if TYPE_CHECKING:
    from ..core.columnar import ColumnarBatch
    from ..core.ir import Contraction

#: Resource bounds in tie-break order: on equal cycles the earlier
#: name is reported as the limiter.
LIMITERS = ("dram", "fma", "smem")


@dataclass(frozen=True)
class ModelParams:
    """Calibration constants for the performance simulator."""

    #: Fraction of peak DRAM bandwidth achievable by a tuned kernel.
    bw_efficiency: float = 0.82
    #: Occupancy at which DRAM latency is considered fully hidden.
    occ_saturation_mem: float = 0.25
    #: Occupancy at which arithmetic latency is considered fully hidden
    #: (register-tile ILP lets few warps cover the FMA pipeline).
    occ_saturation_compute: float = 0.12
    #: Issue-slot cost of one shared-memory load relative to one FMA.
    smem_load_weight: float = 0.5
    #: Fixed per-k-iteration issue overhead (loop/address arithmetic).
    loop_overhead: float = 1.0
    #: Serial cycles per step for the two barriers + staging latency.
    sync_cycles_per_step: float = 120.0
    #: Kernel launch overhead in seconds.
    launch_overhead_s: float = 4e-6
    #: Shared-memory bandwidth per SM in bytes/cycle.
    smem_bytes_per_cycle_per_sm: float = 128.0
    #: Model L2 hits for re-read input tiles (off by default: the
    #: paper's cost model, and our calibration, charge DRAM for every
    #: transaction).  When on, repeat reads of an input hit L2 with a
    #: probability that decays as the tensor outgrows the cache.
    model_l2: bool = False
    #: Maximum fraction of repeat reads served by L2.
    l2_max_hit_rate: float = 0.8


@dataclass(frozen=True)
class SimulationResult:
    """Predicted execution profile of one kernel launch."""

    time_s: float
    gflops: float
    dram_cycles: float
    fma_cycles: float
    smem_cycles: float
    limiter: str
    occupancy: float
    waves: int
    traffic_bytes: int

    def __str__(self) -> str:
        return (
            f"{self.gflops:8.1f} GFLOPS  {self.time_s * 1e6:10.1f} us  "
            f"bound={self.limiter}  occ={self.occupancy:.2f}  "
            f"waves={self.waves}"
        )


class GpuSimulator:
    """Estimates kernel execution time on a :class:`GpuArch`."""

    def __init__(
        self,
        arch: GpuArch,
        params: Optional[ModelParams] = None,
    ) -> None:
        self.arch = arch
        self.params = params or ModelParams()

    def simulate(
        self,
        plan: KernelPlan,
        traffic: Optional[TransactionEstimate] = None,
    ) -> SimulationResult:
        """Predict the runtime and GFLOPS of ``plan`` on this GPU.

        ``traffic`` may carry a pre-computed (or measured) transaction
        estimate; by default the analytic cost model is used.  Raises
        :class:`ValueError` when the plan cannot run on this GPU.
        """
        if traffic is None:
            traffic = CostModel(
                plan.dtype_bytes, self.arch.transaction_bytes
            ).estimate(plan, clipped=True)
        return self._result(*self._core(
            SCALARS,
            plan.contraction,
            plan.dtype_bytes,
            threads=plan.threads_per_block,
            smem_bytes=plan.smem_bytes,
            registers=plan.config.registers_per_thread(plan.dtype_bytes),
            num_blocks=plan.num_blocks,
            num_steps=plan.num_steps,
            reg_x=plan.reg_x,
            reg_y=plan.reg_y,
            tb_k=plan.tb_k_tile,
            load_a=traffic.load_a,
            load_b=traffic.load_b,
            store_c=traffic.store_c,
            transaction_bytes=traffic.transaction_bytes,
        ))

    def simulate_batch(self, batch: "ColumnarBatch") -> List[SimulationResult]:
        """:meth:`simulate` of every row of ``batch``, in row order.

        One pass of the elementwise core over the batch's geometry and
        clipped-traffic columns; each result equals :meth:`simulate` of
        the row's materialised plan (the batch's space supplies the
        transaction width, this simulator the GPU).  Raises the same
        :class:`ValueError` as :meth:`simulate` for the first row that
        cannot run.
        """
        space = batch.space
        load_a, load_b, store_c = batch.clipped_traffic()
        columns = self._core(
            COLUMNS,
            space.contraction,
            space.dtype_bytes,
            threads=batch.threads,
            smem_bytes=batch.smem_bytes,
            registers=batch.registers,
            num_blocks=batch.num_blocks,
            num_steps=batch.num_steps,
            reg_x=batch.reg_x,
            reg_y=batch.reg_y,
            tb_k=batch.tb_k,
            load_a=load_a,
            load_b=load_b,
            store_c=store_c,
            transaction_bytes=space.transaction_bytes,
        )
        return [
            self._result(*row)
            for row in zip(*(column.tolist() for column in columns))
        ]

    # -- the elementwise time model ---------------------------------------

    def _core(
        self,
        ops: Elementwise,
        contraction: "Contraction",
        dtype_bytes: int,
        *,
        threads,
        smem_bytes,
        registers,
        num_blocks,
        num_steps,
        reg_x,
        reg_y,
        tb_k,
        load_a,
        load_b,
        store_c,
        transaction_bytes: int,
    ):
        """Time model over one row's scalars or over columns.

        Returns the :class:`SimulationResult` fields in order, with the
        limiter as an index into :data:`LIMITERS`.  Raises
        :class:`ValueError` for the first row that cannot run.
        """
        arch = self.arch
        params = self.params
        blocks_per_sm, occupancy = occupancy_columns(
            arch, threads, smem_bytes, registers, ops
        )
        blocked = blocks_per_sm == 0
        if ops.any(blocked):
            row = np.flatnonzero(np.atleast_1d(blocked))[0]
            occ = compute_occupancy(arch, *(
                int(np.atleast_1d(column)[row])
                for column in (threads, smem_bytes, registers)
            ))
            raise ValueError(
                f"plan cannot run on {arch.name}: blocked by {occ.limiter}"
            )

        # DRAM: bytes after the optional L2 discount over the machine's
        # effective bandwidth.
        traffic_bytes = (load_a + load_b + store_c) * transaction_bytes
        if params.model_l2:
            dram_bytes = self._l2_discounted_bytes(
                ops, contraction, dtype_bytes, load_a, load_b, store_c,
                transaction_bytes,
            )
        else:
            dram_bytes = traffic_bytes
        bytes_per_cycle = arch.dram_bandwidth_gbs / arch.clock_ghz
        latency_hiding = ops.minimum(
            1.0, occupancy / params.occ_saturation_mem
        )
        effective = bytes_per_cycle * params.bw_efficiency * latency_hiding
        dram_cycles = dram_bytes / ops.maximum(effective, 1e-9)

        # FMA issue: register-tile ILP against the per-iteration
        # shared-memory loads and loop overhead, warp fill and latency
        # hiding.
        n_fma = contraction.flops / 2
        peak = arch.peak_gflops(dtype_bytes)
        # Total machine FMA rate in FMAs/cycle (peak counts 2 flops/FMA).
        fma_per_cycle = peak / (2 * arch.clock_ghz)
        fma_per_iter = reg_x * reg_y
        issue_cost = (
            fma_per_iter
            + params.smem_load_weight * (reg_x + reg_y)
            + params.loop_overhead
        )
        issue_eff = fma_per_iter / issue_cost
        warps = -(-threads // arch.warp_size)
        warp_fill = threads / (warps * arch.warp_size)
        latency_hiding = ops.minimum(
            1.0, occupancy / params.occ_saturation_compute
        )
        effective = fma_per_cycle * issue_eff * warp_fill * latency_hiding
        fma_cycles = n_fma / ops.maximum(effective, 1e-9)

        # Shared memory: staging stores into both buffers plus each
        # thread's REG_x + REG_y operand loads per TB_k iteration.
        per_block_step = (
            smem_bytes // dtype_bytes + threads * tb_k * (reg_x + reg_y)
        )
        total_bytes = per_block_step * num_blocks * num_steps * dtype_bytes
        machine_rate = params.smem_bytes_per_cycle_per_sm * arch.num_sms
        smem_cycles = total_bytes / machine_rate

        # The slowest resource bounds the parallel part.
        other = ops.maximum(fma_cycles, smem_cycles)
        limiter = ops.where(
            dram_cycles >= other, 0, ops.where(fma_cycles >= smem_cycles, 1, 2)
        )
        parallel_cycles = ops.maximum(dram_cycles, other)

        blocks_per_wave = blocks_per_sm * arch.num_sms
        waves = ops.maximum(1, -(-num_blocks // blocks_per_wave))
        utilization = num_blocks / (waves * blocks_per_wave)
        parallel_cycles = parallel_cycles / ops.maximum(utilization, 1e-9)

        # Per-step barrier/staging serialisation along each wave.
        serial_cycles = waves * num_steps * params.sync_cycles_per_step

        total_cycles = parallel_cycles + serial_cycles
        time_s = total_cycles / (arch.clock_ghz * 1e9)
        time_s = time_s + params.launch_overhead_s
        gflops = contraction.flops / time_s / 1e9
        return (
            time_s, gflops, dram_cycles, fma_cycles, smem_cycles,
            limiter, occupancy, waves, traffic_bytes,
        )

    def _l2_discounted_bytes(
        self, ops, contraction, dtype_bytes, load_a, load_b, store_c,
        transaction_bytes,
    ):
        """DRAM bytes after the optional L2 reuse discount.

        Each input is read cold once; re-reads (the traffic beyond one
        pass over the tensor) hit L2 at a rate that shrinks as the
        tensor outgrows the cache.
        """
        params = self.params
        total = store_c * transaction_bytes
        for tensor, txns in (
            (contraction.a, load_a),
            (contraction.b, load_b),
        ):
            load_bytes = txns * transaction_bytes
            cold_bytes = float(
                contraction.num_elements(tensor) * dtype_bytes
            )
            repeat = ops.maximum(0.0, load_bytes - cold_bytes)
            hit_rate = params.l2_max_hit_rate * min(
                1.0, self.arch.l2_cache_bytes / max(cold_bytes, 1.0)
            )
            total = total + (
                ops.minimum(load_bytes, cold_bytes) + repeat * (1 - hit_rate)
            )
        return total

    @staticmethod
    def _result(time_s, gflops, dram_cycles, fma_cycles, smem_cycles,
                limiter, occupancy, waves, traffic_bytes) -> SimulationResult:
        """One row of core output as a :class:`SimulationResult`."""
        return SimulationResult(
            time_s=time_s,
            gflops=gflops,
            dram_cycles=dram_cycles,
            fma_cycles=fma_cycles,
            smem_cycles=smem_cycles,
            limiter=LIMITERS[limiter],
            occupancy=occupancy,
            waves=waves,
            traffic_bytes=traffic_bytes,
        )


def simulate_plan(
    plan: KernelPlan, arch: GpuArch, params: Optional[ModelParams] = None
) -> SimulationResult:
    """One-shot convenience wrapper."""
    return GpuSimulator(arch, params).simulate(plan)

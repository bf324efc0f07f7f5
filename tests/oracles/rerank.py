"""Per-candidate simulator re-rank: the oracle for the batch re-rank.

:func:`rerank` is kernel selection's top-k micro-benchmark one
candidate at a time: a :class:`KernelPlan` per config, a scalar time
model per plan, then ``heapq.nsmallest`` on
``(time_s, cost, canonical_key)``.  :func:`reference_simulate` is that
scalar time model written out per plan with Python arithmetic and
:func:`compute_occupancy`, independent of the elementwise core in
:mod:`repro.gpu.simulator`.

``Cogent._select`` runs :meth:`GpuSimulator.simulate_batch` once over
the head instead; the parity tests require the same order and equal
:class:`SimulationResult` values.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.core.costmodel import CostModel, TransactionEstimate
from repro.core.generator import CandidateScore
from repro.core.ir import Contraction
from repro.core.mapping import canonical_key
from repro.core.plan import KernelPlan, ceil_div
from repro.gpu.occupancy import compute_occupancy
from repro.gpu.simulator import GpuSimulator, SimulationResult


def reference_simulate(
    simulator: GpuSimulator,
    plan: KernelPlan,
    traffic: Optional[TransactionEstimate] = None,
) -> SimulationResult:
    """One plan through the scalar time model, resource by resource."""
    arch = simulator.arch
    params = simulator.params
    if traffic is None:
        traffic = CostModel(plan.dtype_bytes, arch.transaction_bytes).estimate(
            plan, clipped=True
        )
    occ = compute_occupancy(
        arch,
        plan.threads_per_block,
        plan.smem_bytes,
        plan.config.registers_per_thread(plan.dtype_bytes),
    )
    if occ.blocks_per_sm == 0:
        raise ValueError(
            f"plan cannot run on {arch.name}: blocked by {occ.limiter}"
        )

    # DRAM, with the optional L2 discount on re-read input bytes.
    if params.model_l2:
        contraction = plan.contraction
        txn = traffic.transaction_bytes
        dram_bytes = float(traffic.store_c * txn)
        for tensor, txns in (
            (contraction.a, traffic.load_a),
            (contraction.b, traffic.load_b),
        ):
            load_bytes = float(txns * txn)
            cold_bytes = float(
                contraction.num_elements(tensor) * plan.dtype_bytes
            )
            repeat = max(0.0, load_bytes - cold_bytes)
            hit_rate = params.l2_max_hit_rate * min(
                1.0, arch.l2_cache_bytes / max(cold_bytes, 1.0)
            )
            dram_bytes += min(load_bytes, cold_bytes) + repeat * (1 - hit_rate)
    else:
        dram_bytes = float(traffic.bytes)
    bytes_per_cycle = arch.dram_bandwidth_gbs / arch.clock_ghz
    hiding = min(1.0, occ.fraction / params.occ_saturation_mem)
    effective = bytes_per_cycle * params.bw_efficiency * hiding
    dram_cycles = dram_bytes / max(effective, 1e-9)

    # FMA issue.
    n_fma = plan.flops / 2
    fma_per_cycle = arch.peak_gflops(plan.dtype_bytes) / (2 * arch.clock_ghz)
    fma_per_iter = plan.reg_x * plan.reg_y
    issue_cost = (
        fma_per_iter
        + params.smem_load_weight * (plan.reg_x + plan.reg_y)
        + params.loop_overhead
    )
    issue_eff = fma_per_iter / issue_cost
    warps = ceil_div(plan.threads_per_block, arch.warp_size)
    warp_fill = plan.threads_per_block / (warps * arch.warp_size)
    hiding = min(1.0, occ.fraction / params.occ_saturation_compute)
    effective = fma_per_cycle * issue_eff * warp_fill * hiding
    fma_cycles = n_fma / max(effective, 1e-9)

    # Shared memory.
    per_block_step = (
        (plan.smem_x_elements + plan.smem_y_elements)
        + plan.threads_per_block * plan.tb_k_tile * (plan.reg_x + plan.reg_y)
    )
    smem_bytes = (
        per_block_step * plan.num_blocks * plan.num_steps * plan.dtype_bytes
    )
    smem_cycles = smem_bytes / (
        params.smem_bytes_per_cycle_per_sm * arch.num_sms
    )

    bounds = {"dram": dram_cycles, "fma": fma_cycles, "smem": smem_cycles}
    limiter = max(bounds, key=lambda k: bounds[k])
    parallel_cycles = bounds[limiter]
    blocks_per_wave = occ.blocks_per_sm * arch.num_sms
    waves = max(1, ceil_div(plan.num_blocks, blocks_per_wave))
    utilization = plan.num_blocks / (waves * blocks_per_wave)
    parallel_cycles /= max(utilization, 1e-9)
    serial_cycles = waves * plan.num_steps * params.sync_cycles_per_step
    time_s = (parallel_cycles + serial_cycles) / (arch.clock_ghz * 1e9)
    time_s += params.launch_overhead_s
    return SimulationResult(
        time_s=time_s,
        gflops=plan.flops / time_s / 1e9,
        dram_cycles=dram_cycles,
        fma_cycles=fma_cycles,
        smem_cycles=smem_cycles,
        limiter=limiter,
        occupancy=occ.fraction,
        waves=waves,
        traffic_bytes=traffic.bytes,
    )


def rerank(
    simulator: GpuSimulator,
    contraction: Contraction,
    candidates: List[CandidateScore],
    dtype_bytes: int,
    top_k: int,
) -> List[CandidateScore]:
    """The top-``top_k`` head re-ranked on simulated time, one plan at a
    time; fills each head candidate's ``simulated`` result."""
    head = candidates[:top_k]
    for cand in head:
        plan = KernelPlan(contraction, cand.config, dtype_bytes)
        cand.simulated = reference_simulate(simulator, plan)
    return heapq.nsmallest(
        top_k, head,
        key=lambda cand: (
            cand.simulated.time_s, cand.cost, canonical_key(cand.config)
        ),
    )

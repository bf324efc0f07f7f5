"""The batch simulator re-rank against the per-candidate oracle.

``Cogent._select`` simulates the cost model's top-k in one
:meth:`GpuSimulator.simulate_batch` pass over a
:class:`~repro.core.columnar.ColumnarBatch`; ``tests/oracles/rerank.py``
re-ranks the same head one :class:`KernelPlan` at a time with the
scalar time model.  Both must give the same order and equal
:class:`SimulationResult` values (fields and their Python types), on
every TCCG entry, both GPUs, both precisions, with and without the L2
discount — and :meth:`GpuSimulator.simulate` must agree per plan too.
"""

import dataclasses

import pytest

from repro import parse
from repro.core.columnar import ColumnarSpace
from repro.core.generator import CandidateScore, Cogent, ranked_survivors
from repro.core.mapping import config_from_spec
from repro.core.plan import KernelPlan
from repro.gpu.arch import VOLTA_V100
from repro.gpu.simulator import GpuSimulator, ModelParams
from repro.tccg import all_benchmarks
from tests.oracles.rerank import reference_simulate, rerank

#: The TCCG suite at the scale the end-to-end benchmark compiles.
TCCG = [benchmark.scaled(0.4) for benchmark in all_benchmarks()]


def _fields(result):
    values = dataclasses.astuple(result)
    return values, [type(value) for value in values]


def _assert_same_head(got, want, label):
    assert [c.config.describe() for c in got] == [
        c.config.describe() for c in want
    ], f"top-k order differs for {label}"
    for g, w in zip(got, want):
        assert _fields(g.simulated) == _fields(w.simulated), (
            f"{label}: {g.config.describe()}"
        )
        assert g.cost == w.cost


def _check(generators, contraction, check_scalar=False):
    """Search once, then re-rank with each generator's simulator."""
    enumeration = generators[0]._search(contraction)
    ranked, relaxed = ranked_survivors(enumeration)
    for gen in generators:
        label = (
            f"{contraction} on {gen.arch.name} dtype={gen.dtype_bytes} "
            f"l2={gen.simulator.params.model_l2}"
        )
        want = rerank(
            gen.simulator, contraction,
            [CandidateScore(cfg, cost) for cfg, cost in ranked],
            gen.dtype_bytes, gen.top_k,
        )
        got, mode = gen._select(contraction, enumeration)
        assert mode.startswith("model+microbench")
        assert mode.endswith("+relaxed") == relaxed
        _assert_same_head(got[: gen.top_k], want, label)
        if check_scalar:
            for cand in want:
                plan = KernelPlan(contraction, cand.config, gen.dtype_bytes)
                assert _fields(gen.simulator.simulate(plan)) == _fields(
                    cand.simulated
                ), label


def _generators(arch, dtype_bytes):
    return [
        Cogent(
            arch=arch, dtype_bytes=dtype_bytes, allow_split=False,
            sim_params=ModelParams(model_l2=model_l2),
        )
        for model_l2 in (False, True)
    ]


@pytest.mark.parametrize("dtype_bytes", [8, 4])
@pytest.mark.parametrize("arch", ["V100", "P100"])
def test_batch_rerank_matches_oracle_on_tccg(arch, dtype_bytes):
    assert len(TCCG) == 48
    generators = _generators(arch, dtype_bytes)
    for position, contraction in enumerate(TCCG):
        _check(generators, contraction, check_scalar=position % 8 == 0)


def test_relaxed_single_candidate_matches_oracle():
    """ab-ak-kb @ 2: one relaxed candidate, selected by cost alone and
    simulated once, per plan."""
    contraction = parse("ab-ak-kb", 2)
    gen = Cogent(arch="V100", allow_split=False)
    enumeration = gen._search(contraction)
    ranked, relaxed = ranked_survivors(enumeration)
    assert relaxed and len(ranked) == 1
    want = rerank(
        gen.simulator, contraction,
        [CandidateScore(cfg, cost) for cfg, cost in ranked],
        gen.dtype_bytes, gen.top_k,
    )
    kernel = gen.generate(contraction)
    assert kernel.selection_mode == "cost-model+relaxed"
    _assert_same_head(kernel.candidates, want, "ab-ak-kb @ 2")


@pytest.mark.parametrize("expr,size", [
    ("ab-ak-kb", 8), ("abcd-aebf-dfce", 4),
])
def test_relaxed_head_matches_oracle(expr, size):
    contraction = parse(expr, size)
    generators = _generators("V100", 8)
    enumeration = generators[0]._search(contraction)
    assert not enumeration.configs and len(enumeration.feasible_rejects) > 1
    _check(generators, contraction, check_scalar=True)


@pytest.mark.parametrize("spec", [
    # 64 x 32 = 2048 threads: over the per-block thread limit.
    dict(tb_x=[("a", 64)], tb_y=[("b", 32)]),
    # (16*16 + 32) * 2 + 24 registers per thread: over the limit.
    dict(reg_x=[("a", 16)], reg_y=[("b", 16)]),
])
def test_unrunnable_row_raises_like_simulate(spec):
    contraction = parse("ab-ak-kb", 64)
    good = config_from_spec(
        contraction, tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 8)]
    )
    bad = config_from_spec(contraction, **spec)
    simulator = GpuSimulator(VOLTA_V100)
    with pytest.raises(ValueError) as scalar:
        simulator.simulate(KernelPlan(contraction, bad))
    with pytest.raises(ValueError) as oracle:
        reference_simulate(simulator, KernelPlan(contraction, bad))
    batch = ColumnarSpace.batch_of(contraction, VOLTA_V100, [good, bad])
    with pytest.raises(ValueError) as batched:
        simulator.simulate_batch(batch)
    assert str(batched.value) == str(scalar.value) == str(oracle.value)
    assert "plan cannot run on V100" in str(batched.value)

"""COGENT: the model-driven code generator facade.

Pipeline (paper Sections III-IV): parse the contraction, enumerate
mapping/tile-size configurations with hardware and performance pruning
(Algorithm 2), rank the survivors with the DRAM-transaction cost model
(Algorithm 3), optionally micro-benchmark the top-k candidates on the
performance simulator in one columnar pass (standing in for running
them on the GPU), and emit CUDA for the winner.

>>> from repro import Cogent
>>> gen = Cogent(arch="V100")
>>> kernel = gen.generate("abcd-aebf-dfce", sizes=24)
>>> print(kernel.source("cuda"))   # doctest: +SKIP
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..gpu.arch import GpuArch, get_arch
from ..gpu.simulator import GpuSimulator, ModelParams, SimulationResult
from .codegen.registry import get_target, list_targets
from .columnar import ColumnarSpace
from .constraints import ConstraintPolicy
from .costmodel import CostModel, TransactionEstimate
from .enumeration import (
    DEFAULT_REG_SIZES,
    DEFAULT_TB_SIZES,
    DEFAULT_TBK_SIZES,
    EnumerationResult,
    Enumerator,
)
from .ir import Contraction
from .mapping import KernelConfig
from .merging import MergeSpec, merge_operands, normalize, unmerge_output
from .parser import SizesArg, parse
from .plan import KernelPlan
from .splitting import (
    SplitSpec,
    adapt_operands,
    candidate_splits,
    restore_output,
)


@dataclass
class CandidateScore:
    """One pruned configuration with its model cost and (optionally) its
    micro-benchmarked performance."""

    config: KernelConfig
    cost: int
    simulated: Optional[SimulationResult] = None


@dataclass
class GeneratedKernel:
    """Everything COGENT produces for one contraction.

    ``contraction`` is the contraction the kernel was generated for; it
    differs from ``original_contraction`` only when the dimension-
    splitting extension rewrote an index.  Split kernels remain
    bit-compatible with the original tensors in memory (see
    :mod:`repro.core.splitting`).
    """

    contraction: Contraction
    plan: KernelPlan
    candidates: List[CandidateScore]
    enumeration: EnumerationResult
    selection_mode: str
    generation_time_s: float
    kernel_name: str = "tc_kernel"
    original_contraction: Optional[Contraction] = None
    split_specs: Tuple[SplitSpec, ...] = ()
    merge_specs: Tuple[MergeSpec, ...] = ()
    #: The contraction after merging but before splitting (equals
    #: ``original_contraction`` when no merge was applied).
    merged_contraction: Optional[Contraction] = None
    #: Default codegen target for :meth:`source` (the generator's).
    target: str = "cuda"
    _sources: Dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def config(self) -> KernelConfig:
        return self.plan.config

    @property
    def cost(self) -> int:
        return self.candidates[0].cost

    @property
    def search_stats(self):
        """Timing breakdown of the search that picked this kernel
        (``SearchStats`` or ``None`` on legacy full-enumeration paths)."""
        return self.enumeration.search_stats

    def source(self, target: Optional[str] = None) -> str:
        """The kernel source for ``target`` (default: the generator's
        target), lazily emitted and cached per target name.

        Any name in :func:`repro.core.codegen.list_targets` works; an
        unknown name raises :class:`ValueError` listing the choices.
        """
        name = target or self.target
        backend = get_target(name)
        if name not in self._sources:
            with obs.span("emit"):
                self._sources[name] = backend.emit_kernel(
                    self.plan, self.kernel_name
                )
            obs.inc("generate.kernels_emitted")
            obs.inc(f"codegen.target.{name}.emitted")
        return self._sources[name]

    def driver_source(self, target: Optional[str] = None) -> str:
        """A standalone host driver for ``target`` (default: the
        generator's target), where the target emits one."""
        name = target or self.target
        return get_target(name).emit_driver(self.plan, self.kernel_name)

    def execute(self, a, b):
        """Run the kernel's schedule numerically on original-shape
        operands, transparently handling merge/split rewrites.

        This is the validation path (numpy); the CUDA/C sources run the
        same schedule.
        """
        from ..gpu.executor import execute_plan

        if self.merge_specs:
            a, b = merge_operands(
                self.original_contraction, self.merge_specs, a, b
            )
        if self.split_specs:
            base = self.merged_contraction or self.original_contraction \
                or self.contraction
            a, b = adapt_operands(base, self.split_specs, a, b)
        out = execute_plan(self.plan, a, b)
        if self.split_specs:
            out = restore_output(self.contraction, self.split_specs, out)
        if self.merge_specs:
            merged = self.merged_contraction
            out = unmerge_output(merged, self.merge_specs, out)
        return out

    def summary(self) -> str:
        stats = self.enumeration.stats
        lines = [
            self.plan.summary(),
        ]
        if self.split_specs:
            splits = "; ".join(str(s) for s in self.split_specs)
            lines.append(f"splits      : {splits}")
        lines += [
            f"search      : {stats.raw_combinations} raw, "
            f"{stats.accepted} accepted "
            f"({stats.pruned_fraction * 100:.1f}% pruned), "
            f"selected by {self.selection_mode}",
            f"model cost  : {self.cost} DRAM transactions",
            f"gen time    : {self.generation_time_s * 1e3:.1f} ms",
        ]
        search_stats = self.enumeration.search_stats
        if search_stats is not None:
            lines.append(f"timing      : {search_stats.summary()}")
        if self.candidates[0].simulated is not None:
            lines.append(f"predicted   : {self.candidates[0].simulated}")
        return "\n".join(lines)


class Cogent:
    """Model-driven GPU code generator for arbitrary tensor contractions.

    Parameters
    ----------
    arch:
        Target GPU, by name (``"P100"``/``"V100"``) or as a
        :class:`~repro.gpu.arch.GpuArch`.
    dtype_bytes:
        8 for double precision (paper default), 4 for single.
    top_k:
        Number of top model-ranked candidates to micro-benchmark on the
        performance simulator.  ``top_k=1`` selects purely by the cost
        model (the paper's primary mode).  The streaming search keeps
        exactly ``top_k`` survivors in its bounded heap.
    workers:
        Process-pool width for the configuration search: the Cartesian
        product of partial-configuration families is striped across
        ``workers`` shards, each pruning and ranking into a bounded
        top-k heap.  ``workers=1`` (default) searches serially
        in-process; serial and parallel searches pick the identical best
        configuration (cost ties break on a canonical config key).
    """

    def __init__(
        self,
        arch: Union[str, GpuArch] = "V100",
        dtype_bytes: int = 8,
        top_k: int = 64,
        tb_sizes: Sequence[int] = DEFAULT_TB_SIZES,
        reg_sizes: Sequence[int] = DEFAULT_REG_SIZES,
        tbk_sizes: Sequence[int] = DEFAULT_TBK_SIZES,
        policy: Optional[ConstraintPolicy] = None,
        sim_params: Optional[ModelParams] = None,
        allow_split: bool = True,
        split_factors: Sequence[int] = (4, 8, 16),
        allow_merge: bool = False,
        workers: int = 1,
        strategy: str = "direct",
        target: str = "cuda",
    ) -> None:
        from .costmodel import STRATEGY_NAMES

        if strategy not in ("auto",) + STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from "
                f"{('auto',) + STRATEGY_NAMES}"
            )
        if target not in list_targets():
            raise ValueError(
                f"unknown codegen target {target!r}; choose from "
                f"{list_targets()}"
            )
        self.arch = get_arch(arch) if isinstance(arch, str) else arch
        self.dtype_bytes = dtype_bytes
        #: Default codegen target for emitted kernels
        #: (:func:`repro.core.codegen.list_targets` has the choices).
        self.target = target
        #: Execution-strategy family ("direct" is the paper's kernel;
        #: "auto" ranks direct/ttgt/gett/batched on the packing-aware
        #: traffic model, see :mod:`repro.strategies`).
        self.strategy = strategy
        self.top_k = max(1, top_k)
        self.workers = max(1, int(workers))
        self.tb_sizes = tuple(tb_sizes)
        self.reg_sizes = tuple(reg_sizes)
        self.tbk_sizes = tuple(tbk_sizes)
        self.policy = policy
        self.cost_model = CostModel(dtype_bytes, self.arch.transaction_bytes)
        self.simulator = GpuSimulator(self.arch, sim_params)
        #: Dimension-splitting extension (paper Section IV): consider
        #: rewriting an index into a (fast, slow) pair when one side of
        #: the contraction has too few external indices.
        self.allow_split = allow_split
        self.split_factors = tuple(split_factors)
        #: Index-merging extension (paper Section IV): fuse adjacent
        #: small dimensions before searching.  Off by default to keep
        #: the search space identical to the paper's.
        self.allow_merge = allow_merge

    # -- public API -----------------------------------------------------

    def search_signature(self) -> str:
        """A stable string of every knob that shapes search *results*.

        Folded into dedup-first equivalence-class keys
        (:func:`repro.core.program.workload_key`): two generators with
        equal signatures (and arch/dtype) pick identical kernels for
        identical contractions, so they may share searches and stored
        winners.  ``workers`` is deliberately excluded — parallel
        searches are guaranteed bit-identical to serial ones.
        """
        if self.policy is None:
            policy = "default"
        else:
            policy = ",".join(
                f"{name}={value}"
                for name, value in sorted(vars(self.policy).items())
            )
        return (
            f"top_k={self.top_k};tb={self.tb_sizes};reg={self.reg_sizes};"
            f"tbk={self.tbk_sizes};split={self.allow_split}"
            f":{self.split_factors};merge={self.allow_merge};"
            f"policy={policy};strategy={self.strategy};"
            f"target={self.target}"
        )

    def select_strategy(self, contraction: Union[str, Contraction],
                        sizes: SizesArg = None):
        """Rank execution strategies for ``contraction`` and return a
        :class:`repro.strategies.StrategyChoice`.

        With ``strategy="auto"`` all four families compete on the
        packing-aware traffic model; a fixed strategy restricts the
        ranking to that single family (and errors if inapplicable).
        """
        from ..strategies.selector import StrategySelector

        if isinstance(contraction, str):
            from .parser import parse

            try:
                contraction = parse(contraction, sizes)
            except Exception:
                # Expressions with indices in all three tensors are
                # explicit batched contractions (e.g. "qkh-qdh-kdh").
                from .batched import parse_batched

                contraction = parse_batched(contraction, sizes)
        if self.strategy == "auto":
            names = None
        else:
            names = (self.strategy,)
        selector = StrategySelector(
            arch=self.arch.name,
            dtype_bytes=self.dtype_bytes,
            **({"strategies": names} if names else {}),
        )
        return selector.choose(contraction)

    def compile_batch(
        self,
        contractions: Iterable[Union[str, Contraction]],
        sizes: SizesArg = None,
        kernel_name: str = "tc_kernel",
        kernel_names: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
        store=None,
    ):
        """Dedup-first batch compilation (one search per shape class).

        Convenience wrapper over
        :class:`repro.core.program.CompilationSession`: the batch is
        partitioned into canonical-key equivalence classes, one
        representative per class is searched, and the winner is rebound
        to every member.  ``store`` (a path or
        :class:`~repro.core.program.KernelStore`) persists class
        winners across processes.  Returns a
        :class:`~repro.core.program.CompiledProgram`.
        """
        from .program import CompilationSession

        return CompilationSession(self, store=store).compile(
            contractions,
            sizes=sizes,
            kernel_name=kernel_name,
            kernel_names=kernel_names,
            workers=workers,
        )

    def generate(
        self,
        contraction: Union[str, Contraction],
        sizes: SizesArg = None,
        kernel_name: str = "tc_kernel",
    ) -> GeneratedKernel:
        """Generate the best kernel for ``contraction``.

        ``contraction`` may be an expression string in any syntax
        accepted by :func:`repro.core.parser.parse`, or an already-built
        :class:`Contraction` (in which case ``sizes`` is ignored).
        """
        start = time.perf_counter()
        with obs.span("generate"):
            if isinstance(contraction, str):
                contraction = parse(contraction, sizes)
            original = contraction

            merge_specs: Tuple[MergeSpec, ...] = ()
            if self.allow_merge:
                contraction, merges = normalize(contraction)
                merge_specs = tuple(merges)
            merged_contraction = contraction

            variants: List[Tuple[Contraction, Tuple[SplitSpec, ...]]] = [
                (contraction, ())
            ]
            if self.allow_split:
                variants += [
                    (split, (spec,))
                    for split, spec in candidate_splits(
                        contraction, self.split_factors
                    )
                ]

            best: Optional[GeneratedKernel] = None
            for variant, specs in variants:
                enumeration = self._search(variant)
                candidates, mode = self._select(variant, enumeration)
                plan = KernelPlan(
                    variant, candidates[0].config, self.dtype_bytes
                )
                if candidates[0].simulated is None:
                    candidates[0].simulated = self.simulator.simulate(plan)
                kernel = GeneratedKernel(
                    contraction=variant,
                    plan=plan,
                    candidates=candidates,
                    enumeration=enumeration,
                    selection_mode=mode if not specs else mode + "+split",
                    generation_time_s=0.0,
                    kernel_name=kernel_name,
                    original_contraction=original,
                    split_specs=specs,
                    merge_specs=merge_specs,
                    merged_contraction=merged_contraction,
                    target=self.target,
                )
                if (
                    best is None
                    or kernel.candidates[0].simulated.time_s
                    < best.candidates[0].simulated.time_s
                ):
                    best = kernel
            assert best is not None
            best.generation_time_s = time.perf_counter() - start
            obs.inc("generate.contractions")
            obs.observe("generate.time_s", best.generation_time_s)
        return best

    def generate_many(
        self,
        contractions: Iterable[Union[str, Contraction]],
        sizes: SizesArg = None,
        kernel_name: str = "tc_kernel",
        workers: Optional[int] = None,
    ) -> List[GeneratedKernel]:
        """Generate kernels for a whole batch of contractions.

        The suite-level companion of :meth:`generate`: contractions are
        distributed across a process pool (``workers``, defaulting to
        this generator's ``workers`` setting), with each worker running
        a serial search so the two parallelism levels do not nest.
        Every contraction is searched; :meth:`compile_batch` shares one
        search per equivalence class instead.

        Results come back in input order.  Falls back to a serial loop
        when the pool is unavailable.
        """
        workers = self.workers if workers is None else max(1, int(workers))
        items = [
            parse(c, sizes) if isinstance(c, str) else c
            for c in contractions
        ]
        return self._generate_batch(items, workers, kernel_name)

    def _generate_batch(
        self,
        contractions: Sequence[Contraction],
        workers: int,
        kernel_name: str,
    ) -> List[GeneratedKernel]:
        """Generate each contraction, fanning out across processes.

        When an observability session is active, each worker records its
        own span tree and metrics; the coordinator merges them back in
        input order (deterministic — spans aggregate by name), with
        worker wall times normalised to pool latency.
        """
        if workers > 1 and len(contractions) > 1:
            worker_gen = copy.copy(self)
            worker_gen.workers = 1  # no nested pools inside pool workers
            trace = obs.enabled()
            payloads = [
                (worker_gen, c, kernel_name, trace) for c in contractions
            ]
            try:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(
                    max_workers=min(workers, len(contractions))
                ) as pool:
                    outcomes = list(pool.map(_generate_job, payloads))
            except Exception:
                pass  # pool unavailable: fall through to the serial loop
            else:
                session = obs.session()
                for _, trace_payload, metrics_payload in outcomes:
                    if session is None or trace_payload is None:
                        continue
                    session.tracer.absorb(trace_payload, workers=workers)
                    session.metrics.merge(
                        obs.MetricsRegistry.from_dict(metrics_payload)
                    )
                return [kernel for kernel, _, _ in outcomes]
        return [
            self.generate(c, kernel_name=kernel_name) for c in contractions
        ]

    def rank_configs(
        self, contraction: Contraction
    ) -> List[Tuple[KernelConfig, int]]:
        """All pruned configurations ranked by (cost, canonical key).

        One search that keeps every survivor; when the performance
        rules reject everything, the hardware-feasible rejects are
        ranked instead (as in kernel selection).
        """
        enumerator = self._enumerator(contraction)
        ranked, _relaxed = ranked_survivors(
            enumerator.search(keep=enumerator.max_configs)
        )
        return ranked

    def estimate(self, plan: KernelPlan) -> TransactionEstimate:
        """Cost-model transaction estimate for an arbitrary plan."""
        return self.cost_model.estimate(plan)

    def predict(self, plan: KernelPlan) -> SimulationResult:
        """Simulated performance of an arbitrary plan on this GPU."""
        return self.simulator.simulate(plan)

    # -- pipeline stages ----------------------------------------------------

    def _enumerator(self, contraction: Contraction) -> Enumerator:
        return Enumerator(
            contraction,
            self.arch,
            self.dtype_bytes,
            tb_sizes=self.tb_sizes,
            reg_sizes=self.reg_sizes,
            tbk_sizes=self.tbk_sizes,
            policy=self.policy,
        )

    def _search(self, contraction: Contraction) -> EnumerationResult:
        """Streaming prune+rank search, sharded across ``workers``."""
        return self._enumerator(contraction).search(
            keep=self.top_k, workers=self.workers
        )

    def _select(
        self,
        contraction: Contraction,
        enumeration: EnumerationResult,
    ) -> Tuple[List[CandidateScore], str]:
        ranked, relaxed = ranked_survivors(enumeration)
        if not ranked:
            raise RuntimeError(
                f"no feasible configuration found for {contraction}"
            )
        suffix = ""
        if relaxed:
            obs.inc("search.fallback.relaxed")
            suffix = "+relaxed"
        candidates = [CandidateScore(cfg, cost) for cfg, cost in ranked]
        if self.top_k == 1 or len(candidates) == 1:
            return candidates, "cost-model" + suffix
        # Micro-benchmark the top-k on the simulator in one columnar
        # pass.  The head arrives in (model cost, canonical key) order,
        # so a stable sort on simulated time breaks ties on (cost, key)
        # and stays deterministic across worker counts.
        head = candidates[: self.top_k]
        sim_start = time.perf_counter()
        with obs.span("simulate"):
            batch = ColumnarSpace.batch_of(
                contraction, self.arch, [cand.config for cand in head],
                self.dtype_bytes,
            )
            results = self.simulator.simulate_batch(batch)
        sim_s = time.perf_counter() - sim_start
        for cand, result in zip(head, results):
            cand.simulated = result
        obs.inc("search.simulated", len(head))
        obs.observe("search.simulation_s", sim_s)
        head.sort(key=lambda cand: cand.simulated.time_s)
        stats = enumeration.search_stats
        if stats is not None:
            stats.simulation_s += sim_s
            stats.total_s += sim_s
            stats.simulated += len(head)
        return head + candidates[self.top_k:], "model+microbench" + suffix


def ranked_survivors(
    enumeration: EnumerationResult,
) -> Tuple[List[Tuple[KernelConfig, int]], bool]:
    """Ranked (config, cost) survivors and whether they are relaxed.

    When the performance rules rejected everything (tiny problems), the
    hardware-feasible rejects stand in; the flag reports that fallback.
    """
    if enumeration.configs:
        return list(zip(enumeration.configs, enumeration.costs)), False
    rejects = list(zip(enumeration.feasible_rejects,
                       enumeration.reject_costs))
    return rejects, bool(rejects)


def _generate_job(payload: Tuple[Cogent, Contraction, str, bool]):
    """Process-pool entry point for :meth:`Cogent.generate_many`.

    Returns ``(kernel, trace, metrics)``; the trace/metrics payloads are
    ``None`` unless the coordinator had an observability session active.
    """
    generator, contraction, kernel_name, trace = payload
    if not trace:
        kernel = generator.generate(contraction, kernel_name=kernel_name)
        return kernel, None, None
    with obs.tracing(root_name="worker") as session:
        kernel = generator.generate(contraction, kernel_name=kernel_name)
    exported = session.payload()
    return kernel, exported["trace"], exported["metrics"]

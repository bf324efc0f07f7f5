"""Seeded inputs and one timed pass of each benchmark workload.

Every workload drives the compiler only through its public entry
points — :func:`repro.api.compile_many`, :func:`repro.api.compile_network`,
:meth:`GeneratedKernel.source`, :func:`chost.build_executable` /
:func:`chost.run_executable` and :func:`reference_contract` — and hands
it only the inputs built here from the seed: contraction strings with
their extents, and operand values.

A *pass* compiles the workload in ``COMPILE_ROUNDS`` rounds, each
against fresh stores, and emits, builds, runs and verifies every kernel
once, a share after each round.  Stages the program does not trace
itself (compile calls, gcc build, run, verification, the BLAS
reference, network execution) are wrapped in ``bench.*`` spans from
this file, so a traced pass shows every layer.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import api, obs
from repro.apps.ccsdt import triples_terms
from repro.core.codegen import chost, openmp
from repro.core.ir import Contraction
from repro.core.parser import parse
from repro.gpu.executor import integer_operands, reference_contract
from repro.tccg.suite import all_benchmarks

OPTIONS = api.Options(target="openmp")

#: Extent scale of the TCCG entries in ``tccg-run``: operand + output
#: working sets then span 4.5-38 MiB, from a 4 MiB L2 into L3.
TCCG_SCALE = 0.4
#: (n_occ, n_virt) sweeps of the 18 triples terms, each presented
#: ``TRIPLES_REPEATS`` times: 324 contractions in 108 classes.
TRIPLES_SWEEPS = ((6, 10), (8, 12), (8, 16), (10, 14), (10, 20), (12, 16))
TRIPLES_REPEATS = 3
#: (n_occ, n_virt) at which the 18 triples programs are built and run.
TRIPLES_RUN_SIZES = (10, 16)
#: Networks compiled and executed by ``ccsdt-dedup``: a CCSD residual
#: term and an n=10 chain with varied extents (path DP dominates).
NETWORKS = (
    (
        "ccsd_term",
        "acik,ckdl,dlem,embj,ij->ab",
        {"a": 16, "b": 16, "c": 16, "d": 16, "e": 16,
         "i": 8, "j": 8, "k": 8, "l": 8, "m": 8},
    ),
    (
        "chain10",
        "ab,bc,cd,de,ef,fg,gh,hi,ij,jk->ak",
        dict(zip("abcdefghijk", (23, 7, 61, 13, 37, 5, 47, 11, 29, 17, 41))),
    ),
)


# -- inputs -----------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One contraction whose emitted program is built, run and verified."""

    name: str
    expr: str
    sizes: Dict[str, int]
    contraction: Contraction
    operand_seed: int

    @property
    def flops(self) -> int:
        return self.contraction.flops

    @property
    def bytes_computed(self) -> int:
        """A + B + C footprint computed from the array extents."""
        c = self.contraction
        return 8 * sum(
            int(np.prod(c.extents_of(t))) for t in (c.a, c.b, c.c)
        )

    @property
    def fastest_from(self) -> str:
        """Which input holds the output's fastest (first) index."""
        c = self.contraction
        return "A" if c.c.indices[0] in c.a.indices else "B"

    def operands(self) -> Tuple[np.ndarray, np.ndarray]:
        return integer_operands(self.contraction, seed=self.operand_seed)


def _case(name: str, expr: str, sizes: Dict[str, int], seed: int) -> Case:
    return Case(name, expr, dict(sizes), parse(expr, sizes), seed)


@dataclass(frozen=True)
class Network:
    name: str
    expr: str
    sizes: Dict[str, int]
    operands: Tuple[np.ndarray, ...]


@dataclass(frozen=True)
class Inputs:
    """Everything one workload pass consumes, built from the seed."""

    #: Contractions built, run and verified, compiled one call each.
    cases: Tuple[Case, ...]
    #: Reference output digest by case name, filled by the first pass.
    expected: Dict[str, str] = field(default_factory=dict)
    #: ``ccsdt-dedup`` only: the dedup batch as one tuple of
    #: (expr, sizes) pairs per size sweep.
    sweeps: Tuple[Tuple[Tuple[str, Dict[str, int]], ...], ...] = ()
    networks: Tuple[Network, ...] = ()


def _triples_sizes(term, n_occ: int, n_virt: int) -> Dict[str, int]:
    sizes = {h: n_occ for h in "abc"}
    sizes.update({p: n_virt for p in "def"})
    sizes["g"] = n_occ if term.family == "d1" else n_virt
    return sizes


def tccg_inputs(seed: int, tiny: bool = False) -> Inputs:
    """The 48 TCCG entries at ``TCCG_SCALE``, in seeded order."""
    benchmarks = list(all_benchmarks())
    scale = TCCG_SCALE
    if tiny:
        benchmarks = [b for b in benchmarks
                      if b.name in ("ccsd_eq1", "ccsd_mx2", "ttm_mode1")]
        scale = 0.25
    cases = [
        _case(b.name, b.expr, dict(b.scaled(scale).sizes), seed * 1000 + b.id)
        for b in benchmarks
    ]
    random.Random(seed).shuffle(cases)
    return Inputs(cases=tuple(cases))


def triples_inputs(seed: int, tiny: bool = False) -> Inputs:
    """The triples dedup batch, two networks and 18 run-size programs."""
    terms = triples_terms()
    sweeps, repeats = TRIPLES_SWEEPS, TRIPLES_REPEATS
    run_terms = terms
    if tiny:
        sweeps, repeats, run_terms = sweeps[:1], 2, terms[:3]
    order = random.Random(seed)
    batch = []
    for n_occ, n_virt in sweeps:
        sweep = [(term.expr, _triples_sizes(term, n_occ, n_virt))
                 for term in terms] * repeats
        order.shuffle(sweep)
        batch.append(tuple(sweep))
    order.shuffle(batch)
    cases = [
        _case(term.name, term.expr,
              _triples_sizes(term, *TRIPLES_RUN_SIZES), seed * 1000 + i)
        for i, term in enumerate(run_terms)
    ]
    order.shuffle(cases)
    rng = np.random.default_rng(seed)
    networks = []
    for name, expr, sizes in NETWORKS:
        subscripts = expr.split("->")[0].split(",")
        operands = tuple(
            rng.integers(-2, 3, size=[sizes[i] for i in sub]).astype(float)
            for sub in subscripts
        )
        networks.append(Network(name, expr, sizes, operands))
    return Inputs(tuple(cases), sweeps=tuple(batch), networks=tuple(networks))


# -- one pass -----------------------------------------------------------------

#: Cold + warm compile rounds per pass, each against a fresh store.  The
#: compile stage is short and its speed drifts on shared hosts, so it is
#: sampled more often than the build and run stages.
COMPILE_ROUNDS = 2
WARM_REPEATS = 3
#: Timed runs per pass of each verified program and of its BLAS arm.
RUN_REPEATS = 2


@dataclass
class KernelResult:
    """One contraction's emitted program in one pass."""

    name: str
    #: ``ok``, ``crash``, ``mismatch``, ``compile-error`` or ``build-error``.
    verdict: str = "compile-error"
    reason: str = ""
    #: One cold compile latency per compile round.
    compile_s: List[float] = field(default_factory=list)
    build_s: float = 0.0
    #: Wall times of ``run_executable``: process start, A/B/C file
    #: exchange and the kernel itself.
    run_s: List[float] = field(default_factory=list)
    #: Wall times of ``np.einsum(..., optimize=True)`` (BLAS) on the
    #: same operands.
    blas_s: List[float] = field(default_factory=list)
    source_bytes: int = 0
    #: Chosen config + emitted source digest, for the determinism check.
    fingerprint: str = ""


@dataclass
class PassResult:
    kernels: List[KernelResult]
    #: Cold batch ``compile_many`` wall times by call (``ccsdt-dedup``;
    #: the cold batch of ``tccg-run`` is its one-call compiles, timed per
    #: kernel).
    cold_s: Dict[str, List[float]] = field(default_factory=dict)
    #: Warm batch ``compile_many`` wall times by call.
    warm_s: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    #: (operation, reason) for every failed operation.
    failures: List[Tuple[str, str]] = field(default_factory=list)
    #: Operation -> config/source digest; must not change across passes.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: Set when the same input gave two different configs or sources.
    nondeterministic: bool = False

    def check_same(self, operation: str, first, second, what: str) -> None:
        """Count a failure when two kernels chose different configs."""
        if first.config.describe() != second.config.describe():
            self.nondeterministic = True
            self.failures.append((operation, f"config differs {what}"))


def _plan_view(array: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    # Split/merged kernels are bit-compatible with the original tensors
    # in first-index-fastest memory order, so a Fortran-order reshape is
    # exactly the operand layout the emitted program expects.
    return np.reshape(array, shape, order="F")


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _build_run_verify(
    case: Case, kernel, workdir: Path, result: KernelResult,
    expected: Dict[str, str],
) -> None:
    """Emit, gcc-build, run and verify one kernel; fill ``result``.

    ``expected`` memoises the digest of each case's ``reference_contract``
    output: the operands are fixed by the seed, so the reference is
    computed once per run, inside the first pass's ``bench.verify``.
    """
    source = kernel.source("openmp")
    result.source_bytes = len(source.encode())
    result.fingerprint = hashlib.sha256(
        (kernel.config.describe() + "\n" + source).encode()
    ).hexdigest()
    start = time.perf_counter()
    try:
        with obs.span("bench.build"):
            exe = chost.build_executable(
                source, workdir,
                cflags=openmp.CFLAGS,
                fallback_cflags=openmp.CFLAGS_PORTABLE,
                stem="kernel",
            )
    except chost.EmulationError as exc:
        result.verdict, result.reason = "build-error", str(exc)[:200]
        return
    finally:
        result.build_s = time.perf_counter() - start

    a, b = case.operands()
    out_shape = case.contraction.extents_of(case.contraction.c)
    if case.name not in expected:
        with obs.span("bench.verify"):
            expected[case.name] = _digest(
                reference_contract(case.contraction, a, b)
            )
    want = expected[case.name]
    plan = kernel.plan
    pc = plan.contraction
    for repeat in range(RUN_REPEATS):
        start = time.perf_counter()
        try:
            with obs.span("bench.run"):
                out = chost.run_executable(
                    exe, plan,
                    _plan_view(a, pc.extents_of(pc.a)),
                    _plan_view(b, pc.extents_of(pc.b)),
                    workdir,
                )
        except chost.EmulationError as exc:
            result.verdict = "crash"
            result.reason = str(exc).strip().splitlines()[0][:200]
            return
        result.run_s.append(time.perf_counter() - start)
        if repeat == 0:
            with obs.span("bench.verify"):
                same = _digest(_plan_view(out, out_shape)) == want
            if not same:
                result.verdict = "mismatch"
                result.reason = "output bytes differ from reference_contract"
                return

    spec = case.contraction.einsum_spec()
    for _ in range(RUN_REPEATS):
        start = time.perf_counter()
        with obs.span("bench.blas"):
            np.einsum(spec, a, b, optimize=True)
        result.blas_s.append(time.perf_counter() - start)
    result.verdict = "ok"


def _compile_each(
    cases: Tuple[Case, ...], store: Path, out: PassResult
) -> Dict[str, object]:
    """Cold-compile each case in its own ``compile_many`` call.

    Every case is its own equivalence class, so each call misses the
    shared store and pays a full search.  Returns the kernels by case
    name (failed compiles absent).
    """
    kernels: Dict[str, object] = {}
    with obs.span("bench.compile_each"):
        for case, result in zip(cases, out.kernels):
            start = time.perf_counter()
            try:
                kernels[case.name] = api.compile_many(
                    [parse(case.expr, case.sizes)],
                    options=OPTIONS.evolve(store_dir=store),
                ).kernels[0]
            except Exception as exc:  # counted and reported; run goes on
                result.reason = f"{type(exc).__name__}: {exc}"[:200]
                continue
            result.compile_s.append(time.perf_counter() - start)
    return kernels


def _run_share(
    inputs: Inputs, kernels: Dict[str, object], workdir: Path,
    out: PassResult, round_: int,
) -> None:
    """Build, run and verify this compile round's share of the cases.

    Spreading the kernel stage between the compile rounds spreads the
    compile samples over the whole pass.  Failures are counted in
    ``out``.
    """
    for result, case in list(zip(out.kernels, inputs.cases))[
        round_::COMPILE_ROUNDS
    ]:
        out.attempted += 1
        if case.name in kernels:
            kdir = workdir / case.name
            kdir.mkdir(parents=True)
            _build_run_verify(case, kernels[case.name], kdir, result,
                              inputs.expected)
            shutil.rmtree(kdir)
            out.fingerprints[case.name] = result.fingerprint
        if result.verdict != "ok":
            out.failures.append(
                (case.name, f"{result.verdict}: {result.reason}")
            )


def _compile_batch(batch, store: Path, times: List[float], span: str):
    """Compile ``batch`` in one ``compile_many`` call; time it."""
    start = time.perf_counter()
    with obs.span(span):
        program = api.compile_many(
            [parse(expr, sizes) for expr, sizes in batch],
            options=OPTIONS.evolve(store_dir=store),
        )
    times.append(time.perf_counter() - start)
    return program


def _compile_warm(call: str, batch, store: Path, out: PassResult):
    """The batch against its populated store, ``WARM_REPEATS`` times:
    pure store reads, short enough to sample often.  Returns the last
    compiled program."""
    times = out.warm_s.setdefault(call, [])
    for _ in range(WARM_REPEATS):
        warm = _compile_batch(batch, store, times, "bench.compile_warm")
    return warm


def _classes(sweep) -> Dict[str, List[int]]:
    """Positions of each term's repeats in one sweep, by expression.

    Each sweep fixes the extents, so a term is one equivalence class.
    """
    classes: Dict[str, List[int]] = {}
    for position, (expr, _) in enumerate(sweep):
        classes.setdefault(expr, []).append(position)
    return classes


def _check_rounds(out: PassResult, first, kernels) -> None:
    for name, kernel in kernels.items():
        if name in first:
            out.check_same(name, first[name], kernel, "between compile rounds")


def tccg_pass(inputs: Inputs, workdir: Path) -> PassResult:
    """Rounds of one-call cold compiles plus a warm batch, each followed
    by a share of the kernels' emit, build, run and verify."""
    out = PassResult([KernelResult(case.name) for case in inputs.cases])
    first = None
    for round_ in range(COMPILE_ROUNDS):
        store = workdir / f"store{round_}"
        kernels = _compile_each(inputs.cases, store, out)
        warm = _compile_warm(
            "batch", [(case.expr, case.sizes) for case in inputs.cases],
            store, out,
        )
        for case, kernel in zip(inputs.cases, warm.kernels):
            if case.name in kernels:
                out.check_same(case.name, kernels[case.name], kernel,
                               "between cold search and warm store")
        first = kernels if first is None else first
        _check_rounds(out, first, kernels)
        _run_share(inputs, kernels, workdir, out, round_)
    return out


def _batch_digest(kernels) -> str:
    return hashlib.sha256(
        "\n".join(k.config.describe() for k in kernels).encode()
    ).hexdigest()


def triples_pass(inputs: Inputs, workdir: Path) -> PassResult:
    """The two networks, then compile rounds, each with one fresh store.

    A round compiles the dedup batch cold, one ``compile_many`` per class
    (a term's three repeats in one sweep, so each call searches once and
    fans out twice), then warm, one call per sweep.  It then compiles
    the run-size terms one call each and builds, runs and verifies its
    share of the 18 programs.  Short cold calls let the best-of-samples
    timing skip the host's slow phases, which a multi-second call spans.
    """
    out = PassResult([KernelResult(case.name) for case in inputs.cases])
    for network in inputs.networks:
        out.attempted += 1
        with obs.span("bench.compile_network"):
            compiled = api.compile_network(
                network.expr, network.sizes,
                options=OPTIONS.evolve(store_dir=workdir / network.name),
            )
        with obs.span("bench.network_execute"):
            got = compiled.execute(*network.operands)
        with obs.span("bench.verify"):
            same = np.array_equal(got, compiled.reference(*network.operands))
        if not same:
            out.failures.append(
                (network.name, "network output differs from .reference")
            )
        out.fingerprints[network.name] = _batch_digest(compiled.kernels)

    first_batch: Dict[str, list] = {}
    first = None
    for round_ in range(COMPILE_ROUNDS):
        store = workdir / f"batch{round_}"
        for number, sweep in enumerate(inputs.sweeps):
            call = f"sweep{number}"
            cold = [None] * len(sweep)
            for expr, positions in _classes(sweep).items():
                program = _compile_batch(
                    [sweep[i] for i in positions], store,
                    out.cold_s.setdefault(f"{call}:{expr}", []),
                    "bench.compile_cold",
                )
                for position, kernel in zip(positions, program.kernels):
                    cold[position] = kernel
            warm = _compile_warm(call, sweep, store, out)
            first_batch.setdefault(call, cold)
            for position, kernels in enumerate(
                zip(first_batch[call], cold, warm.kernels)
            ):
                operation = f"{call}[{position}]"
                out.check_same(operation, kernels[0], kernels[1],
                               "between compile rounds")
                out.check_same(operation, kernels[1], kernels[2],
                               "between cold search and warm store")
        kernels = _compile_each(inputs.cases, workdir / f"each{round_}", out)
        first = kernels if first is None else first
        _check_rounds(out, first, kernels)
        _run_share(inputs, kernels, workdir, out, round_)
    out.attempted += sum(len(sweep) for sweep in inputs.sweeps)
    out.fingerprints["batch"] = _batch_digest(
        [k for call in sorted(first_batch) for k in first_batch[call]]
    )
    return out


#: name -> (makes the inputs from a seed, runs one pass).
WORKLOADS: Dict[str, Tuple[Callable[..., Inputs],
                           Callable[[Inputs, Path], PassResult]]] = {
    "tccg-run": (tccg_inputs, tccg_pass),
    "ccsdt-dedup": (triples_inputs, triples_pass),
}

"""End-to-end benchmark of the COGENT reproduction.

One run sets up one workload from its seed, then repeats whole passes
(compile -> emit -> gcc build -> run -> verify, see ``workloads.py``)
for at least ``--seconds`` seconds and at least ``MIN_PASSES`` passes::

    python3 perfbench/run.py --workload tccg-run --seed 1 --seconds 30 --trace 0

Standard output holds the environment envelope, one row per built
contraction, every failure with its reason and every metric with its
unit; the last line is the JSON result.  ``--trace 0`` reports the
end-to-end metrics with tracing off.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics: self times read
from the ``repro.obs.v1`` payload of the traced passes (per pass), and
``obs.overhead_ratio`` = traced / untraced cold compile time.

The emitted OpenMP programs and the BLAS reference arm run with the
same fixed thread count (``THREADS``).  Scratch files, compiler
temporaries included, live under ``.perfbench_work-<pid>/`` in the
checkout and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
#: OpenMP threads of the emitted programs and BLAS threads of numpy.
THREADS = min(2, os.cpu_count() or 1)
#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 3
#: Every timing is a best of at least this many passes, and the
#: determinism check compares each later pass with the first.
MIN_PASSES = 3

E2E_UNITS = {
    "setup_s": "s",
    "compile_cold_s": "s",
    "compile_warm_s": "s",
    "compile_p50_ms": "ms",
    "compile_p75_ms": "ms",
    "build_s": "s",
    "kernel_gflops_geomean": "GFLOP/s",
    "blas_fraction_geomean": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "simulator.self_s": "s",
    "simulator.calls": "count",
    "simulator.candidates": "count",
    "simulator.share": "ratio",
    "enumeration.self_s": "s",
    "enumeration.enumerate_s": "s",
    "enumeration.prune_s": "s",
    "enumeration.rank_s": "s",
    "enumeration.searches": "count",
    "enumeration.configs_checked": "count",
    "enumeration.kept_ratio": "ratio",
    "program.contractions": "count",
    "program.classes": "count",
    "program.dedup_ratio": "ratio",
    "program.store_hits": "count",
    "program.store_misses": "count",
    "program.self_s": "s",
    "parser.self_s": "s",
    "network.path_s": "s",
    "network.pipeline_s": "s",
    "network.execute_s": "s",
    "codegen.emit_s": "s",
    "codegen.source_bytes": "B",
    "chost.build_s": "s",
    "chost.run_s": "s",
    "kernel.flops": "flop",
    "kernel.bytes_computed": "B",
    "kernel.flops_per_byte": "flop/B",
    "kernel.verified": "count",
    "blas.s": "s",
    "verify.s": "s",
    "verify.mismatches": "count",
    "verify.crashes": "count",
    "fail_ratio": "ratio",
    "obs.overhead_ratio": "ratio",
}


def _pin_threads() -> None:
    # Before numpy is imported: OpenBLAS reads these once at load time.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ[var] = str(THREADS)


def _first_line(command: List[str]) -> str:
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.strip().splitlines()
    return lines[0] if proc.returncode == 0 and lines else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def envelope(workload: str, seed: int, trace: bool) -> Dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _first_line(["git", "rev-parse", "HEAD"]),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "gcc": _first_line(["cc", "--version"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _import_in_fresh_interpreter() -> None:
    """Start Python and import what a workload imports, as a user would;
    a second import in this process would be free."""
    subprocess.run(
        [sys.executable, "-c", "import numpy, repro.api, repro.apps.ccsdt, "
         "repro.core.codegen, repro.gpu.executor, repro.tccg.suite"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True, timeout=120,
    )


def _geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) \
        if values else 0.0


def _span_totals(payload: Dict) -> Dict[str, List[float]]:
    """Span name -> [self_s, wall_s, count] summed over the whole tree."""
    totals: Dict[str, List[float]] = {}
    stack = [payload["trace"]]
    while stack:
        node = stack.pop()
        entry = totals.setdefault(node["name"], [0.0, 0.0, 0])
        entry[0] += node["self_s"]
        entry[1] += node["wall_s"]
        entry[2] += node["count"]
        stack.extend(node.get("children", ()))
    return totals


class Aggregate:
    """Per-contraction best times over the passes of one run.

    Every timing is the minimum over its samples (compile rounds, run
    repeats and passes): shared hosts alternate between fast and slow
    phases, and the minimum measures the program rather than the mix.
    """

    def __init__(self, cases, passes) -> None:
        self.cases = cases
        self.passes = passes
        self.by_name = {
            case.name: [
                next(k for k in p.kernels if k.name == case.name)
                for p in passes
            ]
            for case in cases
        }
        self.verified = [
            case for case in cases
            if all(k.verdict == "ok" for k in self.by_name[case.name])
        ]

    def best(self, name: str, attr: str) -> float:
        """Minimum of a per-kernel timing (scalar or list) over passes."""
        samples = []
        for result in self.by_name[name]:
            value = getattr(result, attr)
            samples += value if isinstance(value, list) else [value]
        return min(samples) if samples else math.nan

    def built(self) -> List:
        return [case for case in self.cases
                if all(k.verdict != "compile-error"
                       for k in self.by_name[case.name])]

    def gflops(self, case) -> float:
        return case.flops / self.best(case.name, "run_s") / 1e9

    def blas_fraction(self, case) -> float:
        return self.best(case.name, "blas_s") / self.best(case.name, "run_s")


def _best_calls(agg: Aggregate, attr: str) -> float:
    """Sum over batch calls of each call's best wall time over passes."""
    samples: Dict[str, List[float]] = {}
    for result in agg.passes:
        for call, times in getattr(result, attr).items():
            samples.setdefault(call, []).extend(times)
    return sum(min(times) for times in samples.values())


def cold_compile_s(agg: Aggregate) -> float:
    """Best cold batch compile time: summed over the workload's batch
    ``compile_many`` calls, else over its one-call compiles."""
    if agg.passes[0].cold_s:
        return _best_calls(agg, "cold_s")
    return sum(agg.best(case.name, "compile_s") for case in agg.built())


def end_to_end(agg: Aggregate, setup_s: float) -> Dict[str, float]:
    latencies = [agg.best(case.name, "compile_s") for case in agg.built()]
    return {
        "setup_s": setup_s,
        "compile_cold_s": cold_compile_s(agg),
        "compile_warm_s": _best_calls(agg, "warm_s"),
        "compile_p50_ms": 1e3 * statistics.median(latencies),
        "compile_p75_ms": 1e3 * statistics.quantiles(latencies, n=4)[2],
        "build_s": sum(agg.best(case.name, "build_s")
                       for case in agg.built()),
        "kernel_gflops_geomean": _geomean(
            [agg.gflops(case) for case in agg.verified]),
        "blas_fraction_geomean": _geomean(
            [agg.blas_fraction(case) for case in agg.verified]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(agg: Aggregate, payloads: List[Dict],
              overhead: float, fail_ratio: float) -> Dict[str, float]:
    """Per-pass layer metrics from the traced passes of ``agg``."""
    n = len(payloads)
    spans: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    for payload in payloads:
        for name, values in _span_totals(payload).items():
            entry = spans.setdefault(name, [0.0, 0.0, 0])
            for i, value in enumerate(values):
                entry[i] += value
        for name, value in payload["metrics"]["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def self_s(name: str) -> float:
        return spans.get(name, [0.0, 0.0, 0])[0] / n

    def wall_s(name: str) -> float:
        return spans.get(name, [0.0, 0.0, 0])[1] / n

    def counter(name: str) -> float:
        return counters.get(name, 0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    kernels = [k for p in agg.passes for k in p.kernels]
    compile_wall = sum(wall_s(name) for name in (
        "bench.compile_cold", "bench.compile_each", "bench.compile_warm",
        "bench.compile_network"))
    flops = sum(case.flops for case in agg.cases)
    computed = sum(case.bytes_computed for case in agg.cases)
    built = [agg.best(case.name, "build_s") for case in agg.built()]
    ran = [agg.best(case.name, "run_s") for case in agg.verified]
    return {
        "simulator.self_s": self_s("simulate"),
        "simulator.calls": spans.get("simulate", [0, 0, 0])[2] / n,
        "simulator.candidates": counter("search.simulated"),
        "simulator.share": ratio(self_s("simulate"), compile_wall),
        "enumeration.self_s": self_s("search"),
        "enumeration.enumerate_s": self_s("enumerate"),
        "enumeration.prune_s": self_s("prune"),
        "enumeration.rank_s": self_s("rank"),
        "enumeration.searches": counter("search.searches"),
        "enumeration.configs_checked": counter("search.configs_checked"),
        "enumeration.kept_ratio": ratio(counter("search.kept"),
                                        counter("search.configs_checked")),
        "program.contractions": counter("program.contractions"),
        "program.classes": counter("program.classes"),
        "program.dedup_ratio": ratio(counter("program.dedup_hits"),
                                     counter("program.contractions")),
        "program.store_hits": counter("store.hits"),
        "program.store_misses": counter("store.misses"),
        "program.self_s": self_s("program"),
        "parser.self_s": self_s("parse"),
        "network.path_s": self_s("network.path"),
        "network.pipeline_s": wall_s("network.pipeline"),
        "network.execute_s": wall_s("bench.network_execute"),
        "codegen.emit_s": wall_s("emit"),
        "codegen.source_bytes":
            sum(k.source_bytes for k in kernels) / len(agg.passes),
        "chost.build_s": statistics.median(built) if built else 0.0,
        "chost.run_s": statistics.median(ran) if ran else 0.0,
        "kernel.flops": flops,
        "kernel.bytes_computed": computed,
        "kernel.flops_per_byte": ratio(flops, computed),
        "kernel.verified": len(agg.verified),
        "blas.s": wall_s("bench.blas"),
        "verify.s": wall_s("bench.verify"),
        "verify.mismatches":
            sum(k.verdict == "mismatch" for k in kernels) / len(agg.passes),
        "verify.crashes":
            sum(k.verdict == "crash" for k in kernels) / len(agg.passes),
        "fail_ratio": fail_ratio,
        "obs.overhead_ratio": overhead,
    }


def _report(agg: Aggregate, metrics: Dict[str, float],
            units: Dict[str, str]) -> None:
    print(f"{'contraction':<14} {'fast':>4} {'GFLOP':>7} {'MiB':>7} "
          f"{'compile_ms':>10} {'build_ms':>8} {'run_ms':>8} "
          f"{'GFLOP/s':>8} {'blas_frac':>9}  verdict")
    for case in sorted(agg.cases, key=lambda c: c.name):
        results = agg.by_name[case.name]
        verdicts = sorted({k.verdict for k in results})
        ok = case in agg.verified
        print(
            f"{case.name:<14} {case.fastest_from:>4} "
            f"{case.flops / 1e9:7.3f} {case.bytes_computed / 2**20:7.1f} "
            f"{agg.best(case.name, 'compile_s') * 1e3:10.1f} "
            f"{agg.best(case.name, 'build_s') * 1e3:8.1f} "
            + (f"{agg.best(case.name, 'run_s') * 1e3:8.1f} "
               f"{agg.gflops(case):8.3f} {agg.blas_fraction(case):9.4f}"
               if ok else f"{'-':>8} {'-':>8} {'-':>9}")
            + f"  {'/'.join(verdicts)}"
        )
    print(f"verified kernels in the speed geomeans: {len(agg.verified)} "
          f"of {len(agg.cases)}")
    for number, result in enumerate(agg.passes):
        for operation, reason in result.failures:
            print(f"FAILED pass {number} {operation}: {reason}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")


def _measure(run_pass, inputs, work: Path, seconds: float, trace: bool):
    """Run passes for ``seconds`` and at least ``MIN_PASSES``.

    With ``trace`` every second pass runs inside an obs session.  Returns
    the pass results, their traced flags and the traced payloads.
    """
    from repro import obs

    passes, traced, payloads = [], [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        pass_dir = work / f"pass{len(passes)}"
        pass_dir.mkdir()
        is_traced = trace and len(passes) % 2 == 1
        if is_traced:
            with obs.tracing(meta={"command": "perfbench"}) as session:
                result = run_pass(inputs, pass_dir)
            payloads.append(session.payload())
        else:
            result = run_pass(inputs, pass_dir)
        shutil.rmtree(pass_dir)
        for operation, digest in result.fingerprints.items():
            if passes and passes[0].fingerprints.get(operation) != digest:
                result.nondeterministic = True
                result.failures.append(
                    (operation, "config or source differs from pass 0"))
        passes.append(result)
        traced.append(is_traced)
    return passes, traced, payloads


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> Dict:
    """Set up and measure one workload; returns the result object.

    ``tiny`` shrinks the inputs to a few contractions (self-test only).
    """
    _pin_threads()
    work = ROOT / f".perfbench_work-{os.getpid()}"
    work.mkdir()
    saved_tmpdir = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(work)  # compiler temporaries stay here
    try:
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        import workloads

        make_inputs, run_pass = workloads.WORKLOADS[name]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            _import_in_fresh_interpreter()
            inputs = make_inputs(seed, tiny)
            setup_times.append(time.perf_counter() - start)
        setup_s = statistics.median(setup_times)

        passes, traced, payloads = _measure(
            run_pass, inputs, work, seconds, trace
        )
        attempted = sum(p.attempted for p in passes)
        failed = sum(len({op for op, _ in p.failures}) for p in passes)
        if trace:
            traced_passes = [p for p, t in zip(passes, traced) if t]
            plain_passes = [p for p, t in zip(passes, traced) if not t]
            agg = Aggregate(inputs.cases, traced_passes)
            # As many untraced passes as traced ones: a best-of over more
            # samples would bias the ratio.
            plain = Aggregate(inputs.cases, plain_passes[:len(traced_passes)])
            overhead = cold_compile_s(agg) / cold_compile_s(plain)
            metrics = per_layer(agg, payloads, overhead, failed / attempted)
            units = LAYER_UNITS
        else:
            metrics = end_to_end(Aggregate(inputs.cases, passes), setup_s)
            units = E2E_UNITS

        print(json.dumps(envelope(name, seed, trace)
                         | {"passes": len(passes), "setup_s": setup_s}))
        _report(Aggregate(inputs.cases, passes), metrics, units)
        print(f"attempted = {attempted}, failed = {failed}, "
              f"fail_ratio = {failed / attempted:.4f}")
        return {
            "correct": not any(p.nondeterministic for p in passes),
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                metric: {"value": value, "unit": units[metric]}
                for metric, value in metrics.items()
            },
        }
    finally:
        if saved_tmpdir is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_tmpdir
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tccg-run", "ccsdt-dedup"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared host-side plumbing for the CPU-executable C targets.

The sequential C emulation (``cemu``), the pthread OpenCL harness
(``clemu``) and the OpenMP CPU backend (``openmp``) all wrap a kernel
function in the same standalone-program shell: extents from ``argv``,
raw little-endian tensor files in, the output tensor file out.  And all
three are compiled and executed the same way on the Python side: write
the source, invoke the system C compiler, exchange arrays through
Fortran-ordered (first-index-fastest) binary files.

This module holds that shell once — the ``main()`` emitter, the staged
tile-load loop emitter, and the compile/run harness — so the executable
targets cannot drift apart in their I/O conventions and a new CPU
backend is just a kernel-function emitter.
"""

from __future__ import annotations

import subprocess
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ... import obs
from ..plan import KernelPlan
from . import indexing as ix


class EmulationError(RuntimeError):
    """Raised when compiling or running an emitted C program fails."""


# -- shared source fragments -------------------------------------------------


def scalar_type(dtype_bytes: int) -> str:
    """The C scalar type for an element width (8 -> double, 4 -> float)."""
    return "double" if dtype_bytes == 8 else "float"


def serial_stage_loops(
    plan: KernelPlan, tensor, buffer: str, scalar: str
) -> List[str]:
    """A serial loop staging one input tile into ``buffer``.

    The same index arithmetic as the CUDA backend's staged loads
    (:class:`~repro.core.codegen.indexing.TileLoadFragment`), executed by
    one CPU thread; when the plan stages with a vector width > 1 the
    group/lane addressing is mirrored with scalar lanes so the compiled
    emulation exercises the exact layout the GPU kernel uses.
    """
    frag = ix.TileLoadFragment(plan, tensor)
    inner, addr, bounds, smem_idx = frag.body("l_")
    n_elems = plan.tile_elements(tensor)
    width = plan.staging_vector_width(tensor)
    lines: List[str] = []
    if width == 1:
        lines.append(
            f"for (long l_ = 0; l_ < {n_elems}; ++l_) {{"
        )
        lines += ix.indent(inner, 1)
        lines += ix.indent(
            [
                f"{buffer}[{smem_idx}] = ({bounds})"
                f" ? g_{tensor.name}[{addr}] : ({scalar})0;",
            ],
            1,
        )
        lines.append("}")
        return lines
    lane_stride = plan.smem_lane_stride(tensor)
    lines.append(
        f"for (long l_ = 0; l_ < {n_elems}; l_ += {width}) {{"
    )
    lines += ix.indent(inner, 1)
    grouped = [f"if ({bounds}) {{"]
    for lane in range(width):
        grouped.append(
            f"    {buffer}[({smem_idx}) + {lane * lane_stride}]"
            f" = g_{tensor.name}[({addr}) + {lane}];"
        )
    grouped.append("} else {")
    for lane in range(width):
        grouped.append(
            f"    {buffer}[({smem_idx}) + {lane * lane_stride}]"
            f" = ({scalar})0;"
        )
    grouped.append("}")
    lines += ix.indent(grouped, 1)
    lines.append("}")
    return lines


def host_main_function(plan: KernelPlan, kernel_name: str) -> List[str]:
    """The standalone ``main()``: argv extents, fread A/B, fwrite C.

    Usage is ``prog n_<i>... A.bin B.bin C.bin`` with every tensor in
    first-index-fastest (column-major) element order — the convention
    :func:`compile_and_run_source` writes and reads.
    """
    scalar = scalar_type(plan.dtype_bytes)
    contraction = plan.contraction
    indices = contraction.all_indices
    c, a, b = contraction.c, contraction.a, contraction.b

    def count_expr(tensor) -> str:
        return " * ".join(
            f"(long){ix.extent_param(i)}" for i in tensor.indices
        )

    lines = [
        "int main(int argc, char** argv)",
        "{",
        f"    if (argc != {len(indices) + 4}) {{",
        '        fprintf(stderr, "usage: %s '
        + " ".join(f"n_{i}" for i in indices)
        + ' A.bin B.bin C.bin\\n", argv[0]);',
        "        return 1;",
        "    }",
    ]
    for pos, index in enumerate(indices, start=1):
        lines.append(
            f"    const int {ix.extent_param(index)} = atoi(argv[{pos}]);"
        )
    base = len(indices)
    lines += [
        f"    const long elems_a = {count_expr(a)};",
        f"    const long elems_b = {count_expr(b)};",
        f"    const long elems_c = {count_expr(c)};",
        f"    {scalar}* A_ = ({scalar}*)malloc(sizeof({scalar}) * elems_a);",
        f"    {scalar}* B_ = ({scalar}*)malloc(sizeof({scalar}) * elems_b);",
        f"    {scalar}* C_ = ({scalar}*)calloc(elems_c, sizeof({scalar}));",
        "    if (!A_ || !B_ || !C_) return 2;",
        f'    FILE* fa = fopen(argv[{base + 1}], "rb");',
        f'    FILE* fb = fopen(argv[{base + 2}], "rb");',
        "    if (!fa || !fb) return 3;",
        f"    if (fread(A_, sizeof({scalar}), elems_a, fa)"
        " != (size_t)elems_a) return 4;",
        f"    if (fread(B_, sizeof({scalar}), elems_b, fb)"
        " != (size_t)elems_b) return 4;",
        "    fclose(fa); fclose(fb);",
        f"    {kernel_name}(C_, A_, B_, "
        + ", ".join(ix.extent_param(i) for i in indices)
        + ");",
        f'    FILE* fc = fopen(argv[{base + 3}], "wb");',
        "    if (!fc) return 5;",
        f"    if (fwrite(C_, sizeof({scalar}), elems_c, fc)"
        " != (size_t)elems_c) return 6;",
        "    fclose(fc);",
        "    free(A_); free(B_); free(C_);",
        "    return 0;",
        "}",
    ]
    return lines


# -- compile/run harness -----------------------------------------------------


def build_executable(
    source: str,
    workdir: Path,
    cc: str = "cc",
    cflags: Sequence[str] = ("-O2", "-std=c99"),
    stem: str = "kernel_emu",
    fallback_cflags: Optional[Sequence[str]] = None,
) -> Path:
    """Write ``source`` under ``workdir`` and compile it; return the exe.

    ``fallback_cflags`` retries the compilation with a second flag set
    when the first fails (e.g. ``-march=native`` on compilers that do
    not support it); each retry counts ``chost.build.fallback``.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    src = workdir / f"{stem}.c"
    exe = workdir / stem
    src.write_text(source)
    attempts = [tuple(cflags)]
    if fallback_cflags is not None:
        attempts.append(tuple(fallback_cflags))
    stderr = ""
    for attempt, flags in enumerate(attempts):
        if attempt:
            obs.inc("chost.build.fallback")
        proc = subprocess.run(
            [cc, *flags, "-o", str(exe), str(src)],
            capture_output=True, text=True,
        )
        if proc.returncode == 0:
            return exe
        stderr = proc.stderr
    raise EmulationError(
        f"compilation failed:\n{stderr}\n--- source ---\n{source}"
    )


def run_executable(
    exe: Path,
    plan: KernelPlan,
    a: np.ndarray,
    b: np.ndarray,
    workdir: Path,
) -> np.ndarray:
    """Run a built program on ``a``/``b`` and read back the output.

    Arrays are exchanged through raw column-major-strided buffers: the
    generated code treats the *first* index as fastest, so numpy arrays
    are written in Fortran order and the result is read back the same
    way.
    """
    contraction = plan.contraction
    scalar = np.float64 if plan.dtype_bytes == 8 else np.float32
    a = np.asarray(a, dtype=scalar)
    b = np.asarray(b, dtype=scalar)
    a_path, b_path, c_path = (
        workdir / "A.bin", workdir / "B.bin", workdir / "C.bin"
    )
    a.T.ravel(order="C").tofile(a_path)  # first index fastest
    b.T.ravel(order="C").tofile(b_path)
    extents = [str(contraction.extent(i)) for i in contraction.all_indices]
    proc = subprocess.run(
        [str(exe), *extents, str(a_path), str(b_path), str(c_path)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise EmulationError(
            f"emulation run failed (rc={proc.returncode}): {proc.stderr}"
        )
    flat = np.fromfile(c_path, dtype=scalar)
    shape = contraction.extents_of(contraction.c)
    return np.ascontiguousarray(flat.reshape(tuple(reversed(shape))).T)


def compile_and_run_source(
    plan: KernelPlan,
    source: str,
    a: np.ndarray,
    b: np.ndarray,
    cc: str = "cc",
    cflags: Sequence[str] = ("-O2", "-std=c99"),
    workdir: Optional[Path] = None,
    keep_files: bool = False,
    stem: str = "kernel_emu",
    fallback_cflags: Optional[Sequence[str]] = None,
    workdir_prefix: str = "cogent_emu_",
) -> np.ndarray:
    """One-shot compile + run + cleanup around the two helpers above."""
    tmpdir = (
        Path(tempfile.mkdtemp(prefix=workdir_prefix))
        if workdir is None else Path(workdir)
    )
    exe = build_executable(
        source, tmpdir, cc=cc, cflags=cflags, stem=stem,
        fallback_cflags=fallback_cflags,
    )
    result = run_executable(exe, plan, a, b, tmpdir)
    if not keep_files:
        for name in (f"{stem}.c", stem, "A.bin", "B.bin", "C.bin"):
            (tmpdir / name).unlink(missing_ok=True)
        if workdir is None:
            tmpdir.rmdir()
    return result

"""Analytical DRAM transaction cost model (paper Algorithm 3, Section IV-B).

The model estimates the number of 128-byte global-memory transactions a
configuration incurs: loads of both input tiles on every serial step of
every thread block, plus one store of the output tile per thread block.

The key quantity is the *contiguous run*: how many elements of a tensor's
staged tile are contiguous in global memory.  Walking the tensor's indices
from the FVI, tiles equal to the full extent keep the run going; the first
partial tile ends it.  A row of ``TB`` threads loading along the FVI then
needs ``ceil(TB / run) * ceil(run_bytes / 128)`` transactions.

As in the paper, the model deliberately ignores occupancy, caches and
compute throughput — it is a *ranking* device, validated against the
address-trace transaction counter in :mod:`repro.gpu.memory` and the
performance simulator in :mod:`repro.gpu.simulator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .ir import Contraction, TensorRef
from .plan import Axis, KernelPlan, ceil_div

TRANSACTION_BYTES = 128

#: Execution-strategy families the extended cost model compares.  The
#: tuple order is the deterministic tie-break: on equal modeled traffic
#: the earlier strategy wins (direct needs no workspace, batched beats
#: the packing strategies on launch count).
STRATEGY_NAMES = ("direct", "batched", "gett", "ttgt")

#: Memo key: (role, tensor name, ((index, extent, tile), ...), row width,
#: rows per step).  Everything the per-tensor sub-computation depends on
#: besides the instance-wide dtype/transaction widths.
MemoKey = Tuple[str, str, Tuple[Tuple[str, int, int], ...], int, int]


@dataclass(frozen=True)
class TransactionEstimate:
    """Estimated global-memory transactions for one configuration."""

    load_a: int
    load_b: int
    store_c: int
    transaction_bytes: int = TRANSACTION_BYTES

    @property
    def total(self) -> int:
        return self.load_a + self.load_b + self.store_c

    @property
    def bytes(self) -> int:
        return self.total * self.transaction_bytes

    def __str__(self) -> str:
        return (
            f"A={self.load_a} B={self.load_b} C={self.store_c} "
            f"total={self.total} ({self.bytes / 1e6:.2f} MB)"
        )


def run_of_axes(axes: Sequence[Axis]) -> int:
    """``cal_Cont`` over resolved tile axes (storage order, FVI first)."""
    run = 1
    for axis in axes:
        run *= axis.tile
        if axis.tile < axis.extent:
            break
    return run


def contiguous_run(plan: KernelPlan, tensor: TensorRef) -> int:
    """Contiguous elements of ``tensor``'s staged tile in global memory.

    Implements the paper's ``cal_Cont``: the product of tile sizes over
    the leading indices whose tiles cover the full extent, times the tile
    of the first partial index.
    """
    return run_of_axes(plan.tensor_tile_axes(tensor))


def row_transactions(
    row_elements: int, run: int, dtype_bytes: int,
    transaction_bytes: int = TRANSACTION_BYTES,
) -> int:
    """Transactions for one row of threads reading along a tensor's FVI.

    ``row_elements`` elements are read in contiguous segments of at most
    ``run`` elements; each segment costs ``ceil(segment_bytes / 128)``
    aligned transactions.
    """
    if row_elements <= 0:
        return 0
    seg = max(1, min(run, row_elements))
    n_segments = ceil_div(row_elements, seg)
    per_segment = ceil_div(seg * dtype_bytes, transaction_bytes)
    return n_segments * per_segment


def row_transaction_columns(
    row_elements, run, dtype_bytes: int,
    transaction_bytes: int = TRANSACTION_BYTES,
):
    """Vectorized :func:`row_transactions` over integer arrays.

    ``row_elements`` and ``run`` broadcast against each other (the
    columnar engine passes a ``(n_side, 1)`` row-width column against an
    ``(n_side, n_k)`` run table).  The arithmetic is the scalar
    formula's, element-wise in int64, so each cell equals
    ``row_transactions(row, run, ...)`` exactly.
    """
    row = np.asarray(row_elements, dtype=np.int64)
    run = np.asarray(run, dtype=np.int64)
    seg = np.maximum(1, np.minimum(run, row))
    n_segments = -(-row // seg)
    per_segment = -(-(seg * dtype_bytes) // transaction_bytes)
    return np.where(row > 0, n_segments * per_segment, 0)


def row_transactions_paper(row_elements: int, run: int) -> int:
    """Algorithm 3's published formula, verbatim.

    The paper counts ``size_TBx / min(size_Cont, size_TBx)``
    transactions per row — segments only, without the 128-byte
    granularity refinement :func:`row_transactions` adds (so a 32-wide
    double row counts 1 rather than 2).  Kept for fidelity comparisons;
    both formulas rank configurations identically in the common case of
    power-of-two tiles (see tests).
    """
    if row_elements <= 0:
        return 0
    seg = max(1, min(run, row_elements))
    return ceil_div(row_elements, seg)


class CostModel:
    """DRAM data-movement cost of kernel configurations.

    The per-tensor sub-computations — contiguous run, per-row transaction
    count and out-of-bounds coverage — depend only on the tensor's tile
    vector and the row geometry, not on the rest of the configuration.
    Thousands of configurations in one search share identical per-tensor
    tilings, so these sub-results are memoised per model instance, keyed
    on ``(role, tensor, tile-vector, row width, rows per step)``.  The
    ``memo_hits`` / ``memo_misses`` counters expose the cache behaviour
    for tests and :class:`~repro.core.enumeration.SearchStats`.
    """

    def __init__(self, dtype_bytes: int = 8,
                 transaction_bytes: int = TRANSACTION_BYTES) -> None:
        self.dtype_bytes = dtype_bytes
        self.transaction_bytes = transaction_bytes
        #: (per-block-per-step transactions, coverage fraction) by MemoKey.
        self._memo: Dict[MemoKey, Tuple[int, float]] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    # -- memo bookkeeping ---------------------------------------------------

    def memo_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the per-tensor memo table."""
        return {
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "entries": len(self._memo),
        }

    def clear_memo(self) -> None:
        self._memo.clear()
        self.memo_hits = 0
        self.memo_misses = 0

    @staticmethod
    def _axes_signature(
        axes: Sequence[Axis],
    ) -> Tuple[Tuple[str, int, int], ...]:
        return tuple((a.index, a.extent, a.tile) for a in axes)

    def _per_step(
        self,
        role: str,
        name: str,
        axes: Sequence[Axis],
        row_elements: int,
        rows: int,
    ) -> Tuple[int, float]:
        """Memoised (transactions per block-step, coverage) for one tensor."""
        key: MemoKey = (
            role, name, self._axes_signature(axes), row_elements, rows,
        )
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        run = run_of_axes(axes)
        per_row = row_transactions(
            row_elements, run, self.dtype_bytes, self.transaction_bytes
        )
        # Fraction of tile rows in bounds.  Algorithm 3 charges every
        # block a full tile even when tiles do not divide extents; on
        # hardware the bounds predicate suppresses out-of-range rows.
        # The FVI axis is excluded: a partially covered segment still
        # issues its transactions.
        coverage = 1.0
        for axis in axes[1:]:
            coverage *= axis.extent / (axis.num_tiles * axis.tile)
        value = (per_row * rows, coverage)
        self._memo[key] = value
        return value

    # -- per-tensor estimates (Algorithm 3) --------------------------------

    def input_load_transactions(
        self, plan: KernelPlan, tensor: TensorRef, clipped: bool = False
    ) -> int:
        """Transactions to load ``tensor`` across the whole kernel."""
        side = plan.input_side(tensor)
        tb = plan.tb_x if side == "x" else plan.tb_y
        reg = plan.reg_x if side == "x" else plan.reg_y
        # Rows per step: the register-tile extent times the TB_k tile
        # (Algorithm 3 lines 9-10).
        per_step, coverage = self._per_step(
            "load", tensor.name, plan.tensor_tile_axes(tensor),
            tb, reg * plan.tb_k_tile,
        )
        total = per_step * plan.num_steps * plan.num_blocks
        if clipped:
            total = int(total * coverage)
        return total

    def output_store_transactions(
        self, plan: KernelPlan, clipped: bool = False
    ) -> int:
        """Transactions to store the output tile of every thread block."""
        tensor = plan.contraction.c
        per_block, coverage = self._per_step(
            "store", tensor.name, plan.tensor_tile_axes(tensor),
            plan.tb_x, plan.reg_x * plan.tb_y * plan.reg_y,
        )
        total = per_block * plan.num_blocks
        if clipped:
            total = int(total * coverage)
        return total

    # -- whole-kernel estimate -----------------------------------------------

    def estimate(
        self, plan: KernelPlan, clipped: bool = False
    ) -> TransactionEstimate:
        """Transaction estimate for ``plan``.

        ``clipped=False`` is Algorithm 3 as published (used for
        ranking); ``clipped=True`` additionally discounts predicated-off
        out-of-bounds rows and is what the performance simulator
        charges.
        """
        return TransactionEstimate(
            load_a=self.input_load_transactions(
                plan, plan.contraction.a, clipped
            ),
            load_b=self.input_load_transactions(
                plan, plan.contraction.b, clipped
            ),
            store_c=self.output_store_transactions(plan, clipped),
            transaction_bytes=self.transaction_bytes,
        )

    def cost(self, plan: KernelPlan) -> int:
        """Scalar cost used for ranking (total transactions)."""
        return self.estimate(plan).total


# -- execution-strategy traffic model ------------------------------------
#
# The paper's Algorithm 3 costs one *direct* kernel configuration.  The
# strategy layer (repro.strategies) needs the same currency — 128-byte
# DRAM transactions — for whole execution plans that move data in
# passes: TTGT packs inputs with explicit transposes, GETT fuses the
# packing into a GEMM-like macro-kernel, StridedBatchedGEMM strips
# trailing batch dimensions.  The helpers below express every pass as
# "elements moved in contiguous segments of a given run", reusing
# row_transactions / row_transaction_columns so the per-strategy costs
# are evaluated columnar-style over integer-coded suite batches.

#: Sentinel traffic for strategies that do not apply to a contraction
#: (e.g. no batch index for StridedBatchedGEMM).  Large enough to lose
#: every comparison, small enough that int64 sums cannot overflow.
INAPPLICABLE = np.int64(2) ** 62


def pack_moved_bytes(elements: int, dtype_bytes: int) -> int:
    """Bytes one packing/transpose pass moves: each element is read
    once and written once.  The single shared definition of the
    "2 * N * w" arithmetic that used to live ad hoc in
    :mod:`repro.ttgt.transpose`."""
    return 2 * elements * dtype_bytes


def pack_transactions(
    elements: int, read_run: int, dtype_bytes: int,
    transaction_bytes: int = TRANSACTION_BYTES,
) -> int:
    """Transactions of one packing pass (gather-side segmented read of
    ``read_run``-element contiguous runs, fully coalesced write)."""
    read = row_transactions(
        elements, read_run, dtype_bytes, transaction_bytes
    )
    write = row_transactions(
        elements, elements, dtype_bytes, transaction_bytes
    )
    return read + write


def pack_transaction_columns(
    elements, read_run, dtype_bytes: int,
    transaction_bytes: int = TRANSACTION_BYTES,
):
    """Vectorized :func:`pack_transactions` over int64 columns."""
    read = row_transaction_columns(
        elements, read_run, dtype_bytes, transaction_bytes
    )
    write = row_transaction_columns(
        elements, elements, dtype_bytes, transaction_bytes
    )
    return read + write


def common_prefix_run(
    src_order: Sequence[str],
    dst_order: Sequence[str],
    sizes,
) -> int:
    """Contiguous-segment length when gathering ``src``-laid-out data in
    ``dst`` order: the extent product of the longest common index prefix
    (``cal_Cont`` applied to a whole-tensor re-layout).  Equals the
    element count exactly when the two orders are identical."""
    run = 1
    for s, d in zip(src_order, dst_order):
        if s != d:
            break
        run *= sizes[s]
    return run


def batchable_suffix(contraction: Contraction) -> Tuple[str, ...]:
    """Trailing output indices a strided batched GEMM can loop over.

    Walking the output's slowest dimensions inward, an index is
    batchable when the batch candidates present in *each* input occupy
    that input's trailing (slowest) positions — then every batch element
    of every tensor is a contiguous slice and the remaining inner
    contraction is a GEMM per element (the non-holding input broadcasts
    with stride 0, as in Shi et al.'s extended batched BLAS).
    """
    a, b, c = contraction.a, contraction.b, contraction.c
    internal = set(contraction.internal_indices)
    batch: List[str] = []
    for idx in reversed(c.indices):
        if idx in internal:
            break
        cand = set(batch) | {idx}

        def trailing_ok(tensor: TensorRef) -> bool:
            present = [i for i in tensor.indices if i in cand]
            if not present:
                return True
            return set(tensor.indices[-len(present):]) == set(present)

        if not (trailing_ok(a) and trailing_ok(b)):
            break
        batch.insert(0, idx)
    return tuple(batch)


@dataclass(frozen=True)
class StrategyTraffic:
    """Modeled DRAM transactions of one strategy, broken into passes."""

    strategy: str
    macro: int   #: macro-kernel (GEMM / direct-kernel) transactions
    pack: int    #: explicit input packing/transpose passes
    unpack: int  #: explicit output re-layout pass

    @property
    def total(self) -> int:
        return self.macro + self.pack + self.unpack

    @property
    def applicable(self) -> bool:
        return self.total < int(INAPPLICABLE)

    def __str__(self) -> str:
        if not self.applicable:
            return f"{self.strategy}: n/a"
        return (
            f"{self.strategy}: macro={self.macro} pack={self.pack} "
            f"unpack={self.unpack} total={self.total}"
        )


@dataclass(frozen=True)
class StrategyDescriptor:
    """Integer encoding of one contraction for the strategy cost model.

    Mirrors :class:`repro.core.columnar.ColumnarSpace`'s idiom: all the
    layout-dependent quantities are resolved to plain ints up front so
    per-strategy traffic over a whole suite evaluates as vectorized
    int64 column arithmetic.  ``m``/``n``/``k`` and the element counts
    are *per batch element* (for a :class:`~repro.core.batched.\
    BatchedContraction` the inner contraction), with ``batch_mult``
    multiplying every per-element pass.
    """

    m: int
    n: int
    k: int
    batch_mult: int
    # Per-element element counts of A, B, C.
    ea: int
    eb: int
    ec: int
    # TTGT: gather runs of the fixed matricisation passes (== element
    # count when the pass is an identity, i.e. no pass is needed).
    run_ta: int
    run_tb: int
    run_tc: int
    # GETT: best gather run over the two GEMM orientations per operand.
    run_ga: int
    run_gb: int
    # Direct: FVI extents (reference-tile coalescing caps).
    fa: int
    fb: int
    fc: int
    # StridedBatchedGEMM decomposition (zeros when no batch suffix).
    b_count: int
    bm: int
    bn: int
    bk: int
    b_ea: int
    b_eb: int
    b_ec: int
    rep_a: int
    rep_b: int
    b_run_a: int
    b_run_b: int
    b_run_c: int
    b_pack_a: int
    b_pack_b: int
    b_pack_c: int


def strategy_descriptor(contraction) -> StrategyDescriptor:
    """Encode a :class:`Contraction` (or ``BatchedContraction``) for
    :class:`StrategyCostModel`."""
    inner = getattr(contraction, "inner", None)
    if inner is not None:
        # BatchedContraction: direct/TTGT/GETT run per batch element on
        # the stripped inner contraction; the batched strategy fuses the
        # trailing batch dimensions into one strided GEMM call.
        core = inner
        batch = tuple(contraction.batch_indices)
        batch_mult = int(contraction.batch_count)
        outer_a, outer_b, outer_c = (
            contraction.a, contraction.b, contraction.c
        )
        outer_sizes = contraction.sizes
    else:
        core = contraction
        batch = batchable_suffix(contraction)
        batch_mult = 1
        outer_a, outer_b, outer_c = (
            contraction.a, contraction.b, contraction.c
        )
        outer_sizes = contraction.sizes

    sizes = core.sizes
    a, b, c = core.a, core.b, core.c
    ext_a = core.externals_of(a)
    ext_b = core.externals_of(b)
    ints = core.internal_indices
    b_ints = tuple(i for i in b.indices if i in set(ints))

    def prod(indices, table) -> int:
        return math.prod(table[i] for i in indices) or 1

    m = prod(ext_a, sizes)
    n = prod(ext_b, sizes)
    k = prod(ints, sizes)
    ea, eb, ec = m * k, k * n, m * n

    run_ta = common_prefix_run(a.indices, ext_a + ints, sizes)
    run_tb = common_prefix_run(b.indices, ints + ext_b, sizes)
    run_tc = common_prefix_run(ext_a + ext_b, c.indices, sizes)
    run_ga = max(
        common_prefix_run(a.indices, ext_a + ints, sizes),
        common_prefix_run(a.indices, ints + ext_a, sizes),
    )
    run_gb = max(
        common_prefix_run(b.indices, b_ints + ext_b, sizes),
        common_prefix_run(b.indices, ext_b + b_ints, sizes),
    )
    fa = sizes[a.indices[0]] if a.indices else 1
    fb = sizes[b.indices[0]] if b.indices else 1
    fc = sizes[c.indices[0]] if c.indices else 1

    # -- StridedBatchedGEMM columns (on the *outer* tensors) -------------
    if batch:
        batch_set = set(batch)
        b_count = prod(batch, outer_sizes)

        def stripped(tensor: TensorRef) -> Tuple[str, ...]:
            return tuple(i for i in tensor.indices if i not in batch_set)

        sa, sb, sc = stripped(outer_a), stripped(outer_b), \
            stripped(outer_c)
        s_ints = tuple(
            i for i in sa if i in sb and i not in set(sc)
        )
        s_ext_a = tuple(i for i in sa if i in set(sc))
        s_ext_b = tuple(i for i in sb if i in set(sc))
        sb_ints = tuple(i for i in sb if i in set(s_ints))
        bm = prod(s_ext_a, outer_sizes)
        bn = prod(s_ext_b, outer_sizes)
        bk = prod(s_ints, outer_sizes)
        b_ea = prod(outer_a.indices, outer_sizes)
        b_eb = prod(outer_b.indices, outer_sizes)
        b_ec = prod(outer_c.indices, outer_sizes)
        rep_a = b_count // prod(
            tuple(i for i in batch if i in outer_a), outer_sizes
        )
        rep_b = b_count // prod(
            tuple(i for i in batch if i in outer_b), outer_sizes
        )

        def batch_in(tensor: TensorRef) -> Tuple[str, ...]:
            present = set(tensor.indices) & batch_set
            return tuple(i for i in batch if i in present)

        def layout_columns(tensor, group1, group2):
            """(best gather run, pack-needed flag) for one operand whose
            strided-batched layout must be group1+group2 (or the
            transposed orientation) with its batch dims trailing in
            output order."""
            tail = batch_in(tensor)
            t1 = tuple(group1) + tuple(group2) + tail
            t2 = tuple(group2) + tuple(group1) + tail
            run = max(
                common_prefix_run(tensor.indices, t1, outer_sizes),
                common_prefix_run(tensor.indices, t2, outer_sizes),
            )
            needs = 0 if tensor.indices in (t1, t2) else 1
            return run, needs

        b_run_a, b_pack_a = layout_columns(outer_a, s_ext_a, s_ints)
        b_run_b, b_pack_b = layout_columns(outer_b, sb_ints, s_ext_b)
        b_run_c, b_pack_c = layout_columns(outer_c, s_ext_a, s_ext_b)
    else:
        b_count = bm = bn = bk = 0
        b_ea = b_eb = b_ec = 0
        rep_a = rep_b = 1
        b_run_a = b_run_b = b_run_c = 1
        b_pack_a = b_pack_b = b_pack_c = 0

    return StrategyDescriptor(
        m=m, n=n, k=k, batch_mult=batch_mult,
        ea=ea, eb=eb, ec=ec,
        run_ta=run_ta, run_tb=run_tb, run_tc=run_tc,
        run_ga=run_ga, run_gb=run_gb,
        fa=fa, fb=fb, fc=fc,
        b_count=b_count, bm=bm, bn=bn, bk=bk,
        b_ea=b_ea, b_eb=b_eb, b_ec=b_ec,
        rep_a=rep_a, rep_b=rep_b,
        b_run_a=b_run_a, b_run_b=b_run_b, b_run_c=b_run_c,
        b_pack_a=b_pack_a, b_pack_b=b_pack_b, b_pack_c=b_pack_c,
    )


class StrategyCostModel:
    """Packing-aware DRAM-traffic model over execution strategies.

    Every strategy's data movement decomposes into passes, each charged
    with the Algorithm-3 segment arithmetic:

    * **direct** — reference-tile macro-kernel: A re-read once per
      output-tile wave along N (and B along M) at the tensor's native
      coalescing, capped by the FVI tile.
    * **ttgt** — explicit packing passes into matricised layouts (read
      gathered at the common-prefix run, write coalesced), a fully
      coalesced GEMM with K-panel re-reads, and an unpacking pass for
      the output when its layout differs.
    * **gett** — no separate passes: operands are read *in place* at
      their native (possibly poor) gather run once per macro-tile wave,
      with packing fused into cache-resident panels; the output is
      written directly in its final layout.
    * **batched** — trailing batch dimensions stripped; per-element
      GEMM streams (a broadcast operand is re-read per batch element),
      plus packing passes only when an operand's stripped layout is not
      a proper matricisation.

    All passes are evaluated vectorized over int64 descriptor columns
    (:meth:`traffic_matrix`), so ranking the whole 48-entry TCCG suite
    is a handful of NumPy expressions; :meth:`traffic` is the same
    arithmetic at batch size 1, with the per-pass breakdown attached.
    """

    def __init__(
        self,
        dtype_bytes: int = 8,
        transaction_bytes: int = TRANSACTION_BYTES,
        direct_tile: int = 64,
        gett_tile: int = 128,
        gemm_tile: int = 128,
    ) -> None:
        self.dtype_bytes = dtype_bytes
        self.transaction_bytes = transaction_bytes
        #: Reference output-tile edge of the direct kernel (the search
        #: picks real tiles; this is the closed-form stand-in that keeps
        #: suite-wide ranking search-free).
        self.direct_tile = direct_tile
        #: GETT macro-tile edge (M_c = N_c); larger than the direct
        #: reference tile because GETT stages panels through packed
        #: cache-resident buffers.
        self.gett_tile = gett_tile
        #: Vendor-GEMM panel edge used for TTGT and batched GEMM calls.
        self.gemm_tile = gemm_tile

    # -- vectorized core ---------------------------------------------------

    def _columns(self, descriptors: Sequence[StrategyDescriptor]):
        """Stack descriptors into an int64 struct-of-arrays dict."""
        names = StrategyDescriptor.__dataclass_fields__.keys()
        return {
            name: np.array(
                [getattr(d, name) for d in descriptors], dtype=np.int64
            )
            for name in names
        }

    def traffic_parts(
        self, descriptors: Sequence[StrategyDescriptor]
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-strategy ``(macro, pack, unpack)`` int64 columns."""
        cols = self._columns(descriptors)
        w = self.dtype_bytes
        tb = self.transaction_bytes

        def rt(elements, run):
            return row_transaction_columns(elements, run, w, tb)

        def st(elements):
            return rt(elements, elements)

        def pk(elements, run):
            return pack_transaction_columns(elements, run, w, tb)

        def waves(extent, tile):
            return np.maximum(1, -(-extent // tile))

        mult = cols["batch_mult"]
        zero = np.zeros_like(mult)

        # direct: native-layout reads capped at the reference FVI tile,
        # one wave per cross-side output tile.
        r = self.direct_tile
        direct_macro = mult * (
            rt(cols["ea"], np.minimum(cols["fa"], r))
            * waves(cols["n"], r)
            + rt(cols["eb"], np.minimum(cols["fb"], r))
            * waves(cols["m"], r)
            + rt(cols["ec"], np.minimum(cols["fc"], r))
        )

        # ttgt: pack passes where the matricised layout differs,
        # coalesced GEMM with K-panel re-reads, unpack of the output.
        g = self.gemm_tile
        ttgt_pack = mult * (
            np.where(cols["run_ta"] == cols["ea"], 0,
                     pk(cols["ea"], cols["run_ta"]))
            + np.where(cols["run_tb"] == cols["eb"], 0,
                       pk(cols["eb"], cols["run_tb"]))
        )
        ttgt_macro = mult * (
            st(cols["ea"]) * waves(cols["n"], g)
            + st(cols["eb"]) * waves(cols["m"], g)
            + st(cols["ec"])
        )
        ttgt_unpack = mult * np.where(
            cols["run_tc"] == cols["ec"], 0,
            pk(cols["ec"], cols["run_tc"]),
        )

        # gett: fused packing — in-place gather runs, one read per
        # macro-tile wave, direct store of the output layout.
        t = self.gett_tile
        gett_macro = mult * (
            rt(cols["ea"], cols["run_ga"]) * waves(cols["n"], t)
            + rt(cols["eb"], cols["run_gb"]) * waves(cols["m"], t)
            + rt(cols["ec"], cols["run_tc"])
        )

        # batched: per-element GEMM streams over the full tensors
        # (broadcast operands re-read), pack/unpack only on layout
        # mismatch.
        applicable = cols["b_count"] > 1
        b_pack = (
            cols["b_pack_a"] * pk(cols["b_ea"], cols["b_run_a"])
            + cols["b_pack_b"] * pk(cols["b_eb"], cols["b_run_b"])
        )
        b_macro = (
            st(cols["b_ea"] * cols["rep_a"]) * waves(cols["bn"], g)
            + st(cols["b_eb"] * cols["rep_b"]) * waves(cols["bm"], g)
            + st(cols["b_ec"])
        )
        b_unpack = cols["b_pack_c"] * pk(cols["b_ec"], cols["b_run_c"])
        b_macro = np.where(applicable, b_macro, INAPPLICABLE)
        b_pack = np.where(applicable, b_pack, zero)
        b_unpack = np.where(applicable, b_unpack, zero)

        return {
            "direct": (direct_macro, zero, zero),
            "batched": (b_macro, b_pack, b_unpack),
            "gett": (gett_macro, zero, zero),
            "ttgt": (ttgt_macro, ttgt_pack, ttgt_unpack),
        }

    def traffic_matrix(
        self, descriptors: Sequence[StrategyDescriptor]
    ) -> np.ndarray:
        """``(n_contractions, len(STRATEGY_NAMES))`` total transactions;
        inapplicable strategies carry :data:`INAPPLICABLE`."""
        parts = self.traffic_parts(descriptors)
        return np.stack(
            [sum(parts[name]) for name in STRATEGY_NAMES], axis=1
        )

    # -- scalar surface ---------------------------------------------------

    def traffic(self, contraction) -> Dict[str, StrategyTraffic]:
        """Per-strategy traffic breakdown for one contraction.

        Exactly the columnar arithmetic at batch size one, so suite
        rankings and single-shape queries can never disagree.
        """
        parts = self.traffic_parts([strategy_descriptor(contraction)])
        return {
            name: StrategyTraffic(
                strategy=name,
                macro=int(parts[name][0][0]),
                pack=int(parts[name][1][0]),
                unpack=int(parts[name][2][0]),
            )
            for name in STRATEGY_NAMES
        }

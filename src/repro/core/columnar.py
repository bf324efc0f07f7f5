"""Struct-of-arrays (columnar) search engine over configuration batches.

Checking one configuration through a Python
:class:`~repro.core.plan.KernelPlan` runs ~10 rule methods plus a cost
estimate.  Everything those rules and Algorithm 3 compute, however, is
closed-form integer arithmetic over the per-family tile choices — so
the whole prune-and-rank pipeline vectorizes.

This module encodes each candidate family — the ``(TB_x, REG_x)``
partials, the ``(TB_y, REG_y)`` partials and the ``TB_k`` tilings — as
integer NumPy columns (per-index tile sizes, dimension-size products,
block/step counts), precomputes the pairwise contiguous-run and
row-transaction tables Algorithm 3 needs, and evaluates every hardware
and performance constraint of Algorithm 2 as one boolean predicate per
rule over a whole batch of Cartesian-product positions.

Exactness contract: for every product position, each vectorized
predicate agrees with the corresponding
:class:`~repro.core.constraints.ConstraintChecker` ``_rule_*`` method,
:meth:`ColumnarBatch.costs` equals
:meth:`repro.core.costmodel.CostModel.cost` bit-for-bit, and the
per-tensor columns of :meth:`ColumnarBatch.clipped_traffic` equal
``CostModel.estimate(plan, clipped=True)``'s ``load_a``/``load_b``/
``store_c``.  Costs are int64 arithmetic; the floats — the occupancy
fraction (:func:`repro.gpu.occupancy.occupancy_columns`) and the
clipped traffic's coverage factors — repeat the per-plan operations in
the same order, so they round identically.
The per-plan object search in ``tests/oracles/search.py`` is the
oracle; the property tests in ``tests/test_columnar.py`` pin the
agreement.  :meth:`repro.gpu.simulator.GpuSimulator.simulate_batch`
reads these columns for the top-k re-rank.

A flat product position ``p`` decomposes fastest-last to match
``itertools.product(x_partials, y_partials, k_partials)``:
``ki = p % n_k``, ``yi = (p // n_k) % n_y``, ``xi = p // (n_k * n_y)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..gpu.arch import GpuArch
from ..gpu.occupancy import occupancy_columns
from .constraints import (
    HARDWARE_RULES,
    PERFORMANCE_RULES,
    ConstraintChecker,
    ConstraintPolicy,
)
from .costmodel import row_transaction_columns
from .ir import Contraction, TensorRef
from .mapping import (
    Dim,
    KernelConfig,
    canonical_key_from_spec,
    config_from_spec,
)
from .plan import decompose_array

Entry = Tuple[str, int]

#: Product positions evaluated per batch.  Large enough that the numpy
#: dispatch overhead amortises, small enough that a worker's batch
#: stripe stays cache-resident.
DEFAULT_BATCH_SIZE = 32768


def _ceil_div(a, b):
    return -(-a // b)


@dataclass(frozen=True)
class SidePartial:
    """A partial configuration for one side: TB entries + REG entries."""

    tb: Tuple[Entry, ...]
    reg: Tuple[Entry, ...]


@dataclass
class BatchVerdict:
    """Per-row classification of one batch plus per-rule telemetry."""

    #: Rows passing every hardware rule (runnable at all).
    feasible: np.ndarray
    #: Rows passing both rule families.
    accepted: np.ndarray
    #: Rule name -> (rows reaching the rule, rows newly rejected,
    #: predicate seconds).  Rules run in canonical order on the rows
    #: still alive, so each pruned row is charged to exactly one rule.
    rule_counts: Dict[str, Tuple[int, int, float]]

    @property
    def hardware_rejected(self) -> np.ndarray:
        return ~self.feasible

    @property
    def performance_rejected(self) -> np.ndarray:
        return self.feasible & ~self.accepted


class ColumnarSpace:
    """The three candidate families as integer-coded NumPy columns.

    Construction cost is O(families + pairwise tables), after which any
    batch of the ``n_x * n_y * n_k`` Cartesian product evaluates with a
    fixed number of array operations, independent of batch size.
    """

    def __init__(
        self,
        contraction: Contraction,
        arch: GpuArch,
        x_partials: Sequence,
        y_partials: Sequence,
        k_partials: Sequence[Tuple[Entry, ...]],
        dtype_bytes: int = 8,
        policy: Optional[ConstraintPolicy] = None,
        transaction_bytes: Optional[int] = None,
    ) -> None:
        self.contraction = contraction
        self.arch = arch
        self.dtype_bytes = dtype_bytes
        self.policy = policy or ConstraintPolicy()
        self.transaction_bytes = (
            arch.transaction_bytes if transaction_bytes is None
            else transaction_bytes
        )
        self.x_partials = list(x_partials)
        self.y_partials = list(y_partials)
        self.k_partials = [tuple(kp) for kp in k_partials]
        self._extents = {
            i: contraction.extent(i) for i in contraction.all_indices
        }

        x_governed = contraction.externals_of(contraction.x_input)
        y_governed = contraction.externals_of(contraction.y_input)
        k_governed = contraction.internal_indices

        (self._x_tiles, self.tb_x_size, self.reg_x_size,
         self.blocks_x) = self._side_columns(self.x_partials, x_governed)
        (self._y_tiles, self.tb_y_size, self.reg_y_size,
         self.blocks_y) = self._side_columns(self.y_partials, y_governed)
        self._k_tiles, self.tbk_tile, self.steps_k = self._k_columns(
            self.k_partials, k_governed
        )
        self.block_tile_x = self.tb_x_size * self.reg_x_size
        self.block_tile_y = self.tb_y_size * self.reg_y_size

        # Store coalescing (Algorithm 2): TB_x must lead with the
        # output FVI.  A pure per-x-partial property.
        fvi = contraction.c.fvi
        self.store_violation = np.array(
            [not (p.tb and p.tb[0][0] == fvi) for p in self.x_partials],
            dtype=bool,
        )
        # Load coalescing: each input's FVI tile against its floor.
        self._load_fvi_checks: List[Tuple[str, np.ndarray, int]] = []
        for tensor in (contraction.a, contraction.b):
            t_fvi = tensor.fvi
            family = self._family_of(t_fvi)
            column = self._tiles(family)[t_fvi]
            floor = min(self.policy.min_fvi_tile, self._extents[t_fvi])
            self._load_fvi_checks.append((family, column, floor))
        # Scalar thresholds, identical to the ConstraintChecker's.
        self.min_blocks_required = min(
            int(self.policy.min_blocks_per_sm * arch.num_sms),
            ConstraintChecker._max_possible_blocks(contraction),
        )
        self.min_threads_required = min(
            self.policy.min_threads,
            ConstraintChecker._max_possible_threads(contraction),
        )

        self._build_pair_tables()

    # -- geometry --------------------------------------------------------

    @property
    def n_x(self) -> int:
        return len(self.x_partials)

    @property
    def n_y(self) -> int:
        return len(self.y_partials)

    @property
    def n_k(self) -> int:
        return len(self.k_partials)

    @property
    def size(self) -> int:
        """Rows of the full Cartesian product."""
        return self.n_x * self.n_y * self.n_k

    def coords_of(
        self, positions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(xi, yi, ki) family rows for flat product positions."""
        ki, yi, xi = decompose_array(
            positions, (self.n_k, self.n_y, self.n_x)
        )
        return xi, yi, ki

    def batch(self, positions: np.ndarray) -> "ColumnarBatch":
        return ColumnarBatch(self, np.asarray(positions, dtype=np.int64))

    @classmethod
    def batch_of(
        cls,
        contraction: Contraction,
        arch: GpuArch,
        configs: Sequence[KernelConfig],
        dtype_bytes: int = 8,
    ) -> "ColumnarBatch":
        """A batch whose rows are ``configs``, in order.

        The families are the configs' own partials (deduplicated), so
        the space is only as large as the distinct partials among
        ``configs``; GRID indices keep tile 1, as every config has it.
        """
        x_rows: Dict[SidePartial, int] = {}
        y_rows: Dict[SidePartial, int] = {}
        k_rows: Dict[Tuple[Entry, ...], int] = {}
        coords = []
        for config in configs:
            x, y, k = _partials(config)
            coords.append((
                x_rows.setdefault(x, len(x_rows)),
                y_rows.setdefault(y, len(y_rows)),
                k_rows.setdefault(k, len(k_rows)),
            ))
        space = cls(contraction, arch, list(x_rows), list(y_rows),
                    list(k_rows), dtype_bytes=dtype_bytes)
        return space.batch(np.array(
            [(x * space.n_y + y) * space.n_k + k for x, y, k in coords],
            dtype=np.int64,
        ))

    # -- materialisation (final survivors only) --------------------------

    def partials_at(self, position: int):
        ki = position % self.n_k
        rest = position // self.n_k
        yi = rest % self.n_y
        xi = rest // self.n_y
        return self.x_partials[xi], self.y_partials[yi], self.k_partials[ki]

    def spec_at(self, position: int) -> Dict[str, Tuple[Entry, ...]]:
        """``config_from_spec`` keyword payload for one position."""
        xp, yp, kp = self.partials_at(position)
        return {
            "tb_x": xp.tb, "tb_y": yp.tb,
            "reg_x": xp.reg, "reg_y": yp.reg, "tb_k": kp,
        }

    def key_at(self, position: int) -> str:
        """Canonical key of the position's config, without building it."""
        return canonical_key_from_spec(self.contraction, **self.spec_at(position))

    def config_at(self, position: int) -> KernelConfig:
        return config_from_spec(
            self.contraction, fill_defaults=True, **self.spec_at(position)
        )

    # -- family columns ---------------------------------------------------

    def _side_columns(self, partials, governed):
        n = len(partials)
        tiles = {i: np.ones(n, dtype=np.int64) for i in governed}
        tb_size = np.ones(n, dtype=np.int64)
        reg_size = np.ones(n, dtype=np.int64)
        for row, partial in enumerate(partials):
            for name, tile in partial.tb:
                tiles[name][row] = tile
                tb_size[row] *= tile
            for name, tile in partial.reg:
                tiles[name][row] = tile
                reg_size[row] *= tile
        blocks = np.ones(n, dtype=np.int64)
        for name in governed:
            blocks *= _ceil_div(self._extents[name], tiles[name])
        return tiles, tb_size, reg_size, blocks

    def _k_columns(self, partials, governed):
        n = len(partials)
        tiles = {i: np.ones(n, dtype=np.int64) for i in governed}
        tbk = np.ones(n, dtype=np.int64)
        for row, entries in enumerate(partials):
            for name, tile in entries:
                tiles[name][row] = tile
                tbk[row] *= tile
        steps = np.ones(n, dtype=np.int64)
        for name in governed:
            steps *= _ceil_div(self._extents[name], tiles[name])
        return tiles, tbk, steps

    def _family_of(self, index: str) -> str:
        if index in self._x_tiles:
            return "x"
        if index in self._y_tiles:
            return "y"
        return "k"

    def _tiles(self, family: str) -> Dict[str, np.ndarray]:
        return {
            "x": self._x_tiles, "y": self._y_tiles, "k": self._k_tiles,
        }[family]

    def _family_len(self, family: str) -> int:
        return {"x": self.n_x, "y": self.n_y, "k": self.n_k}[family]

    def coord_for(self, batch: "ColumnarBatch", family: str) -> np.ndarray:
        return {"x": batch.xi, "y": batch.yi, "k": batch.ki}[family]

    # -- Algorithm-3 pair tables -----------------------------------------

    def _build_pair_tables(self) -> None:
        c = self.contraction
        self.load_x_per_step = self._load_table(c.x_input, "x")
        self.load_y_per_step = self._load_table(c.y_input, "y")
        # Output store: rows of TB_x threads, REG_x * TB_y * REG_y rows
        # per block, one store per block (Algorithm 3 lines 12-14).
        run_c = self._run_table(c.c, ("x", "y"))
        row_tx = row_transaction_columns(
            self.tb_x_size[:, None], run_c,
            self.dtype_bytes, self.transaction_bytes,
        )
        rows = self.reg_x_size[:, None] * (
            self.tb_y_size * self.reg_y_size
        )[None, :]
        self.store_per_block = row_tx * rows

    def _load_table(self, tensor: TensorRef, side: str) -> np.ndarray:
        """Per-(side partial, k partial) load transactions per step.

        Algorithm 3 lines 9-10: rows of ``TB_side`` threads along the
        tensor's FVI, ``REG_side * TB_k`` rows per step.
        """
        run = self._run_table(tensor, (side, "k"))
        tb = (self.tb_x_size if side == "x" else self.tb_y_size)[:, None]
        reg = (self.reg_x_size if side == "x" else self.reg_y_size)[:, None]
        row_tx = row_transaction_columns(
            tb, run, self.dtype_bytes, self.transaction_bytes
        )
        return row_tx * reg * self.tbk_tile[None, :]

    def _run_table(
        self, tensor: TensorRef, families: Tuple[str, str]
    ) -> np.ndarray:
        """Contiguous run (``cal_Cont``) over the two governing families.

        Walks the tensor's indices in storage order; an axis contributes
        its tile while every earlier axis is tiled at full extent, and
        the first partial tile ends the run — the closed form of
        :func:`repro.core.costmodel.run_of_axes` per table cell.
        """
        shape = (self._family_len(families[0]), self._family_len(families[1]))
        run = np.ones(shape, dtype=np.int64)
        full_so_far = np.ones(shape, dtype=bool)
        for index in tensor.indices:
            family = self._family_of(index)
            column = self._tiles(family)[index]
            if family == families[0]:
                tile = column[:, None]
            elif family == families[1]:
                tile = column[None, :]
            else:
                raise ValueError(
                    f"index {index!r} of tensor {tensor.name!r} belongs to "
                    f"family {family!r}, outside the table's {families}"
                )
            run = np.where(full_so_far, run * tile, run)
            full_so_far = full_so_far & (tile == self._extents[index])
        return run


def _partials(config: KernelConfig) -> Tuple:
    """A config's (x partial, y partial, TB_k entries), in one pass.

    Compares dims by identity: hashing an Enum member runs Python code,
    and this runs once per mapping of every re-ranked config.
    """
    tb_x, reg_x, tb_y, reg_y, tb_k = [], [], [], [], []
    for m in config.mappings:
        dim = m.dim
        entry = (m.index, m.tile)
        if dim is Dim.TB_X:
            tb_x.append(entry)
        elif dim is Dim.REG_X:
            reg_x.append(entry)
        elif dim is Dim.TB_Y:
            tb_y.append(entry)
        elif dim is Dim.REG_Y:
            reg_y.append(entry)
        elif dim is Dim.TB_K:
            tb_k.append(entry)
    return (
        SidePartial(tuple(tb_x), tuple(reg_x)),
        SidePartial(tuple(tb_y), tuple(reg_y)),
        tuple(tb_k),
    )


class ColumnarBatch:
    """One batch of flat product positions with lazily derived columns."""

    def __init__(self, space: ColumnarSpace, positions: np.ndarray) -> None:
        self.space = space
        self.positions = positions
        self.xi, self.yi, self.ki = space.coords_of(positions)

    def __len__(self) -> int:
        return len(self.positions)

    # -- derived columns (gathered from the family columns) ---------------

    @cached_property
    def threads(self) -> np.ndarray:
        sp = self.space
        return sp.tb_x_size[self.xi] * sp.tb_y_size[self.yi]

    @cached_property
    def smem_bytes(self) -> np.ndarray:
        sp = self.space
        elements = (
            sp.block_tile_x[self.xi] + sp.block_tile_y[self.yi]
        ) * sp.tbk_tile[self.ki]
        return elements * sp.dtype_bytes

    @cached_property
    def registers(self) -> np.ndarray:
        reg_x, reg_y = self.reg_x, self.reg_y
        words = self.space.dtype_bytes // 4
        return (reg_x * reg_y + reg_x + reg_y) * words + 24

    @cached_property
    def num_blocks(self) -> np.ndarray:
        sp = self.space
        return sp.blocks_x[self.xi] * sp.blocks_y[self.yi]

    @cached_property
    def num_steps(self) -> np.ndarray:
        return self.space.steps_k[self.ki]

    @cached_property
    def reg_x(self) -> np.ndarray:
        return self.space.reg_x_size[self.xi]

    @cached_property
    def reg_y(self) -> np.ndarray:
        return self.space.reg_y_size[self.yi]

    @cached_property
    def tb_k(self) -> np.ndarray:
        return self.space.tbk_tile[self.ki]

    @cached_property
    def occupancy_fraction(self) -> np.ndarray:
        """Vectorized :func:`repro.gpu.occupancy.compute_occupancy`.

        :func:`~repro.gpu.occupancy.occupancy_columns` runs the same
        integer min over the per-SM limits and the same float division,
        so the fraction compared against the policy floor is
        bit-identical to the per-plan one.
        """
        return occupancy_columns(
            self.space.arch, self.threads, self.smem_bytes, self.registers
        )[1]

    # -- vectorized Algorithm-2 predicates --------------------------------

    def violation_mask(self, name: str) -> np.ndarray:
        """Boolean violation mask of one rule over the whole batch."""
        return getattr(self, f"_viol_{name}")()

    def _viol_smem(self) -> np.ndarray:
        return self.smem_bytes > self.space.arch.shared_mem_per_block

    def _viol_registers(self) -> np.ndarray:
        return self.registers > self.space.arch.max_registers_per_thread

    def _viol_max_threads(self) -> np.ndarray:
        return self.threads > self.space.arch.max_threads_per_block

    def _viol_nonempty_block(self) -> np.ndarray:
        return self.threads < 1

    def _viol_store_coalescing(self) -> np.ndarray:
        return self.space.store_violation[self.xi]

    def _viol_load_coalescing(self) -> np.ndarray:
        violation = np.zeros(len(self), dtype=bool)
        for family, column, floor in self.space._load_fvi_checks:
            coords = self.space.coord_for(self, family)
            violation |= column[coords] < floor
        return violation

    def _viol_min_blocks(self) -> np.ndarray:
        return self.num_blocks < self.space.min_blocks_required

    def _viol_min_threads(self) -> np.ndarray:
        return self.threads < self.space.min_threads_required

    def _viol_occupancy(self) -> np.ndarray:
        return self.occupancy_fraction < self.space.policy.min_occupancy

    def _viol_max_steps(self) -> np.ndarray:
        max_steps = self.space.policy.max_steps
        if not max_steps:
            return np.zeros(len(self), dtype=bool)
        return self.num_steps > max_steps

    # -- classification ----------------------------------------------------

    def classify(self) -> BatchVerdict:
        """Run both rule families over the batch, counting per rule.

        Rules run in canonical declaration order with an alive mask, so
        ``checks`` counts the rows that would reach each rule under
        canonical short-circuiting and every rejected row is charged to
        exactly one rule.
        """
        alive = np.ones(len(self), dtype=bool)
        rule_counts: Dict[str, Tuple[int, int, float]] = {}
        for name in HARDWARE_RULES:
            alive = self._run_rule(name, alive, rule_counts)
        feasible = alive.copy()
        for name in PERFORMANCE_RULES:
            alive = self._run_rule(name, alive, rule_counts)
        return BatchVerdict(feasible, alive, rule_counts)

    def _run_rule(
        self,
        name: str,
        alive: np.ndarray,
        rule_counts: Dict[str, Tuple[int, int, float]],
    ) -> np.ndarray:
        start = time.perf_counter()
        violation = self.violation_mask(name)
        elapsed = time.perf_counter() - start
        rejected = alive & violation
        rule_counts[name] = (
            int(alive.sum()), int(rejected.sum()), elapsed,
        )
        return alive & ~violation

    # -- Algorithm-3 cost --------------------------------------------------

    def costs(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Total DRAM transactions per row (Algorithm 3, exact int64).

        ``loads = (row_tx * REG * TB_k) * steps * blocks`` for each
        input, ``stores = (row_tx_C * REG_x * TB_y * REG_y) * blocks``;
        equals ``CostModel.cost`` of the materialised plan.
        """
        if mask is None:
            xi, yi, ki = self.xi, self.yi, self.ki
        else:
            xi, yi, ki = self.xi[mask], self.yi[mask], self.ki[mask]
        sp = self.space
        blocks = sp.blocks_x[xi] * sp.blocks_y[yi]
        loads = (
            sp.load_x_per_step[xi, ki] + sp.load_y_per_step[yi, ki]
        ) * sp.steps_k[ki] * blocks
        stores = sp.store_per_block[xi, yi] * blocks
        return loads + stores

    def clipped_traffic(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row ``(load_a, load_b, store_c)`` transactions, clipped.

        The :meth:`costs` terms per tensor, each scaled by the tensor's
        in-bounds row ``coverage`` (the product over its non-FVI axes
        of ``extent / (num_tiles * tile)``, in storage order) and
        truncated — equal to ``CostModel.estimate(plan, clipped=True)``
        of the materialised plan.
        """
        sp = self.space
        c = sp.contraction
        blocks = self.num_blocks
        steps = self.num_steps
        x_loads = sp.load_x_per_step[self.xi, self.ki] * steps * blocks
        y_loads = sp.load_y_per_step[self.yi, self.ki] * steps * blocks
        a_on_x = c.a is c.x_input or c.a.name == c.x_input.name
        load_a, load_b = (x_loads, y_loads) if a_on_x else (y_loads, x_loads)
        stores = sp.store_per_block[self.xi, self.yi] * blocks
        return tuple(
            (total * self._coverage(tensor)).astype(np.int64)
            for tensor, total in (
                (c.a, load_a), (c.b, load_b), (c.c, stores),
            )
        )

    def _coverage(self, tensor: TensorRef) -> np.ndarray:
        """In-bounds row fraction of ``tensor``'s tiles, per row."""
        sp = self.space
        coverage = np.ones(len(self), dtype=np.float64)
        for index in tensor.indices[1:]:
            family = sp._family_of(index)
            tile = sp._tiles(family)[index][sp.coord_for(self, family)]
            extent = sp._extents[index]
            coverage = coverage * (extent / (_ceil_div(extent, tile) * tile))
        return coverage

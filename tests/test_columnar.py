"""Tests for the columnar (struct-of-arrays) search engine.

The per-plan object search (``tests/oracles/search.py``: the
checker's rule methods + :class:`CostModel` over materialised
:class:`KernelPlan` objects) is the oracle; these tests pin the
columnar search to it:

* oracle parity — identical top-k (cost, canonical key, config),
  pruning statistics, fallback sets and per-rule counters on real
  contractions, serial and sharded;
* hypothesis property tests — every vectorized rule predicate agrees
  with the corresponding ``_rule_*`` method, the closed-form
  Algorithm-3 cost equals ``CostModel.cost`` and the clipped traffic
  columns equal ``CostModel.estimate(plan, clipped=True)`` exactly, per
  product position, on random contractions;
* a plain search emitting no deprecation warnings.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import parse
from repro.core.constraints import HARDWARE_RULES, PERFORMANCE_RULES
from repro.core.costmodel import CostModel, row_transaction_columns
from repro.core.columnar import ColumnarSpace
from repro.core.enumeration import Enumerator
from repro.core.ir import Contraction, TensorRef
from repro.core.mapping import canonical_key, canonical_key_from_spec
from repro.core.plan import KernelPlan
from repro.gpu.arch import PASCAL_P100, VOLTA_V100
from tests.oracles.search import object_search

ALPHABET = "abcdefgh"


@st.composite
def contractions(draw, max_ext=3, max_int=2, max_extent=6):
    """Random valid binary contractions with bound extents."""
    n_ext_a = draw(st.integers(1, max_ext))
    n_ext_b = draw(st.integers(0, max_ext - 1))
    n_int = draw(st.integers(0 if n_ext_b else 1, max_int))
    names = list(ALPHABET[: n_ext_a + n_ext_b + n_int])
    ext_a = names[:n_ext_a]
    ext_b = names[n_ext_a:n_ext_a + n_ext_b]
    ints = names[n_ext_a + n_ext_b:]

    def shuffle(items):
        items = list(items)
        perm = draw(st.permutations(items)) if len(items) > 1 else items
        return list(perm)

    a_indices = shuffle(ext_a + ints)
    b_indices = shuffle(ext_b + ints)
    c_indices = shuffle(ext_a + ext_b)
    if not b_indices:
        b_indices = ints
    sizes = {name: draw(st.integers(1, max_extent)) for name in names}
    return Contraction(
        c=TensorRef("C", tuple(c_indices)),
        a=TensorRef("A", tuple(a_indices)),
        b=TensorRef("B", tuple(b_indices)),
        sizes=sizes,
    )


def _ranked(result):
    return list(zip(result.costs, [c.describe() for c in result.configs]))


def _search(contraction, engine, arch=VOLTA_V100, keep=16, **kwargs):
    """``engine="columnar"`` runs the production search, ``"object"``
    the per-plan oracle."""
    enumerator = Enumerator(contraction, arch, **kwargs)
    if engine == "object":
        return object_search(enumerator, keep=keep)
    return enumerator.search(keep=keep)


PARITY_CASES = [
    ("abcd-aebf-dfce", 24),                      # paper Eq. 1
    ("ab-ak-kb", {"a": 24, "b": 16, "k": 12}),   # matmul
    ("abc-bda-dc", {"a": 7, "b": 9, "c": 10, "d": 11}),  # TTM-like
    ("ab-ak-kb", 4),                             # tiny: everything pruned
]


# -- oracle parity ----------------------------------------------------------


@pytest.mark.parametrize("expr,sizes", PARITY_CASES)
def test_topk_parity(expr, sizes):
    contraction = parse(expr, sizes)
    obj = _search(contraction, "object")
    col = _search(contraction, "columnar")
    assert _ranked(col) == _ranked(obj)
    assert col.stats == obj.stats
    assert list(col.reject_costs) == list(obj.reject_costs)
    assert [c.describe() for c in col.feasible_rejects] == [
        c.describe() for c in obj.feasible_rejects
    ]


def test_topk_parity_p100():
    contraction = parse("abcd-aebf-dfce", 16)
    obj = _search(contraction, "object", arch=PASCAL_P100)
    col = _search(contraction, "columnar", arch=PASCAL_P100)
    assert _ranked(col) == _ranked(obj)


def test_sharded_columnar_matches_serial():
    contraction = parse("abcd-aebf-dfce", 24)
    serial = _search(contraction, "columnar")
    sharded = Enumerator(contraction, VOLTA_V100).search(
        keep=16, workers=4
    )
    assert _ranked(sharded) == _ranked(serial)
    assert sharded.stats == serial.stats
    assert sharded.search_stats.shards == 4


def test_small_batches_match_one_batch():
    contraction = parse("abcd-aebf-dfce", 24)
    one = _search(contraction, "columnar")
    small = _search(contraction, "columnar", batch_size=64)
    assert _ranked(small) == _ranked(one)
    assert small.stats == one.stats
    assert list(small.reject_costs) == list(one.reject_costs)


# -- per-rule telemetry -----------------------------------------------------


def test_columnar_rule_stats_totals():
    """Batched rule counts land in the checker and sum consistently."""
    contraction = parse("abcd-aebf-dfce", 24)
    enumerator = Enumerator(contraction, VOLTA_V100)
    result = enumerator.search(keep=8)
    stats = enumerator.checker.rule_stats
    total_rejections = sum(s.rejections for s in stats.values())
    assert total_rejections == (
        result.stats.hardware_pruned + result.stats.performance_pruned
    )
    # every row reaches the first canonical rule
    assert stats[HARDWARE_RULES[0]].checks == result.stats.raw_combinations


def test_rule_counters_match_oracle():
    """Both searches charge each pruned row to its first canonical rule."""
    contraction = parse("abcd-aebf-dfce", 24)
    col, obj = Enumerator(contraction, VOLTA_V100), \
        Enumerator(contraction, VOLTA_V100)
    col.search(keep=8)
    object_search(obj, keep=8)
    for name in HARDWARE_RULES + PERFORMANCE_RULES:
        a, b = col.checker.rule_stats[name], obj.checker.rule_stats[name]
        assert (a.checks, a.rejections) == (b.checks, b.rejections), name


# -- plain search ------------------------------------------------------------


def test_search_without_checker_kwarg_warns_nothing():
    contraction = parse("ab-ak-kb", {"a": 24, "b": 16, "k": 12})
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        Enumerator(contraction, VOLTA_V100).search(keep=4)


# -- hypothesis: predicates and cost against the object oracle --------------


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data(), contraction=contractions())
def test_vectorized_predicates_match_rule_methods(data, contraction):
    """Each batch predicate equals the object rule, position by position."""
    enumerator = Enumerator(contraction, VOLTA_V100)
    space = enumerator.columnar_space()
    if space.size == 0:
        return
    checker = enumerator.checker
    positions = np.arange(space.size, dtype=np.int64)
    if space.size > 24:
        picks = data.draw(
            st.lists(
                st.integers(0, space.size - 1),
                min_size=8, max_size=24, unique=True,
            )
        )
        positions = np.array(sorted(picks), dtype=np.int64)
    batch = space.batch(positions)
    masks = {
        name: batch.violation_mask(name)
        for name in HARDWARE_RULES + PERFORMANCE_RULES
    }
    model = CostModel(space.dtype_bytes, space.transaction_bytes)
    costs = batch.costs()
    for row, position in enumerate(positions):
        config = space.config_at(int(position))
        plan = KernelPlan(contraction, config, space.dtype_bytes)
        for name in HARDWARE_RULES + PERFORMANCE_RULES:
            rule = getattr(checker, f"_rule_{name}")
            assert bool(masks[name][row]) == (rule(plan) is not None), (
                f"rule {name} disagrees at position {position} "
                f"for {contraction} config {config.describe()}"
            )
        assert int(costs[row]) == model.cost(plan), (
            f"cost disagrees at position {position} for {contraction}"
        )
        assert space.key_at(int(position)) == canonical_key(config)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(contraction=contractions())
def test_full_search_parity_on_random_contractions(contraction):
    obj = _search(contraction, "object", keep=8)
    col = _search(contraction, "columnar", keep=8)
    assert _ranked(col) == _ranked(obj)
    assert col.stats == obj.stats
    assert list(col.reject_costs or []) == list(obj.reject_costs or [])


def _assert_clipped_traffic_matches(space, positions):
    batch = space.batch(positions)
    load_a, load_b, store_c = batch.clipped_traffic()
    model = CostModel(space.dtype_bytes, space.transaction_bytes)
    for row, position in enumerate(positions):
        plan = KernelPlan(
            space.contraction, space.config_at(int(position)),
            space.dtype_bytes,
        )
        estimate = model.estimate(plan, clipped=True)
        assert (
            int(load_a[row]), int(load_b[row]), int(store_c[row])
        ) == (estimate.load_a, estimate.load_b, estimate.store_c), (
            f"clipped traffic disagrees at position {position} "
            f"for {space.contraction} config {plan.config.describe()}"
        )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    data=st.data(),
    contraction=contractions(max_extent=9),
    dtype_bytes=st.sampled_from([4, 8]),
)
def test_clipped_traffic_matches_estimate(data, contraction, dtype_bytes):
    """Per-tensor clipped columns equal the per-plan clipped estimate."""
    space = Enumerator(
        contraction, VOLTA_V100, dtype_bytes
    ).columnar_space()
    if space.size == 0:
        return
    positions = np.arange(min(space.size, 24), dtype=np.int64)
    if space.size > 24:
        positions = np.array(sorted(data.draw(st.lists(
            st.integers(0, space.size - 1),
            min_size=8, max_size=24, unique=True,
        ))), dtype=np.int64)
    _assert_clipped_traffic_matches(space, positions)


@pytest.mark.parametrize("expr,sizes", PARITY_CASES[:3])
def test_clipped_traffic_matches_estimate_on_parity_cases(expr, sizes):
    space = Enumerator(parse(expr, sizes), PASCAL_P100).columnar_space()
    step = max(1, space.size // 97)
    _assert_clipped_traffic_matches(
        space, np.arange(0, space.size, step, dtype=np.int64)
    )


def test_batch_of_rows_are_the_configs():
    contraction = parse("abcd-aebf-dfce", 24)
    configs = Enumerator(contraction, VOLTA_V100).search(keep=32).configs
    batch = ColumnarSpace.batch_of(contraction, VOLTA_V100, configs)
    assert len(batch) == len(configs)
    assert [
        batch.space.config_at(int(p)).describe() for p in batch.positions
    ] == [config.describe() for config in configs]
    space = batch.space
    assert max(space.n_x, space.n_y, space.n_k) <= len(configs)


@given(
    row=st.integers(0, 4096),
    run=st.integers(1, 4096),
    dtype_bytes=st.sampled_from([4, 8]),
)
def test_row_transaction_columns_matches_scalar(row, run, dtype_bytes):
    from repro.core.costmodel import row_transactions

    vectorized = row_transaction_columns(
        np.array([row]), np.array([run]), dtype_bytes
    )
    assert int(vectorized[0]) == row_transactions(row, run, dtype_bytes)


@settings(max_examples=20, deadline=None)
@given(contraction=contractions())
def test_canonical_key_from_spec_matches_config(contraction):
    enumerator = Enumerator(contraction, VOLTA_V100)
    space = enumerator.columnar_space()
    for position in range(min(space.size, 16)):
        assert space.key_at(position) == canonical_key(
            space.config_at(position)
        )

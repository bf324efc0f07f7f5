"""Tests for the calibrated cost model (repro.autotune.calibration).

Covers the PR-10 invariants: fitting is deterministic and sample-order
independent, the cross-validation split depends only on benchmark names
(never on worker count, with the parallel path bit-identical to
serial), and persisted calibrations round-trip through the
:class:`~repro.core.program.KernelStore` with store-version and
code-stamp guards.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs, parse
from repro.autotune import (
    CalibrationModel,
    CalibrationSample,
    collect_samples,
    cross_validate,
    ensure_calibration,
    fit_calibration,
    load_calibration,
    save_calibration,
)
from repro.autotune.calibration import (
    DEFAULT_FIT_SUITE,
    FEATURE_NAMES,
    HEADS,
    REGIMES,
    _spearman,
    calibration_key,
    contiguity_regime,
    fit_head,
    fold_assignment,
    plan_features,
)
from repro.core import program as program_mod
from repro.core.plan import KernelPlan
from repro.core.program import KernelStore
from repro.gpu.arch import VOLTA_V100


@pytest.fixture(scope="module")
def samples():
    """Real samples from two small contractions (kept cheap)."""
    collected = []
    for name, contraction in (
        ("mm", parse("ab-ak-kb", {"a": 48, "b": 32, "k": 24})),
        ("eq1", parse("abcd-aebf-dfce", 12)),
        ("tc3", parse("abc-ad-bdc", {"a": 24, "b": 16, "c": 12, "d": 20})),
    ):
        collected.extend(
            collect_samples(contraction, name, per_contraction=8)
        )
    assert collected
    return collected


# -- hypothesis: synthetic samples -------------------------------------------


def synthetic_samples(min_size=1, max_size=24):
    finite = st.floats(
        min_value=-4.0, max_value=4.0,
        allow_nan=False, allow_infinity=False,
    )
    sample = st.builds(
        CalibrationSample,
        benchmark=st.sampled_from(("bm_a", "bm_b", "bm_c")),
        regime=st.sampled_from(REGIMES),
        features=st.tuples(
            *([st.just(1.0)] + [finite] * (len(FEATURE_NAMES) - 1))
        ),
        log_analytic_txn=finite,
        log_exact_txn=finite,
        log_analytic_time=finite,
        log_true_time=finite,
    )
    return st.lists(sample, min_size=min_size, max_size=max_size)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batch=synthetic_samples())
def test_fit_is_deterministic(batch):
    """Same data -> bit-identical coefficients, run to run."""
    a = fit_calibration(batch, stamp="x" * 16)
    b = fit_calibration(batch, stamp="x" * 16)
    assert a == b


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), batch=synthetic_samples(min_size=2))
def test_fit_is_sample_order_independent(data, batch):
    """Any permutation of the samples fits identical coefficients."""
    shuffled = data.draw(st.permutations(batch))
    assert (
        fit_calibration(batch, stamp="x" * 16).coefficients
        == fit_calibration(shuffled, stamp="x" * 16).coefficients
    )


def test_fit_ignores_order_of_samples_tied_on_features():
    """Twins sharing (benchmark, regime, features) but not residuals fit
    identically in either order."""
    rng = np.random.default_rng(0)
    batch = []
    for _ in range(len(FEATURE_NAMES)):
        features = (1.0,) + tuple(
            float(x) for x in rng.uniform(-2, 2, len(FEATURE_NAMES) - 1)
        )
        for _twin in range(2):
            residuals = (float(x) for x in rng.uniform(-3, 3, 4))
            batch.append(
                CalibrationSample("bm", REGIMES[0], features, *residuals)
            )
    assert (
        fit_calibration(batch, stamp="x" * 16).coefficients
        == fit_calibration(batch[::-1], stamp="x" * 16).coefficients
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batch=synthetic_samples())
def test_fit_covers_only_observed_regimes(batch):
    model = fit_calibration(batch, stamp="x" * 16)
    observed = {s.regime for s in batch}
    assert set(model.coefficients) == observed
    for heads in model.coefficients.values():
        assert set(heads) == set(HEADS)
        for coeffs in heads.values():
            assert len(coeffs) == len(FEATURE_NAMES)
            assert all(math.isfinite(c) for c in coeffs)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    names=st.lists(
        st.sampled_from(("a", "b", "c", "d", "e", "f", "g")),
        min_size=1, max_size=20,
    ),
    folds=st.integers(min_value=1, max_value=8),
)
def test_fold_assignment_depends_only_on_name_set(names, folds):
    """Round-robin over sorted unique names; order never matters."""
    assignment = fold_assignment(names, folds)
    assert assignment == fold_assignment(sorted(names, reverse=True), folds)
    assert set(assignment) == set(names)
    n_folds = max(assignment.values()) + 1
    assert n_folds <= min(folds, len(set(names)))
    # Round-robin keeps folds balanced within one benchmark.
    counts = [list(assignment.values()).count(f) for f in range(n_folds)]
    assert max(counts) - min(counts) <= 1


def test_fit_head_intercept_only_fallback():
    """Fewer rows than features -> mean-residual intercept, zero rest."""
    features = np.ones((2, len(FEATURE_NAMES)))
    residuals = np.array([0.2, 0.4])
    coeffs = fit_head(features, residuals)
    assert coeffs[0] == pytest.approx(0.3)
    assert all(c == 0.0 for c in coeffs[1:])
    assert fit_head(np.empty((0, len(FEATURE_NAMES))), np.empty(0)) == (
        (0.0,) * len(FEATURE_NAMES)
    )


def test_spearman_basics():
    assert _spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert _spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert _spearman([1.0], [2.0]) == 0.0
    assert _spearman([1, 1, 1], [1, 2, 3]) == 0.0
    # Monotone through ties stays positive.
    assert _spearman([1, 2, 2, 3], [5, 6, 7, 9]) > 0.8


# -- real samples ------------------------------------------------------------


def test_collect_samples_ground_truth_is_consistent(samples):
    for sample in samples:
        assert sample.regime in REGIMES
        assert len(sample.features) == len(FEATURE_NAMES)
        assert sample.features[0] == 1.0
        assert math.isfinite(sample.residual("txn"))
        assert math.isfinite(sample.residual("time"))


def test_crossval_parallel_matches_serial(samples):
    """Worker count changes neither the split nor any fold score."""
    serial = cross_validate(samples, folds=3, workers=1)
    parallel = cross_validate(samples, folds=3, workers=2)
    assert serial == parallel
    assert [f.held_out for f in serial.folds] == [
        f.held_out for f in parallel.folds
    ]


def test_crossval_holds_out_whole_benchmarks(samples):
    cv = cross_validate(samples, folds=3)
    names = sorted({s.benchmark for s in samples})
    held = [name for fold in cv.folds for name in fold.held_out]
    assert sorted(held) == names


def test_predict_time_applies_fitted_correction(samples):
    model = fit_calibration(samples)
    sample = samples[0]
    contraction = parse("ab-ak-kb", {"a": 48, "b": 32, "k": 24})
    from repro import Cogent

    config, _cost = Cogent(arch="V100", allow_split=False).rank_configs(
        contraction
    )[0]
    plan = KernelPlan(contraction, config, 8)
    predicted = model.predict_time(plan)
    assert math.isfinite(predicted) and predicted > 0
    # An empty model predicts exactly the analytic time.
    empty = CalibrationModel(
        arch="V100", dtype_bytes=8, code_stamp="0" * 16,
        coefficients={}, samples=0,
    )
    from repro.gpu.simulator import GpuSimulator

    analytic = GpuSimulator(VOLTA_V100).simulate(plan).time_s
    assert empty.predict_time(plan) == pytest.approx(analytic)
    assert empty.residual(sample.features, sample.regime, "time") == 0.0


def test_model_dict_roundtrip(samples):
    model = fit_calibration(samples)
    assert CalibrationModel.from_dict(model.as_dict()) == model


# -- persistence -------------------------------------------------------------


class TestStore:
    def test_roundtrip(self, samples, tmp_path):
        model = fit_calibration(samples)
        key = save_calibration(tmp_path, model)
        assert key.startswith("cal-")
        loaded = load_calibration(tmp_path, "V100", 8)
        assert loaded == model

    def test_key_varies_with_inputs(self):
        base = calibration_key("V100", 8, stamp="a" * 16)
        assert calibration_key("P100", 8, stamp="a" * 16) != base
        assert calibration_key("V100", 4, stamp="a" * 16) != base
        assert calibration_key("V100", 8, stamp="b" * 16) != base

    def test_code_stamp_invalidates(self, samples, tmp_path, monkeypatch):
        save_calibration(tmp_path, fit_calibration(samples))
        monkeypatch.setattr(program_mod, "_CODE_STAMP", "f" * 16)
        assert load_calibration(tmp_path, "V100", 8) is None

    def test_store_version_guard(self, samples, tmp_path):
        model = fit_calibration(samples)
        key = save_calibration(tmp_path, model)
        store = KernelStore(tmp_path)
        path = store.directory / f"{key}.json"
        payload = json.loads(path.read_text())
        payload["store_version"] = 0
        path.write_text(json.dumps(payload))
        assert load_calibration(tmp_path, "V100", 8) is None

    def test_kind_guard(self, samples, tmp_path):
        model = fit_calibration(samples)
        key = save_calibration(tmp_path, model)
        store = KernelStore(tmp_path)
        path = store.directory / f"{key}.json"
        payload = json.loads(path.read_text())
        payload["kind"] = "kernel"
        path.write_text(json.dumps(payload))
        with obs.tracing() as session:
            assert load_calibration(tmp_path, "V100", 8) is None
        assert session.metrics.counter(
            "autotune.calibration.store_misses"
        ) == 1

    def test_ensure_calibration_warm_skips_fit(self, tmp_path):
        suite = ("ttm_mode2",)
        with obs.tracing() as cold:
            model, fitted = ensure_calibration(
                store=tmp_path, benchmarks=suite, per_contraction=4
            )
        assert fitted
        assert cold.metrics.counter("autotune.calibration.fits") == 1
        with obs.tracing() as warm:
            again, refitted = ensure_calibration(
                store=tmp_path, benchmarks=suite, per_contraction=4
            )
        assert not refitted
        assert again == model
        assert warm.metrics.counter("autotune.calibration.fits") == 0
        assert warm.metrics.counter(
            "autotune.calibration.store_hits"
        ) == 1


def test_default_fit_suite_names_resolve():
    from repro.tccg import get

    for name in DEFAULT_FIT_SUITE:
        assert get(name) is not None


def test_regime_and_features_match_plan(matmul):
    from repro import Cogent

    config, _cost = Cogent(arch="V100", allow_split=False).rank_configs(
        matmul
    )[0]
    plan = KernelPlan(matmul, config, 8)
    assert contiguity_regime(plan) in REGIMES
    features = plan_features(plan, VOLTA_V100)
    assert len(features) == len(FEATURE_NAMES)
    assert features[0] == 1.0
    assert all(math.isfinite(f) for f in features)

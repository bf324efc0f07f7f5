"""Tests for kernel reuse: store keys, the kernel store, evaluation
cells, and the contract() API (repro.api.contract)."""

import numpy as np
import pytest

from repro import Cogent, obs, parse
from repro.api import Options, contract
from repro.core.program import (
    STORE_VERSION,
    CompilationSession,
    KernelStore,
    kernel_to_store_payload,
    workload_key,
)
from repro.evaluation.runner import eval_cache_key


@pytest.fixture
def session():
    return CompilationSession(Cogent(arch="V100", top_k=4))


def _eval_payload(result):
    return {"store_version": STORE_VERSION, "kind": "eval", "result": result}


class TestCacheKey:
    """The kernel-store key (:func:`workload_key`)."""

    def test_same_problem_same_key(self, v100):
        c1 = parse("ab-ak-kb", 64)
        c2 = parse("ab-ak-kb", 64)
        assert workload_key(c1, v100, 8) == workload_key(c2, v100, 8)

    def test_different_structure_differs(self, v100):
        c1 = parse("ab-ak-kb", 64)
        c2 = parse("ab-ka-kb", 64)
        assert workload_key(c1, v100, 8) != workload_key(c2, v100, 8)

    def test_arch_and_dtype_in_key(self, v100, p100):
        c = parse("ab-ak-kb", 64)
        assert workload_key(c, v100, 8) != workload_key(c, p100, 8)
        assert workload_key(c, v100, 8) != workload_key(c, v100, 4)


class TestKernelCache:
    """Kernel reuse through :class:`CompilationSession` and its store."""

    def test_miss_then_hit(self, session):
        c = parse("ab-ak-kb", 64)
        first = session.compile([c])
        again = session.compile([c])
        assert first.stats.searches == 1
        assert again.stats.searches == 0
        assert again.classes[0].source == "memory"
        assert again.kernels[0].config == first.kernels[0].config

    def test_len(self, tmp_path):
        store = KernelStore(tmp_path)
        CompilationSession(Cogent(arch="V100", top_k=4), store).compile(
            [parse("ab-ak-kb", 64), parse("ab-ak-kb", 256)]
        )
        assert len(store) == 2

    def test_disk_persistence(self, tmp_path):
        CompilationSession(Cogent(arch="V100", top_k=1), tmp_path).compile(
            [parse("ab-ak-kb", 64)]
        )
        saved = list(tmp_path.glob("*.json"))
        assert len(saved) == 1
        payload = KernelStore(tmp_path).lookup(saved[0].stem)
        assert payload["store_version"] == STORE_VERSION
        assert payload["canonical"]["c"]["name"] == "C"


class TestContract:
    def test_matmul(self):
        a = np.random.default_rng(0).random((12, 7))
        b = np.random.default_rng(1).random((7, 9))
        assert np.allclose(contract("ab-ak-kb", a, b), a @ b)

    def test_einsum_syntax(self):
        rng = np.random.default_rng(2)
        a = rng.random((4, 3, 5))
        b = rng.random((3, 6))
        got = contract("adc,db->abc", a, b)
        assert np.allclose(got, np.einsum("adc,db->abc", a, b))

    def test_eq1(self):
        rng = np.random.default_rng(3)
        a = rng.random((6, 3, 5, 4))
        b = rng.random((7, 4, 6, 3))
        got = contract("abcd-aebf-dfce", a, b, options=Options(top_k=4))
        want = np.einsum("aebf,dfce->abcd", a, b)
        assert np.allclose(got, want)

    def test_bucket_reuse_still_correct(self):
        """Nearby sizes each compile their own exact-extent kernel."""
        rng = np.random.default_rng(4)
        options = Options(top_k=5)
        with obs.tracing() as session:
            for m, n, k in ((17, 15, 6), (15, 18, 7), (14, 16, 7)):
                a = rng.random((m, k))
                b = rng.random((k, n))
                assert np.allclose(
                    contract("ab-ak-kb", a, b, options=options), a @ b
                )
        assert session.metrics.counter("program.searches") == 3

    def test_renamed_isomorphic_contraction_reuses_class(self):
        rng = np.random.default_rng(6)
        options = Options(top_k=3)
        a = rng.random((11, 5))
        b = rng.random((5, 13))
        assert np.allclose(contract("ab-ak-kb", a, b, options=options),
                           a @ b)
        with obs.tracing() as session:
            got = contract("xy-xz-zy", a, b, options=options)
        assert np.allclose(got, a @ b)
        assert session.metrics.counter("program.searches") == 0
        assert session.metrics.counter("search.searches") == 0

    def test_single_precision(self):
        rng = np.random.default_rng(5)
        a = rng.random((10, 6), dtype=np.float32)
        b = rng.random((6, 8), dtype=np.float32)
        got = contract("ab-ak-kb", a, b)
        assert np.allclose(got, a @ b, rtol=1e-4)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            contract("ab-ak-kb", np.zeros((4, 4, 4)), np.zeros((4, 4)))

    def test_inconsistent_extent_rejected(self):
        with pytest.raises(ValueError):
            contract("ab-ak-kb", np.zeros((4, 5)), np.zeros((6, 4)))


class TestBatchCacheApi:
    def test_lookup_does_not_generate(self, tmp_path):
        store = KernelStore(tmp_path)
        key = workload_key(parse("ab-ak-kb", 64), Cogent().arch, 8)
        assert store.lookup(key) is None
        assert store.misses == 1
        assert len(store) == 0

    def test_put_then_lookup(self, session, tmp_path):
        store = KernelStore(tmp_path)
        c = parse("ab-ak-kb", 64)
        kernel = session.generator.generate(c)
        payload = kernel_to_store_payload(kernel)
        store.put(session.class_key(c), payload)
        assert store.lookup(session.class_key(c)) == payload
        assert store.hits == 1

    def test_get_many_populates_and_reuses(self, session):
        items = [parse("ab-ak-kb", 64), parse("abc-ak-kbc", 32)]
        first = session.compile(items)
        assert first.stats.searches == 2
        again = session.compile(items)
        assert again.stats.searches == 0
        for old, new in zip(first.kernels, again.kernels):
            assert old.config == new.config


class TestEvalCache:
    """Evaluation cells stored as ``kind: "eval"`` store payloads."""

    def test_put_then_lookup_roundtrip(self, tmp_path):
        store = KernelStore(tmp_path / "eval")
        payload = _eval_payload({"gflops": 123.4, "framework": "cogent"})
        store.put("abc123", payload)
        assert store.lookup("abc123") == payload
        assert store.hits == 1 and store.misses == 0
        assert len(store) == 1

    def test_missing_key_misses(self, tmp_path):
        store = KernelStore(tmp_path / "eval")
        assert store.lookup("nothere") is None
        assert store.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = KernelStore(tmp_path / "eval")
        (store.directory / "bad0.json").write_text("{not json")
        (store.directory / "bad1.json").write_text("[1, 2]")
        (store.directory / "old0.json").write_text('{"v": 1}')
        assert store.lookup("bad0") is None
        assert store.lookup("bad1") is None
        assert store.lookup("old0") is None
        assert store.misses == 3

    def test_persists_across_instances(self, tmp_path):
        KernelStore(tmp_path / "eval").put("k", _eval_payload({"v": 1}))
        payload = KernelStore(tmp_path / "eval").lookup("k")
        assert payload["result"] == {"v": 1}


class TestEvalCacheKey:
    SIZES = {"a": 32, "b": 32, "k": 64}

    def _key(self, **overrides):
        base = dict(
            expr="ab-ak-kb", sizes=self.SIZES, arch_name="V100",
            dtype_bytes=8, framework="cogent",
            params={"tc_seed": 0},
        )
        base.update(overrides)
        return eval_cache_key(**base)

    def test_deterministic(self):
        assert self._key() == self._key()

    def test_sensitive_to_every_component(self):
        base = self._key()
        assert self._key(expr="ab-kb-ak") != base
        assert self._key(sizes={"a": 32, "b": 32, "k": 65}) != base
        assert self._key(arch_name="P100") != base
        assert self._key(dtype_bytes=4) != base
        assert self._key(framework="talsh") != base
        assert self._key(params={"tc_seed": 1}) != base

    def test_extents_not_bucketed(self):
        # Nearby sizes must NOT share evaluations.
        assert self._key(sizes={"a": 32, "b": 32, "k": 63}) != \
            self._key(sizes={"a": 32, "b": 32, "k": 64})

"""Tests for the blessed high-level API (repro.api)."""

import dataclasses
import warnings

import pytest

from repro import api
from repro.core.enumeration import Enumerator
from repro.core.generator import Cogent
from repro.evaluation.runner import SuiteRunner
from repro.gpu.arch import VOLTA_V100
from repro.tccg import get

# Three small TCCG entries: fast enough to generate repeatedly.
TCCG_NAMES = ("ttm_mode1", "ttm_mode2", "mo_stage1")


class TestOptions:
    def test_defaults(self):
        opts = api.Options()
        assert opts.workers == 1
        assert opts.top_k == 64
        assert opts.store_dir is None
        assert opts.arch == "V100"
        assert opts.dtype == "double"
        assert opts.trace is False

    def test_frozen(self):
        opts = api.Options()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.workers = 4

    def test_round_trip(self):
        opts = api.Options(workers=4, top_k=8, store_dir="/tmp/c",
                           arch="P100", dtype="single", trace=True)
        clone = api.Options(**dataclasses.asdict(opts))
        assert clone == opts

    def test_dtype_bytes(self):
        assert api.Options().dtype_bytes == 8
        assert api.Options(dtype="single").dtype_bytes == 4

    def test_evolve(self):
        opts = api.Options()
        changed = opts.evolve(workers=3)
        assert changed.workers == 3
        assert opts.workers == 1
        assert changed.top_k == opts.top_k

    @pytest.mark.parametrize("bad", [
        {"workers": 0},
        {"top_k": 0},
        {"dtype": "half"},
        {"arch": "K80"},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            api.Options(**bad)


class TestDeprecationShims:
    """No shims are left: the plain keywords never warn."""

    def test_cogent_default_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Cogent()
            Cogent(workers=2)

    def test_internal_paths_do_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runner = SuiteRunner(store_dir=tmp_path / "eval")
            runner.compare([get("ttm_mode1")], ("talsh",), workers=1)
            enumerator = Enumerator(
                get("ttm_mode1").contraction(), VOLTA_V100
            )
            enumerator.search(keep=4, workers=1)
            api.compile("ab-ak-kb", 16, options=api.Options(top_k=2))

    def test_old_api_identical_to_new(self):
        """Direct generation and ``api.compile`` agree (3 TCCG entries)."""
        opts = api.Options(workers=2, top_k=4)
        for name in TCCG_NAMES:
            contraction = get(name).contraction()
            old = Cogent(top_k=4, workers=2).generate(contraction)
            new = api.compile(contraction, options=opts)
            assert old.config.describe() == new.config.describe()
            assert old.candidates[0].simulated.gflops == pytest.approx(
                new.candidates[0].simulated.gflops
            )


class TestFacade:
    def test_compile_expression(self):
        kernel = api.compile("ab-ak-kb", 32,
                             options=api.Options(top_k=2))
        assert kernel.config is not None
        assert "__global__" in kernel.source("cuda")

    def test_compile_cache_dir_persists(self, tmp_path):
        """``store_dir`` (which absorbed ``cache_dir``) is written."""
        opts = api.Options(top_k=2, store_dir=tmp_path / "kernels")
        api.compile("ab-ak-kb", 32, options=opts)
        assert any((tmp_path / "kernels").glob("*.json"))

    def test_compile_store_persists_across_processes(self, tmp_path):
        """A fresh interpreter rebuilds the kernel from the store."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import json, sys\n"
            "from repro import api\n"
            "opts = api.Options(top_k=2, trace=True, store_dir=sys.argv[1])\n"
            "kernel = api.compile('abc-akc-kb', 24, options=opts)\n"
            "counters = api.last_trace()['metrics']['counters']\n"
            "print(json.dumps({'config': kernel.config.describe(),\n"
            "                  'counters': counters}))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )

        def run():
            out = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / "store")],
                check=True, capture_output=True, text=True, env=env,
            ).stdout
            return json.loads(out.strip().splitlines()[-1])

        cold, warm = run(), run()
        assert cold["counters"].get("program.searches", 0) == 1
        assert warm["counters"].get("store.hits", 0) >= 1
        assert warm["counters"].get("program.searches", 0) == 0
        assert warm["counters"].get("search.searches", 0) == 0
        assert warm["config"] == cold["config"]

    def test_rank(self):
        ranked = api.rank("ab-ak-kb", 64)
        assert len(ranked) > 0
        config, cost = ranked[0]
        assert cost > 0
        assert min(cost for _, cost in ranked) == cost

    def test_evaluate(self, tmp_path):
        rows = api.evaluate(
            [get("ttm_mode1")], ("talsh", "tc_untuned"),
            options=api.Options(store_dir=tmp_path / "eval"),
        )
        assert len(rows) == 1
        assert rows[0].gflops("talsh") > 0
        # Second run replays from the cache.
        rows2 = api.evaluate(
            [get("ttm_mode1")], ("talsh", "tc_untuned"),
            options=api.Options(store_dir=tmp_path / "eval"),
        )
        assert rows2[0].results["talsh"].cached
        assert rows2[0].gflops("talsh") == rows[0].gflops("talsh")

    def test_tune(self):
        result = api.tune("ab-ak-kb", 64, population=4, generations=2)
        assert result.evaluations == 8
        assert result.best_gflops > 0

    def test_trace_option_exports_payload(self):
        from repro import obs

        opts = api.Options(top_k=2, trace=True)
        api.compile("ab-ak-kb", 16, options=opts)
        payload = api.last_trace()
        assert payload is not None
        assert obs.validate_payload(payload) == []
        assert payload["meta"]["command"] == "compile"

    def test_root_exports(self):
        import repro

        assert repro.compile is api.compile
        assert repro.rank is api.rank
        assert repro.evaluate is api.evaluate
        assert repro.tune is api.tune
        assert repro.Options is api.Options
        assert repro.contract is api.contract

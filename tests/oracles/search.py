"""Per-plan configuration search (oracle for the columnar search).

:meth:`repro.core.enumeration.Enumerator.search` evaluates Algorithm 2's
rules and Algorithm 3's cost as column operations over position
batches.  The functions here walk the same capped Cartesian product one
materialised :class:`~repro.core.plan.KernelPlan` at a time, judge it
with the checker's ``_rule_*`` methods and score it with
:meth:`~repro.core.costmodel.CostModel.cost`:

* :func:`object_search` — the streaming form: same bounded top-k heads,
  tiny-problem fallback heap, pruning stats and per-rule counters;
* :func:`enumerate_configs` + :func:`rank` — the materialising form:
  every accepted configuration, sorted by (cost, canonical key);
  :func:`ranked_configs` is the oracle for ``Cogent.rank_configs``.
"""

import itertools
import time
from typing import List, Tuple

from repro.core.constraints import (
    HARDWARE_RULES,
    PERFORMANCE_RULES,
    ConstraintChecker,
)
from repro.core.costmodel import CostModel
from repro.core.enumeration import (
    EnumerationResult,
    EnumerationStats,
    Enumerator,
    SearchStats,
    TopK,
    _merge_scored,
)
from repro.core.generator import Cogent
from repro.core.ir import Contraction
from repro.core.mapping import KernelConfig, canonical_key, config_from_spec
from repro.core.plan import KernelPlan


def classify(checker: ConstraintChecker, plan: KernelPlan) -> str:
    """``"hardware"``, ``"performance"`` or ``"accepted"`` for ``plan``.

    The verdict of :meth:`ConstraintChecker.check` (the families are
    pure conjunctions).  Rules run in canonical order and stop at the
    first violation of each family, charging it in
    ``checker.rule_stats`` exactly as the columnar batches do.
    """
    for family, verdict in ((HARDWARE_RULES, "hardware"),
                            (PERFORMANCE_RULES, "performance")):
        for name in family:
            stats = checker.rule_stats[name]
            stats.checks += 1
            if getattr(checker, f"_rule_{name}")(plan) is not None:
                stats.rejections += 1
                return verdict
    return "accepted"


def _configs(enumerator: Enumerator, stats: EnumerationStats):
    """Deduplicated configs of the capped product, counting into stats."""
    product = itertools.product(
        enumerator.enumerate_x_side(),
        enumerator.enumerate_y_side(),
        enumerator.enumerate_tb_k(),
    )
    seen = set()
    for xp, yp, kp in itertools.islice(product, enumerator.max_configs):
        stats.raw_combinations += 1
        key = (xp.tb, xp.reg, yp.tb, yp.reg, kp)
        if key in seen:
            stats.duplicates += 1
            continue
        seen.add(key)
        yield config_from_spec(
            enumerator.contraction,
            tb_x=xp.tb, tb_y=yp.tb, reg_x=xp.reg, reg_y=yp.reg, tb_k=kp,
            fill_defaults=True,
        )


def object_search(enumerator: Enumerator, keep: int = 64) -> EnumerationResult:
    """Serial per-plan streaming search with ``Enumerator.search``'s
    result contract."""
    start = time.perf_counter()
    model = CostModel(enumerator.dtype_bytes,
                      enumerator.arch.transaction_bytes)
    stats = EnumerationStats()
    search = SearchStats()
    top, fallback = TopK(keep), TopK(keep)
    for config in _configs(enumerator, stats):
        plan = KernelPlan(enumerator.contraction, config,
                          enumerator.dtype_bytes)
        verdict = classify(enumerator.checker, plan)
        search.configs_checked += 1
        if verdict == "hardware":
            stats.hardware_pruned += 1
            continue
        if verdict == "performance":
            stats.performance_pruned += 1
            # Rejects feed the tiny-problem fallback, which is only
            # consulted when nothing is accepted: stop scoring them once
            # a survivor has streamed past.
            if len(top) == 0:
                fallback.push(model.cost(plan), canonical_key(config),
                              config)
                search.configs_ranked += 1
            continue
        stats.accepted += 1
        top.push(model.cost(plan), canonical_key(config), config)
        search.configs_ranked += 1
    ranked = _merge_scored([top.items()], keep)
    rejects = _merge_scored([fallback.items()], keep)
    search.kept = len(ranked)
    search.total_s = time.perf_counter() - start
    return EnumerationResult(
        configs=[cfg for _, _, cfg in ranked],
        stats=stats,
        feasible_rejects=[cfg for _, _, cfg in rejects],
        costs=[cost for cost, _, _ in ranked],
        reject_costs=[cost for cost, _, _ in rejects],
        search_stats=search,
    )


def enumerate_configs(enumerator: Enumerator) -> EnumerationResult:
    """Every accepted configuration (and every performance reject), in
    product order, judged by :meth:`ConstraintChecker.check_config`."""
    stats = EnumerationStats()
    accepted: List[KernelConfig] = []
    rejects: List[KernelConfig] = []
    for config in _configs(enumerator, stats):
        report = enumerator.checker.check_config(
            enumerator.contraction, config
        )
        if not report.feasible:
            stats.hardware_pruned += 1
        elif not report.accepted:
            stats.performance_pruned += 1
            rejects.append(config)
        else:
            stats.accepted += 1
            accepted.append(config)
    return EnumerationResult(accepted, stats, rejects)


def rank(
    model: CostModel,
    contraction: Contraction,
    configs: List[KernelConfig],
) -> List[Tuple[KernelConfig, int]]:
    """Sort configurations by (estimated transactions, canonical key)."""
    scored = [
        (config, model.cost(KernelPlan(contraction, config,
                                       model.dtype_bytes)))
        for config in configs
    ]
    scored.sort(key=lambda pair: (pair[1], canonical_key(pair[0])))
    return scored


def ranked_configs(
    generator: Cogent, contraction: Contraction
) -> List[Tuple[KernelConfig, int]]:
    """Oracle for :meth:`Cogent.rank_configs`: enumerate, then sort."""
    result = enumerate_configs(generator._enumerator(contraction))
    configs = result.configs or result.feasible_rejects
    return rank(generator.cost_model, contraction, configs)

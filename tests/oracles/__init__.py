"""Reference implementations the production code is tested against.

Each oracle is the slow, per-object form of a vectorized path in
``src/``; tests and benchmarks compare the two bit for bit:

* :mod:`tests.oracles.search` — the per-plan configuration search and
  the materialising enumeration + (cost, canonical key) sort, against
  the columnar :meth:`repro.core.enumeration.Enumerator.search`;
* :mod:`tests.oracles.replay` — the per-block/per-step transaction
  loop, against :class:`repro.gpu.memory.VectorizedReplay`;
* :mod:`tests.oracles.path` — the contraction-order DPs forced one way
  or the other, for :func:`repro.core.network.optimal_path` parity;
* :mod:`tests.oracles.rerank` — the per-candidate simulator re-rank
  (a plan and a scalar time model per candidate, then
  ``(time, cost, canonical key)`` order), against
  :meth:`repro.gpu.simulator.GpuSimulator.simulate_batch` in
  kernel selection.
"""

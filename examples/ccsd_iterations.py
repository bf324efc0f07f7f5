#!/usr/bin/env python3
"""Iterative CCD-style amplitude equations over reused kernels.

Production coupled-cluster codes evaluate the same handful of
contractions every sweep of the amplitude iteration — the use case
kernel reuse exists for.  This example builds the three canonical
doubles diagrams (particle-particle ladder, hole-hole ladder, ring),
generates one COGENT kernel each, and iterates the amplitudes to
convergence, validating the whole solve against a pure-einsum twin.

Run:  python examples/ccsd_iterations.py [n_occupied] [n_virtual]
"""

import sys

from repro import Cogent
from repro.apps import CcsdDriver


def main() -> None:
    no = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    nv = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    driver = CcsdDriver(
        n_occupied=no, n_virtual=nv,
        generator=Cogent(arch="V100"), seed=0,
    )
    print(driver.report())
    print()
    via_einsum = driver.solve(use_kernels=False)
    via_kernels = driver.solve(use_kernels=True)
    delta = abs(via_kernels.energy - via_einsum.energy)
    print(f"einsum twin energy      : {via_einsum.energy:+.10f}")
    print(f"generated-kernel energy : {via_kernels.energy:+.10f}")
    print(f"difference              : {delta:.2e} "
          f"({'PASS' if delta < 1e-10 else 'FAIL'})")


if __name__ == "__main__":
    main()

"""Code emission backends behind the pluggable target registry.

The stable surface is the registry API — :func:`get_target`,
:func:`list_targets`, :func:`register_target` and the
:class:`CodegenTarget` interface.  Backend modules (``cuda``,
``opencl``, ``cemu``, ``clemu``, ``chost``, ``openmp``) are imported
explicitly where their helpers are needed.
"""

from .registry import (
    CodegenTarget,
    TargetCapabilityError,
    get_target,
    list_targets,
    register_target,
    runnable_targets,
)

__all__ = [
    "CodegenTarget",
    "TargetCapabilityError",
    "get_target",
    "list_targets",
    "register_target",
    "runnable_targets",
]

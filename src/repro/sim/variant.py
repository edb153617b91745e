"""Kernel variant selection: ``REPRO_KERNEL=compiled|python``.

The simulation kernel ships as pure Python, with an *optional* compiled
twin: ``tools/build_kernel_ext.py`` concatenates
:mod:`repro.sim.events` + :mod:`repro.sim.kernel` into a single
``repro.sim._ckernel`` module and compiles it with Cython or mypyc when
either is installed.  At import time :mod:`repro.sim.events` and
:mod:`repro.sim.kernel` consult this module and rebind their public
classes to the compiled ones when

* ``REPRO_KERNEL=compiled`` -- use the extension, falling back to pure
  Python (with the reason recorded here) when it is absent or fails to
  import: wheels-less installs lose nothing;
* ``REPRO_KERNEL`` unset or ``auto`` -- use the extension if present;
* ``REPRO_KERNEL=python`` -- never load the extension (the escape hatch
  for debugging and for byte-identity A/B runs).

:func:`kernel_variant` reports what actually got selected.  The repo
benchmark (``bench/``) pins ``REPRO_KERNEL=python`` for its children,
so its numbers never depend on whether a twin happens to be built.
"""

from __future__ import annotations

import os
from typing import Tuple

#: Environment variable choosing the kernel implementation.
ENV_KERNEL = "REPRO_KERNEL"

_state = {
    "variant": "python",
    "reason": "pure-Python kernel (default)",
}


def requested() -> str:
    """The normalized ``REPRO_KERNEL`` request: ``python``, ``compiled``
    or ``auto``.  Unknown values fall back to ``python`` (recorded in
    the reason) rather than breaking every import."""
    value = os.environ.get(ENV_KERNEL, "").strip().lower()
    if value in ("", "auto"):
        return "auto"
    if value in ("python", "compiled"):
        return value
    _state["reason"] = f"unknown {ENV_KERNEL} value {value!r}; pure-Python fallback"
    return "python"


def want_compiled() -> bool:
    """Whether import-time selection should try the compiled extension."""
    return requested() in ("compiled", "auto")


def mark_compiled() -> None:
    """Record that the compiled extension is active (called by the
    events module after a successful ``_ckernel`` import)."""
    _state["variant"] = "compiled"
    _state["reason"] = "compiled extension repro.sim._ckernel active"


def mark_python(reason: str) -> None:
    """Record the pure-Python selection and why it happened."""
    _state["variant"] = "python"
    _state["reason"] = reason


def kernel_variant() -> Tuple[str, str]:
    """``(variant, reason)`` of the active kernel implementation."""
    return _state["variant"], _state["reason"]


__all__ = [
    "ENV_KERNEL",
    "kernel_variant",
    "mark_compiled",
    "mark_python",
    "requested",
    "want_compiled",
]

"""Kernel backend.

The per-step kernels take a leading replication axis (see
:mod:`linens._kernels_py`). The compiled extension built from
``_kernels.pyx`` steps one replication at a time, so it cannot serve the
lockstep engine and is no longer selected; ``HAVE_COMPILED_KERNELS`` is
therefore always false. ``LINENS_FORCE_PURE`` is still accepted and has
no effect.
"""

from __future__ import annotations

from . import _kernels_py as kernels

HAVE_COMPILED_KERNELS: bool = kernels.IS_COMPILED

__all__ = ["kernels", "HAVE_COMPILED_KERNELS"]

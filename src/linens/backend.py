"""Names the benchmark harness reads: ``kernels``, the kernel module, and
``HAVE_COMPILED_KERNELS``, which is always false.

The package has one kernel module, :mod:`linens._kernels_py`, and imports
it directly. This module stays only because ``perfbench/`` reads these two
names; it goes with the next change to ``perfbench/``.
"""

from __future__ import annotations

from . import _kernels_py as kernels

HAVE_COMPILED_KERNELS = False

__all__ = ["kernels", "HAVE_COMPILED_KERNELS"]

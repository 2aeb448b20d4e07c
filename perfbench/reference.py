"""A fixed reference computation that measures how fast the host runs now.

On a shared virtual machine the speed at which the guest runs Python changes
by up to 2x over seconds to minutes, and the guest cannot see it: CPU time
grows with wall time and steal time stays near zero. The benchmark therefore
interleaves this reference with the measured program and reports the
program's times divided by the reference's *speed factor*, the reference's
measured time over its nominal time.

The reference touches the same parts of the machine as the linens loops do
(the interpreter, small numpy arrays, a numpy generator, dicts and lists) but
no linens code, so a change to linens moves the program's time and not the
reference's. Its result is deterministic and checked, so that it cannot be
optimised away unnoticed.
"""

from __future__ import annotations

import numpy as np

#: Wall time of one chunk, in seconds, on a 2-vCPU Xeon (Sapphire Rapids,
#: 2.0 GHz) VM running at full speed with Python 3.11 and numpy 2.4. Only
#: the unit of the normalised metrics depends on it.
NOMINAL_CHUNK_S = 0.040

#: Loop iterations of one chunk.
ITERATIONS = 5000


def chunk(seed: int = 12345) -> float:
    """One reference chunk; returns a checksum that depends only on ``seed``."""
    rng = np.random.default_rng(seed)
    gram = np.eye(3)
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(ITERATIONS):
        x = rng.standard_normal(3)
        gram = gram + np.outer(x, x) * 1e-3
        acc += float(x @ gram @ x)
        key = i % 97
        counts[key] = counts.get(key, 0) + 1
        row = [j * 2 for j in range(10)]
        acc += sum(row) * 1e-6
    return acc + len(counts)

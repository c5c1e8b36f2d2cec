"""A fixed chunk of benchmark-owned work that measures the host's speed.

The chunk is written in the program's idiom (sparse complex sums, small
numpy vectors, one small record per step, a formatted dump) so that it slows
down when the host slows the program down, but it never calls the program.
"""

from __future__ import annotations

import gc
import time

import numpy as np


class _Sample:
    __slots__ = ("s", "point")

    def __init__(self, s, point):
        self.s, self.point = s, point


def reference_chunk() -> float:
    """Time one chunk."""
    begin = time.perf_counter()
    coeffs = {(j, k): complex(j + 1, k - 1) for j in range(5) for k in range(5)}
    x, y = 0.3 + 0.4j, -0.2 + 0.1j
    state = np.array([x, y])
    samples = []
    for i in range(1000):
        acc = 0j
        for (j, k), c in coeffs.items():
            acc += c * x**j * y**k
        state = state + 1e-3 * np.array([state[0] * state[1], acc * 1e-3])
        samples.append(_Sample(i * 1e-3, (complex(state[0]), complex(state[1]))))
    ",".join(format(p.point[0].real, ".17g") for p in samples)
    return time.perf_counter() - begin


def time_chunks(count: int) -> list[float]:
    """Time ``count`` chunks after one untimed warm-up, with the collector
    off, so that neither the garbage nor the caches a job left behind can
    move the figure."""
    gc.collect()
    gc.disable()
    try:
        reference_chunk()
        return [reference_chunk() for _ in range(count)]
    finally:
        gc.enable()

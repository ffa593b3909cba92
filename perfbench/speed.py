"""A fixed probe of the machine's current speed.

The shared 2-CPU virtual machine the benchmark was tuned on runs the
same code up to 1.8 times slower for stretches of seconds to minutes.
Timing this probe next to each op and scaling the op's time by
``REFERENCE_S / probe`` expresses it at a fixed machine speed: over 46
passes of score-raw the pass time varied with a CV of 18 %, the scaled
pass time with 6 %.  The probe uses no wverif code, so a change to the
program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time of the machine the reference figures were taken on, in a
# fast stretch (shared 2-CPU Xeon virtual machine, Python 3.11, numpy 2.4).
REFERENCE_S = 0.005

_X = np.random.default_rng(0).normal(size=51)


def probe() -> float:
    """Wall time of a little interpreted arithmetic and small numpy calls,
    the mix the program spends its time in."""
    start = time.perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i
    for _ in range(300):
        np.abs(np.sort(_X) - 0.5).sum()
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the probes either side."""
    return seconds * REFERENCE_S / (0.5 * (before + after))

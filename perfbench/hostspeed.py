"""Host speed, read from a fixed reference loop timed between samples.

On a shared host the speed of a core drifts: a pure-Python loop runs up to
twice as fast in one minute as in the next, and process CPU time drifts with
wall time, so neither clock alone holds still between runs. The benchmark
therefore times a fixed piece of work (dict and string operations plus numpy
sorting on a 320 KB array, the mix setforest itself runs) right before and
right after every timed sample, and scales the sample to a host on which that
work takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / mean(reference before, reference after)

The loop touches nothing of setforest, so a change to the program moves the
measured time and leaves the reference alone: a program twice as slow reads
twice as slow. The raw wall times are kept in the run record beside the
scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# What the reference takes at the host's typical speed on the 2-vCPU
# machine the bounds were set on, so scaled figures read close to its wall
# times.
NOMINAL_S = 0.0053

_ARRAY = np.random.default_rng(0).random(40_000)
_WORDS = tuple(f"w{i:03d}" for i in range(500))


def _work() -> float:
    counts: dict[str, int] = {}
    for i in range(3000):
        word = _WORDS[(i * 7919) % 500]
        counts[word] = counts.get(word, 0) + 1
    terms = sorted(set(" ".join(_WORDS[i % 500] for i in range(0, 3000, 3)).split()))
    total = 0.0
    for k in range(6):
        part = _ARRAY[k::6]
        order = np.argsort(part, kind="stable")
        total += float(np.cumsum(part[order])[-1]) + float(np.count_nonzero(part > 0.5))
    return len(terms) + len(counts) + total


def reference_s() -> float:
    """The reference work's time now: the faster of two passes, so that one
    interrupt does not read as a slow host."""
    best = float("inf")
    for _ in range(2):
        t = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t)
    return best


class HostSpeed:
    """Scales each timed sample by the reference timed on either side of it.

    Call ``scale()`` as soon as a sample's clock stops; the reference it
    times then also serves as the "before" of the next sample.
    """

    def __init__(self) -> None:
        _work()  # first-use costs stay out of the figures
        self.last = reference_s()
        self.references = [self.last]

    def scale(self) -> float:
        before, self.last = self.last, reference_s()
        self.references.append(self.last)
        return NOMINAL_S / ((before + self.last) / 2)

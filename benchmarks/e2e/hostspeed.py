"""Host-speed calibration: a fixed probe, timed beside every measurement.

The benchmark runs on a shared host whose effective CPU speed moves by
10-45% over seconds to minutes (neighbours on the same cores, clock
scaling; the guest sees no steal time).  Identical runs of a CPU-bound
workload differed by that much, which no bound could tell from a real
regression.  The probe below -- a fixed loop of 255-bit modular
multiplications, the arithmetic the library's own hot path is made of --
slows down by the same factor at the same moment: across ten runs whose
raw medians spread over 8.6% (and 44% between two sets an hour apart),
the medians divided by the probe's time spread over 2.3% (README,
"Steadiness").

So every *timing* metric is reported at reference host speed: seconds
are divided, rates multiplied, by ``probe seconds / REFERENCE_S`` taken
next to the samples they scale (per window slice, per iteration, per
set-up round).  Counts, bytes and memory are never scaled.  The factor
itself is reported (``host.speed_factor``, and in every report header),
so the numbers as the clock read them are one multiplication away.
"""

import statistics
from time import perf_counter
from typing import Iterable

# What the probe takes on the development host at its quickest; chosen
# once, so that calibrated numbers read like that host's real ones.
REFERENCE_S = 0.0005

_MODULUS = 2 ** 255 - 19
_START = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF
_ROUNDS = 1500


def probe(repeats: int = 3) -> float:
    """Seconds the fixed loop took: the quickest of ``repeats`` goes,
    since an interrupted go says nothing about the host's speed."""
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        acc = _START
        for _ in range(_ROUNDS):
            acc = (acc * acc + 7) % _MODULUS
        best = min(best, perf_counter() - started)
    return best


def factor(probes: Iterable[float]) -> float:
    """How many times slower than the reference the host was (mean of
    the probes around a measurement, over the reference)."""
    return statistics.fmean(probes) / REFERENCE_S

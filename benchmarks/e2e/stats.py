"""Sample summaries: nearest-rank percentiles and the best-slice rule."""

import math
import statistics
from typing import Callable, List, Sequence, Tuple

# A reported number: (value, sample count it was computed from).
Measured = Tuple[float, int]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` of the samples at or below it (no interpolation, so every
    reported latency is one that was actually observed)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def p50(samples: Sequence[float]) -> float:
    return percentile(samples, 0.50)


# Every timing metric is taken from the best of this many consecutive
# slices of the measured window.  Other tenants of a shared host only
# ever add time, in bursts of seconds; hostspeed.py takes out the part
# that slows everything alike, the quietest tenth of the window is the
# defence against the rest (README, "Steadiness").
SLICES = 10


def count_slices(samples: Sequence, slices: int = SLICES) -> List[Sequence]:
    """``samples`` cut, in order, into ``slices`` runs of equal length
    (fewer when there are not enough samples to fill them)."""
    count = len(samples)
    cuts = [samples[k * count // slices:(k + 1) * count // slices]
            for k in range(slices)]
    return [cut for cut in cuts if len(cut) > 0]


def best(slices: Sequence[Sequence[float]],
         statistic: Callable[[Sequence[float]], float],
         pick: Callable = min, min_samples: int = 10) -> float:
    """``statistic`` of the best slice (``pick`` says which way is
    best).  Slices with fewer than ``min_samples`` are passed over; when
    that leaves none (a smoke run), all samples count as one slice."""
    full = [cut for cut in slices if len(cut) >= min_samples]
    if not full:
        full = [[sample for cut in slices for sample in cut]]
    return pick(statistic(cut) for cut in full)


def spread(values: Sequence[float]) -> float:
    """(max - min) / median; 0 when the median is 0."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def share(part: float, whole: float) -> float:
    """``part / whole``; 0 when there was nothing to take a share of."""
    return part / whole if whole else 0.0


def ms(seconds: float) -> float:
    return seconds * 1e3

"""Reductions the benchmark reports: tail percentiles and failure accounting."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

#: a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def tail_percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank q-th percentile, refused unless ``min_beyond`` samples
    lie strictly above it (so p95 needs at least 200 distinct-enough samples)."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise TooFewSamples("no samples")
    value = xs[max(1, math.ceil(q / 100.0 * n)) - 1]
    beyond = n - bisect.bisect_right(xs, value)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it, fewer than {min_beyond}")
    return value


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails on any problem."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, problems) -> bool:
        """Count one operation with its list of problems; True when it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    @property
    def failed_fraction(self) -> float:
        if self.attempted == 0:
            raise ValueError("no operation was attempted")
        return self.failed / self.attempted

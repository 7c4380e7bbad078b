"""Reference-speed scaling of measured times.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up
to 2x over phases of seconds to minutes (a pure-Python loop takes 1.4 ms
in one phase and 2.6 ms in the next), so a raw time measures the neighbours as
much as the program. Between requests the benchmark therefore times a
fixed calibration unit: stdlib-only Python of the same kind colprob runs
(exact fractions, tuples, dicts, frozensets, string formatting). A request's
time is scaled by ``REFERENCE_UNIT_S / u``, where ``u`` is the median
calibration time around that request. The result is the time the request
would take on a machine where one unit takes ``REFERENCE_UNIT_S``; a change
that makes colprob faster lowers it, a busy neighbour mostly does not.
colprob's times do not track the unit's exactly; METRICS.md gives how
closely they do on each workload.
"""

from __future__ import annotations

import statistics
import time
from array import array
from fractions import Fraction

# One calibration unit on the reference machine (2-vCPU Xeon VM, Python
# 3.11.7, in its common slow phase), so scaled times read close to raw ones.
REFERENCE_UNIT_S = 0.0005
# A request is preceded by a unit when this long has passed since the last.
SAMPLE_PERIOD_S = 0.01
# A request is scaled by the median of this many units around it.
WINDOW = 21


def unit() -> Fraction:
    """The calibration unit. Its work is fixed; only its time varies."""
    total = Fraction(0)
    seen: dict[tuple[int, int], int] = {}
    for i in range(1, 52):
        total += Fraction(i % 5 + 1, i + 6) * Fraction(3, i + 1)
        key = (i % 7, i % 3)
        seen[key] = seen.get(key, 0) + 1
    text = ",".join(f"{k[0]}/{k[1]}={v}" for k, v in sorted(seen.items()))
    return total + len(frozenset(seen) | frozenset(text))


def unit_time() -> float:
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start


class Meter:
    """Times calibration units between requests and scales each request's
    latency to the reference speed."""

    def __init__(self):
        # Compact, so the process's peak RSS does not grow with the pass count.
        self.units = array("d")
        self.at = array("l")  # per request: index of the last unit before it
        self._last = float("-inf")

    def before_request(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_PERIOD_S:
            self.units.append(unit_time())
            self._last = time.perf_counter()
        self.at.append(len(self.units) - 1)

    def scaled(self, latencies) -> list[float]:
        """``latencies[i]`` belongs to the i-th ``before_request`` call."""
        half = WINDOW // 2
        factor: dict[int, float] = {}
        out = []
        for lat, k in zip(latencies, self.at):
            if k not in factor:
                lo = max(0, min(k - half, len(self.units) - WINDOW))
                factor[k] = REFERENCE_UNIT_S / statistics.median(self.units[lo:lo + WINDOW])
            out.append(lat * factor[k])
        return out

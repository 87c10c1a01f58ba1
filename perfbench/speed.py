"""Machine-speed calibration: rescale op latencies to a nominal machine speed.

On a shared machine the CPU's speed drifts by up to 1.7 times over tens of
seconds, so raw latency percentiles of identical 30 s runs spread by 12 to
40%. A calibration is a fixed computation written here, so no change to the
package moves it. One runs before every op; an op's latency times the
calibration's NOMINAL_MS over the median of the calibrations near it is its
nominal latency. Each workload calibrates with code shaped like its own ops,
since different code slows down by different amounts: Python loops more than
starting a subprocess.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

SPAWN_TIMEOUT_S = 60


def search_calibration():
    """Time (ms) of an integer depth-first search over count vectors.

    Shaped like the optimum workload's solver: k = 9, mu = 1/2, costs scaled
    to integers.
    """
    start = time.perf_counter()
    k, scale = 9, 2520
    steps = [scale // (j + 1) for j in range(1, k)]
    gains = [2 * scale // j - scale // (j + 1) for j in range(1, k)]
    best = [0]

    def extend(pos, load, gained):
        if pos == k - 1:
            best[0] = max(best[0], gained)
            return
        for value in range(pos + 2):
            new_load = load + value * steps[pos]
            if new_load >= scale:
                break
            extend(pos + 1, new_load, gained + value * gains[pos])

    extend(0, 0, 0)
    return (time.perf_counter() - start) * 1000


PACKING_SIZES = tuple(Fraction((p * 7919) % 999_983 + 1, 10**6) for p in range(1, 151))


def packing_calibration():
    """Time (ms) of a Fraction packing loop over 150 sizes.

    Shaped like the pack workload: classify each size, then next-fit or a
    per-class bin.
    """
    start = time.perf_counter()
    k, small, bins, total = 12, Fraction(0), {}, Fraction(0)
    for x in PACKING_SIZES:
        total += x
        if x * k <= 1:
            small = x if small + x > 1 else small + x
        else:
            bins.setdefault(x.denominator // x.numerator, []).append(x)
    return (time.perf_counter() - start) * 1000


def spawn_calibration():
    """Time (ms) to start and stop a bare interpreter, `python -c pass`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=SPAWN_TIMEOUT_S)
    return (time.perf_counter() - start) * 1000


# Each calibration's time near its fastest on a 2-vCPU Intel Xeon VM under
# CPython 3.11: the nominal speed every op is rescaled to.
NOMINAL_MS = {
    "search_calibration": 0.65,
    "packing_calibration": 0.9,
    "spawn_calibration": 42.0,
}
# An op is rescaled by the median of the calibrations run before it and
# before the WINDOW ops on either side.
WINDOW = 2


def nominal_latencies(phase):
    """Each op's latency in a measured phase, rescaled to the nominal speed."""
    lat, cal = phase["latencies_ms"], phase["cal_ms"]
    nominal = NOMINAL_MS[phase["calibration"]]
    return [ms * nominal / statistics.median(cal[max(0, i - WINDOW): i + WINDOW + 1]) for i, ms in enumerate(lat)]

"""The pace of the machine, measured next to each timed section.

The host that runs the benchmark is shared, and its speed drifts: a fixed
pure-Python loop on the 2-vCPU reference machine took 16 ms in one 5 s
window and 21 ms in another, in CPU time as much as in wall time, so no
per-process clock hides it.  Every timed section (a cold CLI process, or
one in-process call) is therefore bracketed by probes: a fixed piece of
pure-Python work of the same kinds spinrep does (exact fractions,
dict-of-dict sparse products, float maths, string conversion), timed in the
process that times the section.  The section's time is reported at the
reference pace:

    paced = raw * REFERENCE_PROBE_S / (mean of the probes before and after)

The probe imports nothing from spinrep, so a change to spinrep cannot move it.

    python3 perfbench/pace.py [SECONDS]

prints probe medians over the given time, which is how REFERENCE_PROBE_S
was set.
"""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction
from statistics import median

# Median probe time on the reference machine (2 vCPU, Python 3.11).  Only a
# scale: it turns "probes" into seconds at that machine's usual pace.
REFERENCE_PROBE_S = 0.0018
PROBE_REPEATS = 7  # a probe is the median of this many runs of the work
# A probe this recent serves as the next probe too, so that a string of short
# sections (the small signatures of the intertwiner sweep) costs a probe per
# REUSE_S rather than one each.
REUSE_S = 0.3


def _work() -> float:
    # exact fractions, as in QMat and Multivector coefficients
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 1) * Fraction(1 - 2 * (i % 2), i + 2)
    # sparse product of dict-of-dict matrices with int entries
    a = {i: {(i * 7 + k) % 24: 1 - 2 * (k % 2) for k in range(3)} for i in range(24)}
    prod: dict = {}
    for i, row in a.items():
        out = prod.setdefault(i, {})
        for k, v in row.items():
            for j, w in a[k].items():
                out[j] = out.get(j, 0) + v * w
    # float maths, as in the RK4 transport
    x = 0.5
    for i in range(1500):
        x = math.sin(x + i * 1e-3) * math.cos(x) + math.sqrt(abs(x) + 1.0)
    # string conversion, as in the gamma JSON writer and parser
    text = ",".join(str(Fraction(i, 7)) for i in range(60))
    total = sum(Fraction(t) for t in text.split(","))
    return float(acc) + x + float(total) + len(prod)


def probe() -> float:
    """Seconds one run of the probe work takes now (median of a few)."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _work()
        samples.append(time.perf_counter() - start)
    return median(samples)


class Pacer:
    """Times sections at the reference pace::

        start = pacer.start()
        ...  # the timed section
        seconds = pacer.stop(start)
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._last = (0.0, -math.inf)  # (probe seconds, when it was taken)
        self._before = 0.0

    def _probe(self) -> float:
        value, taken = self._last
        if time.perf_counter() - taken < REUSE_S:
            return value
        value = probe()
        self.probes.append(value)
        self._last = (value, time.perf_counter())
        return value

    def start(self) -> float:
        self._before = self._probe()
        return time.perf_counter()

    def stop(self, start: float) -> float:
        raw = time.perf_counter() - start
        return raw * REFERENCE_PROBE_S / ((self._before + self._probe()) / 2)


def main(argv: list[str]) -> int:
    seconds = float(argv[0]) if argv else 20.0
    end = time.perf_counter() + seconds
    window: list[float] = []
    medians: list[float] = []
    mark = time.perf_counter()
    while time.perf_counter() < end:
        window.append(probe())
        if time.perf_counter() - mark > 2.0:
            medians.append(median(window))
            print(f"probe median {medians[-1] * 1e3:.3f} ms over {len(window)} probes")
            window, mark = [], time.perf_counter()
    if medians:
        print(f"overall median {median(medians) * 1e3:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

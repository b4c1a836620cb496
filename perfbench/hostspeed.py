"""Host-speed calibration, sampled on the worker's own CPU.

The host this benchmark was built on changes speed by up to 2x from one
second to the next (its CPUs appear to be shared with other work), so raw
times of one commit spread more than any useful regression bound. The benchmark
therefore reports CPU time corrected to a reference host speed:

    corrected_s = cpu_s * REF_UNIT_S / (mean unit time in the same window)

A calibrator process pinned to the worker's CPU wakes every ~10 ms, times
one fixed unit of pure-Python work by its own thread CPU time, and sleeps.
Its samples interleave with the worker's execution, so they see the same
host speed. The unit uses none of chainsim, so a faster chainsim does not
move it. Run as a script it is the calibrator:

    python3 perfbench/hostspeed.py    # prints its samples on SIGTERM
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import signal
import sys
import time

REF_UNIT_S = 0.0004  # one unit on the build host at its faster speed
MAX_LIFE_S = 300  # outlive no worker; also exits if its parent dies
SLEEP_S = 0.009
MIN_SAMPLES = 3


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def unit() -> int:
    """Fixed pure-Python work in the mix the simulator runs: objects and
    attribute access, dicts, sorting, small bytes, hashing and JSON."""
    table: dict = {}
    items = []
    for i in range(120):
        key = hashlib.sha256(i.to_bytes(4, "big")).digest()[:8]
        item = _Item(key, i * 7 % 31)
        items.append(item)
        table[key] = table.get(key, 0) + item.value
    items.sort(key=lambda it: (it.value, it.key))
    text = json.dumps({it.key.hex(): it.value for it in items[:40]}, sort_keys=True)
    return len(text) + sum(table.values())


class Samples:
    """Calibrator samples, (monotonic time, unit CPU seconds), in time order."""

    def __init__(self, samples: list):
        self.times = [t for t, _ in samples]
        self.units = [dt for _, dt in samples]

    def factor(self, start: float, end: float) -> float:
        """REF_UNIT_S over the mean unit time in [start, end], widened to
        the nearest MIN_SAMPLES samples when fewer fall inside."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        window = self.units[lo:hi]
        return REF_UNIT_S / (sum(window) / len(window))


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    samples = []
    clock, cpu = time.monotonic, time.thread_time
    parent, deadline = os.getppid(), clock() + MAX_LIFE_S
    while not stop and os.getppid() == parent and clock() < deadline:
        start = cpu()
        unit()
        samples.append((clock(), cpu() - start))
        time.sleep(SLEEP_S)
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Host-speed probe, run as its own process (stdlib only).

    python3 perfbench/speed.py

Every ``PERIOD_S`` seconds it times a fixed pure-Python loop in its own
thread CPU time, so the figure tracks how fast the host runs Python
right then and not how long the probe waited for a CPU.  Each line on
stdin is answered with one JSON line: the list of loop times (seconds)
measured since the previous line (at least one: if none was, it times
the loop once there and then).  End of input ends it.

The probe takes about 4% of one CPU, spread evenly over the run, so the
measured program sees the same small load in every run.
"""

from __future__ import annotations

import json
import select
import sys
import time

ITERATIONS = 20_000
PERIOD_S = 0.05


def spin() -> float:
    started = time.thread_time()
    total = 0
    for i in range(ITERATIONS):
        total += i * i
    return time.thread_time() - started


def main() -> int:
    samples: list[float] = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if not ready:
            samples.append(spin())
            continue
        if not sys.stdin.readline():
            return 0
        if not samples:
            samples.append(spin())
        print(json.dumps(samples), flush=True)
        samples = []


if __name__ == "__main__":
    raise SystemExit(main())

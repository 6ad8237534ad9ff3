"""Host-speed calibration for the reported times.

On a shared host the same pure-Python work runs up to twice as fast in some
minutes as in others, and the process's CPU time swings with its wall time,
so neither clock alone separates the program from the host.  A fixed loop of
the benchmark's own code, timed right before and right after each measured
stretch, shows how fast the host is running at that moment.  A stretch's
reference time is its wall time scaled by REFERENCE_S over the loop's time
per round: the time it would have taken on a host where one round takes
REFERENCE_S.  A change in gramconv moves the stretch and not the loop, so it
shows in full in the reference time.

Not all work slows down as much as the loop does.  A workload's host
sensitivity is the share of the loop's slowdown that shows in its own wall
time, the slope of log wall time on log loop time over runs made while the
host ran at different speeds; its operations are scaled by the loop's speed
raised to that power.  Set-up is scaled in full.

One measurement of the loop is the median of ROUNDS rounds timed one by
one, so a single preemption does not count.  An operation's factor uses the
median of the measurements within WINDOW operations of it, so the noise of a
few milliseconds of loop does not become noise in the operation.

The loop builds, walks and sorts small trees (allocation, attribute and dict
access, recursion and calls, like the package's own work) with the cyclic
collector off, so the loop costs the same whatever the program has left on
the heap.
"""

from __future__ import annotations

import gc as collector
import statistics
import time

# seconds per round on the reference host: about the round time this loop
# shows on a 2-core shared Intel Xeon when the host is quiet
REFERENCE_S = 0.0004
ROUNDS = 5
WINDOW = 2


class _Node:
    __slots__ = ("kind", "kids", "name")

    def __init__(self, kind: str, kids: tuple, name: str) -> None:
        self.kind, self.kids, self.name = kind, kids, name


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (), f"n{i % 97}")
    return _Node("seq" if i & 1 else "alt",
                 tuple(_build(depth - 1, i * 3 + k) for k in range(3)), "")


def _walk(node: _Node, counts: dict) -> int:
    if node.kind == "leaf":
        counts[node.name] = counts.get(node.name, 0) + 1
        return 1
    return sum(_walk(kid, counts) for kid in node.kids)


def round_s() -> float:
    """Wall seconds per round of the loop, measured now: the median of
    ROUNDS rounds."""
    enabled = collector.isenabled()
    collector.disable()
    try:
        times = []
        for r in range(ROUNDS):
            started = time.perf_counter()
            counts: dict = {}
            _walk(_build(5, r), counts)
            sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
            times.append(time.perf_counter() - started)
        return statistics.median(times)
    finally:
        if enabled:
            collector.enable()


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for one stretch between
    two loop measurements."""
    return REFERENCE_S / ((before + after) / 2)


def factors(rounds: list[float], sensitivity: float) -> list[float]:
    """Factors for consecutive stretches of work with the given host
    sensitivity: stretch i ran between rounds[i] and rounds[i + 1]."""
    return [(REFERENCE_S / statistics.median(rounds[max(0, i - WINDOW):i + WINDOW + 2]))
            ** sensitivity for i in range(len(rounds) - 1)]

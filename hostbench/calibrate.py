"""Host-speed calibration with a fixed reference routine.

On a shared host the same interpreted code can run up to twice as slowly
for minutes at a time, because other tenants load the same cores; CPU time
inflates as much as wall time, so no clock hides it, and best-of-replays
cannot help when a whole run falls in a slow phase.  Every replay is
therefore bracketed by runs of :func:`reference_ns`, a fixed pure-Python
routine that shares no code with the program under test: path formatting,
a compiled-regex match, dict lookups and inserts, small objects, one
raised exception per few iterations — the same kinds of interpreter work
the simulated kernel does.  The fastest reference time of a run measures
how fast the host could run Python during it, and the end-to-end times
are divided by its ratio to :data:`NOMINAL_NS`.

A change to the program moves the measured times but not the reference,
so calibration keeps program changes visible while host phases cancel.
On the 2-core development host it cut the spread of 20-second windows of
``situation-churn``'s median situation latency from 4.3% to 1.7% in a
quiet period and from 22% to 8% in a loaded one.
"""

from __future__ import annotations

import re
import time
from typing import List

#: Reference time the calibration scales to (roughly the routine's best
#: on an unloaded 2-core x86-64 host with CPython 3.11).
NOMINAL_NS = 5_000_000

#: Reference runs before and after each replay.
RUNS = 3

_PATTERN = re.compile(r"^/var/(media|nav)/a\d+/t\d+\.ogg$")


class _Node:
    __slots__ = ("name", "children", "mode")

    def __init__(self, name: str, mode: int):
        self.name = name
        self.children = {}
        self.mode = mode


class _Denied(Exception):
    pass


def _check(node: _Node, key: str, mask: int) -> _Node:
    child = node.children.get(key)
    if child is None or child.mode & mask != mask:
        raise _Denied(key)
    return child


def reference_ns() -> int:
    """Host ns to run the fixed reference routine once."""
    start = time.perf_counter_ns()
    root = _Node("/", 7)
    cache = {}
    for i in range(3000):
        key = f"a{i % 97:03d}"
        if key not in root.children:
            root.children[key] = _Node(key, 6 if i % 5 else 4)
        path = f"/var/media/{key}/t{i % 31:03d}.ogg"
        _PATTERN.match(path)
        try:
            _check(root, key, 2 if i % 3 == 0 else 4)
        except _Denied:
            pass
        slot = (key, i & 15)
        if slot not in cache:
            cache[slot] = [i, path.rsplit("/", 1)[-1]]
        elif len(cache) > 512:
            cache.pop(next(iter(cache)))
    return time.perf_counter_ns() - start


def reference_runs() -> List[int]:
    return [reference_ns() for _ in range(RUNS)]

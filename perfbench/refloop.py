"""The reference loop, reference-second normalisation and order statistics.

Host speed on a small shared machine drifts by 10-40% between identical
runs, so no op is reported in raw wall seconds. Before every op the
benchmark times :meth:`Reference.run`, a fixed piece of work that uses
nothing from ``repro`` (no change to the program can move it), and
scales the op's wall time by ``R0 / r``: ``r`` is the reference time next
to the op and ``R0`` the reference time pinned in ``pins.json``. The
result is in *reference-seconds*: what the op would have taken on a host
where the reference takes exactly ``R0``.

The reference mixes the kinds of work the workloads do: a pure-Python
loop (interpreter dispatch, dicts, strings), a small numpy kernel
(per-call dispatch over tiny arrays, like the level walk) and JSON
encoding and hashing (like store keys and the wire). It has no file
part: the shared disk's latency drifts apart from CPU speed, so fsync'd
writes in the reference only added noise to the CPU-bound ops.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from typing import List, Optional, Sequence, Tuple

_PY_ROUNDS = 2500
_NP_ROUNDS = 160
_JSON_ROUNDS = 6
_JSON_DOC = {
    "rows": [
        {"point": {"arch": "qla", "factory_area": i * 1.5, "code_level": i % 3},
         "result": {"makespan_us": i * 3.25, "gates": i}}
        for i in range(60)
    ]
}


def _python_part() -> int:
    table = {}
    acc = 0
    for i in range(_PY_ROUNDS):
        key = f"k{i % 97}:{i % 13}"
        table[key] = table.get(key, 0) + i
        acc += len(key) ^ (i & 7)
    ordered = sorted(table.items(), key=lambda item: (item[1], item[0]))
    return acc + len(ordered)


def _numpy_part(state, index, other, maximum) -> float:
    for _ in range(_NP_ROUNDS):
        t = state[index]
        maximum(t, state[other], out=t)
        t += 0.5
        state[index] = t
    return float(state.max())


def _json_part() -> int:
    total = 0
    for _ in range(_JSON_ROUNDS):
        text = json.dumps(_JSON_DOC, sort_keys=True)
        total += len(hashlib.sha256(text.encode("utf-8")).hexdigest())
        total += len(json.loads(text)["rows"])
    return total


class Reference:
    """The fixed reference work.

    numpy is imported here, not with the module, so that a caller can
    pin numpy's thread pools after importing this module.
    """

    def __init__(self) -> None:
        import numpy as np

        self._maximum = np.maximum
        rng = np.random.default_rng(12345)
        self._state = np.zeros((65, 8))
        perm = rng.permutation(64)
        self._index = perm[:24]
        self._other = perm[24:48]

    def run(self) -> float:
        """Wall seconds of one pass over the reference work."""
        self._state.fill(0.0)
        t0 = time.perf_counter()
        _python_part()
        _numpy_part(self._state, self._index, self._other, self._maximum)
        _json_part()
        return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Normalisation


#: Fewest reference passes behind each op's reference time.
MIN_PASSES = 6


def local_reference(refs: Sequence[float], passes: Sequence[int], i: int) -> float:
    """The reference time next to op ``i``.

    ``refs[g]`` is the mean of ``passes[g]`` reference passes run in gap
    ``g``; gap ``i`` is just before op ``i`` and gap ``i + 1`` just after
    it. A shared host flips between fast and slow states within seconds,
    so the nearest gaps describe the host the op ran on best: the window
    starts at the two gaps around the op and widens one op either side
    until it holds :data:`MIN_PASSES` passes. A long op has several
    passes per gap and stays at two gaps; a short op's single passes
    are pooled over a few neighbours, which damps their noise.
    """
    half = 0
    while True:
        lo = max(0, i - half)
        hi = min(len(refs), i + half + 2)
        total = sum(passes[lo:hi])
        if total >= MIN_PASSES or (lo == 0 and hi == len(refs)):
            return sum(r * n for r, n in zip(refs[lo:hi], passes[lo:hi])) / total
        half += 1


def normalise(walls: Sequence[float], refs: Sequence[float], r0: float,
              passes: Optional[Sequence[int]] = None) -> List[float]:
    """Each op's wall time scaled by ``R0 / r`` into reference-seconds.

    ``passes`` counts the reference passes behind each entry of ``refs``
    (one each when omitted).
    """
    if len(refs) != len(walls) + 1:
        raise ValueError("need one reference before every op and one after the last")
    if passes is None:
        passes = [1] * len(refs)
    return [wall * r0 / local_reference(refs, passes, i) for i, wall in enumerate(walls)]


# ----------------------------------------------------------------------
# Order statistics


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[Optional[float], float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``. With ``n`` sorted samples the
    value is the ``(n - beyond)``-th smallest, so exactly ``beyond``
    samples lie beyond it, and its percentile is ``100 (n - beyond) / n``.
    With ``n <= beyond`` there is no such percentile and the value is
    None.
    """
    n = len(values)
    if n <= beyond:
        return None, 0.0, n
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def iqr_ratio(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


# ----------------------------------------------------------------------
# Host diagnostics


def cpu_times() -> Tuple[int, int]:
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0, 0
    values = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already inside user/nice, so it is not added again.
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


def steal_fraction(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of CPU time the hypervisor gave to other guests."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0

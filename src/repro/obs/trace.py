"""Span tracer with JSONL / Chrome trace-event export and worker spools.

The tracer answers "where did this run spend its time?" at *phase*
granularity: lowering a circuit, walking the dataflow kernel,
executing protocol frames, waiting on a lease. It is
**off by default** and free when off:

* the module global :data:`TRACER` is ``None`` when disabled;
* :func:`span` checks it for truthiness and returns the shared no-op
  :data:`_NULL_SPAN` singleton — no allocation, no clock read;
* instrumentation sits at phase boundaries, never inside per-gate or
  per-trial loops, so even the enabled cost is a handful of clock reads
  per simulation.

Timestamps use **both** clocks deliberately: durations come from
``time.perf_counter()`` (monotonic, high resolution), while the event
timestamp is ``time.time()`` in microseconds, so events recorded in
different processes (pool workers) land on one comparable timeline
when merged. Chrome/Perfetto export rebases all timestamps to the
earliest event.

Cross-process story: the parent exports :data:`SPOOL_ENV` before
building its ``ProcessPoolExecutor``; the pool initializer calls
:func:`worker_init_from_env`, which creates a **fresh** tracer in the
child (a forked child inherits the parent's tracer object — reusing it
would double-count parent events), spooling to
``<spool_dir>/worker-<pid>.jsonl``. Workers append completed events
after every chunk via :func:`flush_worker`; the parent folds the spool
files back into its own event list with :meth:`Tracer.merge_spool`.

Typical use::

    from repro import obs

    obs.enable(spool_dir=".trace-spool")   # parent, before pool creation
    with obs.span("simulate.level_walk", gates=1234):
        ...
    obs.TRACER.merge_spool()               # after pool work completes
    obs.TRACER.export_chrome("trace.json") # open in https://ui.perfetto.dev
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs import metrics as _metrics

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "SPOOL_ENV",
    "span",
    "enable",
    "disable",
    "enabled",
    "worker_init_from_env",
    "flush_worker",
]

#: Environment variable carrying the spool directory from the parent to
#: pool workers. Set by :func:`enable` / the evaluator's pool builder.
SPOOL_ENV = "REPRO_OBS_SPOOL"


class Span:
    """One timed region. Use as a context manager via :func:`span`.

    Closing a span appends a Chrome-style complete event (``"ph": "X"``)
    to its tracer and records the duration into the
    ``repro_phase_seconds`` histogram (labeled ``phase=<name>``).
    """

    __slots__ = ("tracer", "name", "args", "_t0", "_wall_us")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, object]):
        self.tracer = tracer
        self.name = name
        self.args = args
        self._t0 = 0.0
        self._wall_us = 0.0

    def __enter__(self) -> "Span":
        self._wall_us = time.time() * 1e6
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._t0
        self.tracer._record(self.name, self._wall_us, duration, self.args)

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. result counts)."""
        self.args.update(attrs)


class _NullSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects completed span events for one process.

    Thread-safe: spans may open and close concurrently from any thread;
    each completed event records its thread id, so per-thread lanes
    render separately in Perfetto.
    """

    def __init__(self, spool_dir: Optional[str] = None,
                 worker: bool = False) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict] = []
        self.pid = os.getpid()
        self.worker = worker
        self.spool_dir = Path(spool_dir) if spool_dir else None
        if self.spool_dir is not None:
            self.spool_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Open a span named ``name`` with optional attributes."""
        return Span(self, name, attrs)

    def _record(self, name: str, wall_us: float, duration_s: float,
                args: Dict[str, object]) -> None:
        event = {
            "name": name,
            "ph": "X",
            "ts": wall_us,
            "dur": duration_s * 1e6,
            "pid": self.pid,
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._events.append(event)
        _metrics.observe_phase(name, duration_s)

    def events(self) -> List[Dict]:
        """A copy of every recorded (and merged) event."""
        with self._lock:
            return list(self._events)

    # ------------------------------------------------------------------
    # Worker spool

    def flush_spool(self) -> Optional[Path]:
        """Append this process's pending events to its spool file.

        Returns the spool path, or ``None`` when no spool directory is
        configured. Called by pool workers after each chunk; events are
        drained so repeated flushes never duplicate.
        """
        if self.spool_dir is None:
            return None
        with self._lock:
            pending, self._events = self._events, []
        path = self.spool_dir / f"worker-{self.pid}.jsonl"
        if pending:
            with open(path, "a", encoding="utf-8") as fh:
                for event in pending:
                    fh.write(json.dumps(event) + "\n")
        return path

    def merge_spool(self, spool_dir: Optional[str] = None) -> int:
        """Fold worker spool files into this tracer's event list.

        Events merge in timestamp order and are tagged with a
        ``worker`` arg (their source file stem). Worker span durations
        are also fed into the ``repro_phase_seconds`` histogram here —
        workers cannot update the parent's in-memory registry, so the
        merge is where their timings join the parent's metrics. Corrupt
        lines (a worker killed mid-write) are skipped, not fatal.
        Spool files are consumed (deleted) once read, so calling twice
        never duplicates events. Returns the number of events merged.
        """
        root = Path(spool_dir) if spool_dir else self.spool_dir
        if root is None or not root.exists():
            return 0
        merged: List[Dict] = []
        for path in sorted(root.glob("worker-*.jsonl")):
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue
            try:
                path.unlink()
            except OSError:
                pass
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue  # torn write from a crashed worker
                if not isinstance(event, dict) or "name" not in event:
                    continue
                event.setdefault("args", {})["worker"] = path.stem
                merged.append(event)
        merged.sort(key=lambda e: e.get("ts", 0.0))
        for event in merged:
            _metrics.observe_phase(event["name"], event.get("dur", 0.0) / 1e6)
        with self._lock:
            self._events.extend(merged)
            self._events.sort(key=lambda e: e.get("ts", 0.0))
        return len(merged)

    # ------------------------------------------------------------------
    # Export

    def export_jsonl(self, path) -> Path:
        """Write one JSON event per line (raw, unrebased timestamps)."""
        path = Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events():
                fh.write(json.dumps(event) + "\n")
        return path

    def export_chrome(self, path) -> Path:
        """Write Chrome trace-event JSON (open in ``ui.perfetto.dev``).

        Timestamps are rebased so the earliest event starts at 0, and
        each pid gets a ``process_name`` metadata event ("repro" for
        the parent, "repro worker <pid>" for pool workers).
        """
        events = self.events()
        base = min((e.get("ts", 0.0) for e in events), default=0.0)
        trace_events: List[Dict] = []
        pids = []
        for event in events:
            pid = event.get("pid", self.pid)
            if pid not in pids:
                pids.append(pid)
            out = dict(event)
            out["ts"] = event.get("ts", 0.0) - base
            trace_events.append(out)
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": "repro" if pid == self.pid
                    else f"repro worker {pid}"
                },
            }
            for pid in pids
        ]
        doc = {
            "traceEvents": metadata + trace_events,
            "displayTimeUnit": "ms",
        }
        path = Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


#: The active tracer, or ``None`` when tracing is disabled. Hot paths
#: read this global once per phase; when it is ``None`` the only cost
#: is the truthiness check.
TRACER: Optional[Tracer] = None


def span(name: str, **attrs):
    """A span on the active tracer, or the shared no-op when disabled.

    The fast path — tracing off — is one global read and a truthiness
    check; no object is created.
    """
    tracer = TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def enabled() -> bool:
    """Whether a tracer is currently active in this process."""
    return TRACER is not None


def enable(spool_dir: Optional[str] = None) -> Tracer:
    """Turn tracing on; returns the (new) active tracer.

    ``spool_dir`` arms cross-process aggregation: it is exported via
    :data:`SPOOL_ENV` so pool workers created afterwards spool their
    events there for :meth:`Tracer.merge_spool`.
    """
    global TRACER
    TRACER = Tracer(spool_dir=spool_dir)
    if spool_dir is not None:
        os.environ[SPOOL_ENV] = str(spool_dir)
    return TRACER


def disable() -> None:
    """Turn tracing off and clear the spool environment hand-off."""
    global TRACER
    TRACER = None
    os.environ.pop(SPOOL_ENV, None)


def worker_init_from_env() -> Optional[Tracer]:
    """Pool-worker side of the spool hand-off.

    Called first thing in every ``ProcessPoolExecutor`` initializer. If
    the parent exported :data:`SPOOL_ENV`, install a **fresh** tracer
    spooling there (a forked worker inherits the parent's tracer object,
    which must not be reused: its buffered parent events would be
    re-emitted from the worker). Otherwise make sure tracing is off.
    """
    global TRACER
    spool = os.environ.get(SPOOL_ENV)
    if spool:
        TRACER = Tracer(spool_dir=spool, worker=True)
    else:
        TRACER = None
    return TRACER


def flush_worker() -> None:
    """Flush the worker tracer's spool, if one is active."""
    tracer = TRACER
    if tracer is not None and tracer.worker:
        tracer.flush_spool()

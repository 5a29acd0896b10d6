"""The traced run: per-layer inclusive and self time, timed from outside.

:func:`install` wraps the public functions and methods through which
each layer of ``repro`` is entered, at every place the callers look them
up (the defining module, every module that imported the name, or the
class), and :func:`uninstall` puts the originals back. Nothing under
``src/`` changes. Each wrapper opens a frame on one stack shared by all
threads: the benchmark is a closed loop with one client, so a server
thread only runs while the client thread waits on it, and the server's
frames nest under the client's open request.

A frame's self time is its duration minus its child frames. A layer's
self time sums the self time of its frames; its inclusive time sums its
outermost frames only. The self times of all frames add up to the time
under top-level frames, and the op time minus that is ``untraced_s``.

Finer splits inside a layer (ready matrix vs level walk, rounds, batch
fallbacks) come from the ``repro.obs`` spans the program already emits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("kernels", "circuits", "tech", "arch", "explore", "store", "serve",
          "mc", "reporting")


def _count_points(bound, result):
    return {"arch.points": len(bound.arguments["supplies"])}


def _count_trials(bound, result):
    return {"mc.trials": int(bound.arguments["trials"])}


def _count_get(bound, result):
    return {"store.gets": 1, "store.hits": int(result is not None)}


def _count_request_bytes(bound, result):
    return {"serve.bytes": len(result)}


def _count_response_bytes(bound, result):
    return {"serve.bytes": len(bound.arguments["payload"])}


#: (layer, module, qualified name, counter hook) for every wrapped entry.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("kernels", "repro.kernels.analysis", "analyze_kernel", None),
    ("circuits", "repro.circuits.compiled", "compile_circuit", None),
    ("circuits", "repro.circuits.compiled", "dataflow_metadata", None),
    ("tech", "repro.tech.params", "TechnologyParams.at_level", None),
    ("arch", "repro.arch.batched", "simulate_batch", _count_points),
    ("arch", "repro.arch.simulator", "DataflowSimulator.run", None),
    ("arch", "repro.arch.simulator", "DataflowSimulator.run_legacy", None),
    ("arch", "repro.arch.sweep", "area_sweep", None),
    ("arch", "repro.arch.sweep", "throughput_sweep", None),
    ("explore", "repro.explore.engine", "explore", None),
    ("explore", "repro.explore.evaluator", "Evaluator.evaluate", None),
    ("explore", "repro.explore.strategies", "GridStrategy.ask", None),
    ("explore", "repro.explore.strategies", "GridStrategy.tell", None),
    ("explore", "repro.explore.strategies", "AdaptiveStrategy.ask", None),
    ("explore", "repro.explore.strategies", "AdaptiveStrategy.tell", None),
    ("store", "repro.explore.store", "ResultStore.get", _count_get),
    ("store", "repro.explore.store", "ResultStore.put", None),
    ("store", "repro.explore.store", "ResultStore.claim", None),
    ("store", "repro.explore.store", "ResultStore.release", None),
    ("store", "repro.explore.store", "ResultStore.heartbeat", None),
    ("serve", "repro.serve.client", "Client.evaluate", None),
    ("serve", "repro.serve.client", "RemoteEvaluator.evaluate", None),
    ("serve", "repro.serve.server", "ExploreService.evaluate", None),
    ("serve", "repro.serve.protocol", "encode_request", _count_request_bytes),
    ("serve", "repro.serve.protocol", "decode_request", None),
    ("serve", "repro.serve.protocol", "encode_response", None),
    ("serve", "repro.serve.protocol", "decode_response", _count_response_bytes),
    ("mc", "repro.error.montecarlo", "MonteCarloSimulator.estimate", _count_trials),
    ("mc", "repro.error.vectorized", "evaluate_strategy_vectorized", _count_trials),
    ("mc", "repro.ancilla.cat", "evaluate_cat_prep_batched", _count_trials),
    ("mc", "repro.ancilla.t_ancilla", "evaluate_pi8_ancilla_batched", _count_trials),
    ("reporting", "repro.reporting.registry", "run_experiment", None),
)

_SCALAR_MC = ("MonteCarloSimulator.estimate",)
_STRATEGY = ("GridStrategy.ask", "GridStrategy.tell",
             "AdaptiveStrategy.ask", "AdaptiveStrategy.tell")
_LEASE = ("ResultStore.claim", "ResultStore.release", "ResultStore.heartbeat")
_CODEC = ("encode_request", "decode_request", "encode_response", "decode_response")
_SWEEP = ("area_sweep", "throughput_sweep")
_WALK_SPANS = ("batched.level_sweep", "batched.cqla_lockstep", "simulate.level_walk")
#: Process-wide ``repro.obs`` counters read as deltas around each op.
_COUNTERS = {
    "explore.simulations": "repro_simulations_run_total",
    "explore.cache_hits": "repro_cache_hits_total",
    "explore.dedup_hits": "repro_dedup_hits_total",
    "serve.retries": "repro_client_retries_total",
    "serve.shed": "repro_serve_shed_total",
}


class Recorder:
    """Frame accounting for one traced interval."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self._stack: List[list] = []
        self._open_layers: Counter = Counter()
        self._open_fns: Counter = Counter()
        self.layer_incl: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.fn_incl: Dict[str, float] = defaultdict(float)
        self.fn_self: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Dict[str, float] = defaultdict(float)
        self.top_level = 0.0

    def enter(self, layer: str, name: str) -> list:
        frame = [layer, name, 0.0, 0.0]  # layer, name, start, child time
        with self._lock:
            self._stack.append(frame)
            self._open_layers[layer] += 1
            self._open_fns[name] += 1
            self.calls[name] += 1
        frame[2] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[2]
        layer, name = frame[0], frame[1]
        with self._lock:
            # Frames close in the order they opened (closed loop, one
            # client); remove by identity all the same, so an exception
            # unwinding several frames cannot corrupt the stack.
            for i in range(len(self._stack) - 1, -1, -1):
                if self._stack[i] is frame:
                    del self._stack[i]
                    break
            self._open_layers[layer] -= 1
            self._open_fns[name] -= 1
            own = duration - frame[3]
            self.layer_self[layer] += own
            self.fn_self[name] += own
            if self._open_layers[layer] == 0:
                self.layer_incl[layer] += duration
            if self._open_fns[name] == 0:
                self.fn_incl[name] += duration
            if self._stack:
                self._stack[-1][3] += duration
            else:
                self.top_level += duration


RECORDER = Recorder()


def _wrap(layer: str, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
    signature = inspect.signature(fn) if hook is not None else None
    recorder = RECORDER

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = recorder.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(frame)
        if hook is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counts = hook(bound, result)
            with recorder._lock:
                for key, value in counts.items():
                    recorder.counts[key] += value
        return result

    return traced


_PATCHES: List[Tuple[object, str, object]] = []


def install() -> None:
    """Wrap every target wherever callers look it up."""
    if _PATCHES:
        return
    for layer, module_name, qualname, hook in TARGETS:
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            _PATCHES.append((owner, attr, original))
            setattr(owner, attr, _wrap(layer, qualname, original, hook))
            continue
        original = getattr(module, qualname)
        wrapped = _wrap(layer, qualname, original, hook)
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    _PATCHES.append((other, attr, original))
                    setattr(other, attr, wrapped)


def uninstall() -> None:
    """Put every original back."""
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# One traced interval


def _counter_values() -> Dict[str, float]:
    from repro.obs import metrics

    return {key: metrics.counter(name).value for key, name in _COUNTERS.items()}


class TracedInterval:
    """Context manager: wrappers, ``repro.obs`` spans and counters on."""

    def __enter__(self) -> "TracedInterval":
        from repro import obs

        self._obs = obs
        self._before = _counter_values()
        RECORDER.reset()
        install()
        obs.enable()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._obs.tracer()
        self.events = tracer.events() if tracer is not None else []
        self._obs.disable()
        uninstall()
        after = _counter_values()
        self.counters = {k: after[k] - self._before[k] for k in after}


def _span_sum(events, names, field=None) -> float:
    total = 0.0
    for event in events:
        if event["name"] in names:
            if field is None:
                total += event["dur"] / 1e6
            else:
                total += float(event.get("args", {}).get(field, 0) or 0)
    return total


def interval_metrics(interval: TracedInterval) -> Dict[str, float]:
    """Raw (unnormalised) per-layer figures of one traced interval.

    Keys ending in ``_s`` are seconds; every other key is a count.
    """
    rec, events = RECORDER, interval.events
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = rec.layer_self.get(layer, 0.0)
        out[f"{layer}.incl_s"] = rec.layer_incl.get(layer, 0.0)
    fn = rec.fn_incl
    out["traced_s"] = rec.top_level
    out["kernels.analyze_s"] = fn.get("analyze_kernel", 0.0)
    out["kernels.analyze_calls"] = rec.calls["analyze_kernel"]
    out["circuits.compile_s"] = fn.get("compile_circuit", 0.0)
    out["circuits.dataflow_metadata_s"] = fn.get("dataflow_metadata", 0.0)
    out["tech.at_level_s"] = fn.get("TechnologyParams.at_level", 0.0)
    out["arch.simulate_batch_calls"] = rec.calls["simulate_batch"]
    out["arch.points_simulated"] = rec.counts.get("arch.points", 0.0)
    out["arch.fallback_points"] = _span_sum(events, ("batched.simulate_batch",), "fallback")
    out["arch.ready_matrix_s"] = _span_sum(events, ("batched.ready_matrix",))
    out["arch.walk_s"] = _span_sum(events, _WALK_SPANS)
    out["arch.level_sweep_s"] = _span_sum(events, ("batched.level_sweep",))
    out["arch.levels_walked"] = _span_sum(events, ("batched.level_sweep",), "levels")
    out["arch.sweep_s"] = sum(fn.get(name, 0.0) for name in _SWEEP)
    out["explore.evaluate_self_s"] = rec.fn_self.get("Evaluator.evaluate", 0.0)
    out["explore.strategy_s"] = sum(fn.get(name, 0.0) for name in _STRATEGY)
    out["explore.rounds"] = sum(1 for e in events if e["name"] == "explore.round")
    out["explore.points"] = _span_sum(events, ("explore.round",), "points")
    for key in ("explore.simulations", "explore.cache_hits", "explore.dedup_hits",
                "serve.retries", "serve.shed"):
        out[key] = interval.counters[key]
    out["store.get_s"] = fn.get("ResultStore.get", 0.0)
    out["store.put_s"] = fn.get("ResultStore.put", 0.0)
    out["store.lease_s"] = sum(fn.get(name, 0.0) for name in _LEASE)
    out["store.gets"] = rec.counts.get("store.gets", 0.0)
    out["store.hits"] = rec.counts.get("store.hits", 0.0)
    out["store.puts"] = rec.calls["ResultStore.put"]
    out["serve.requests"] = rec.calls["Client.evaluate"]
    out["serve.roundtrip_s"] = fn.get("Client.evaluate", 0.0)
    out["serve.server_s"] = fn.get("ExploreService.evaluate", 0.0)
    out["serve.codec_s"] = sum(fn.get(name, 0.0) for name in _CODEC)
    out["serve.bytes"] = rec.counts.get("serve.bytes", 0.0)
    out["mc.scalar_s"] = sum(fn.get(name, 0.0) for name in _SCALAR_MC)
    out["mc.batched_s"] = rec.layer_incl.get("mc", 0.0) - out["mc.scalar_s"]
    out["mc.trials"] = rec.counts.get("mc.trials", 0.0)
    return out

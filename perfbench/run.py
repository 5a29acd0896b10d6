"""End-to-end benchmark of the repro library, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload explore-deep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same ops alternately traced and untraced and
reports the per-layer breakdown. Progress and diagnostics go to stdout;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import layers  # noqa: E402
import refloop  # noqa: E402
import workloads  # noqa: E402

#: numpy thread pools, pinned to one thread before numpy is first
#: imported: a second BLAS thread would compete with the op on 2 cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Per-layer metrics measured over the traced run's set-up, where this
#: work happens (during ops it is served from the program's own memo
#: caches); ``startup.import_s`` in fresh interpreters.
SETUP_LAYER = ("startup.import_s", "kernels.analyze_s", "kernels.analyze_calls",
               "circuits.compile_s", "circuits.dataflow_metadata_s",
               "tech.at_level_s")
#: Whole-run diagnostics of the traced run. Every other per-layer metric
#: is a mean per traced op.
DIAGNOSTIC = ("trace.overhead_ratio", "host.ref_s", "host.ref_iqr_ratio",
              "host.op_wall_p50_s", "host.op_cpu_s", "host.steal_frac")

#: Fresh-interpreter set-ups timed per run; setup_s is their median.
SETUP_PROBES = 5
#: Fewest timed ops per run, so that op_tail_s has ten ops beyond it.
MIN_OPS = 12
#: Percentile rule for op_tail_s: this many ops lie beyond it.
TAIL_BEYOND = 10
#: Reference passes between two ops take about this share of the op
#: before, up to REF_MAX_PASSES: a long op spans many host speed flips,
#: and more passes estimate their mix better.
REF_SHARE = 0.05
REF_MAX_PASSES = 8


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded; every workload is deterministic")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def metric_units():
    """``(end_to_end, per_layer)``, each a ``{name: unit}`` map in the
    order ``BENCHMARK.json`` at the repository root lists them.

    Times are in reference-seconds (see :mod:`refloop`) except the
    ``host.`` diagnostics, which are raw.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def _load_pins():
    with open(os.path.join(HERE, "pins.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Set-up


def _probe(args) -> int:
    """Child side of a set-up sample: set up, report the time, tear down."""
    workload = workloads.WORKLOADS[args.workload](args.probe, _load_pins())
    try:
        workload.setup()
        print(f"ready {time.time()!r}", flush=True)
    finally:
        workload.close()
    return 0


def _setup_sample(args, workdir: str) -> float:
    """Wall seconds from spawning a fresh interpreter until its first op is ready."""
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir)
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--probe", probe_dir]
    try:
        spawned = time.time()
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=120, check=False)
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        return float(words[1]) - spawned
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def _import_sample() -> float:
    """Seconds a fresh interpreter takes to import the CLI entry point."""
    code = ("import time; t = time.perf_counter(); import repro.__main__; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          text=True, env=env, timeout=60, check=True)
    return float(proc.stdout)


# ----------------------------------------------------------------------
# The timed loop


class _Loop:
    """Alternates reference passes and ops until the run's time is up."""

    def __init__(self, workload, reference) -> None:
        self.workload = workload
        self.reference = reference
        self.walls, self.cpus, self.errors, self.traced = [], [], [], []
        self.layer_runs = []
        self.refs, self.passes = [], []
        self._reference()

    def _reference(self) -> None:
        """Reference passes in the gap before the next op."""
        passes = [self.reference.run()]
        if self.walls:
            wanted = round(REF_SHARE * self.walls[-1] / passes[0])
            passes += [self.reference.run()
                       for _ in range(min(REF_MAX_PASSES, wanted) - 1)]
        self.refs.append(statistics.fmean(passes))
        self.passes.append(len(passes))

    def normalised(self, r0: float):
        """Every op's wall time in reference-seconds."""
        return refloop.normalise(self.walls, self.refs, r0, self.passes)

    def one(self, traced: bool) -> None:
        output, error = None, None
        interval = layers.TracedInterval() if traced else contextlib.nullcontext()
        with interval:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                output = self.workload.op()
            except Exception as exc:  # the op failed; count it and go on
                error = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            self.layer_runs.append(layers.interval_metrics(interval))
        if error is None:
            error = self.workload.check(output)
        if error is not None:
            print(f"op {len(self.walls)} failed: {error}", file=sys.stderr)
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.errors.append(error)
        self.traced.append(traced)
        self._reference()

    def run(self, seconds: float, alternate: bool) -> None:
        steal_before = refloop.cpu_times()
        start = time.perf_counter()
        hard_stop = start + 2 * seconds + 30
        while True:
            now = time.perf_counter()
            if now >= hard_stop or (now - start >= seconds and len(self.walls) >= MIN_OPS):
                break
            self.one(traced=alternate and len(self.walls) % 2 == 1)
        self.steal = refloop.steal_fraction(steal_before, refloop.cpu_times())


# ----------------------------------------------------------------------
# Metrics


def end_to_end(loop, r0: float, setup_samples, rss_mb: float):
    norm = loop.normalised(r0)
    good = [t for t, e in zip(norm, loop.errors) if e is None]
    attempted = len(loop.walls)
    tail, percentile, n = refloop.tail(good, TAIL_BEYOND)
    values = {
        "ops_per_s": len(good) / sum(good) if good else 0.0,
        "op_p50_s": statistics.median(good) if good else 0.0,
        "op_tail_s": tail if tail is not None else max(good, default=0.0),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_mb,
        "ok_ratio": len(good) / attempted,
    }
    notes = {
        "op_tail_s": f"p{percentile:.1f} of n={n}, {TAIL_BEYOND} ops beyond it",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setup_samples),
    }
    return values, notes


def layer_metrics(loop, r0: float, setup_layers, setup_factor: float,
                  import_s: float, names):
    """The per-layer metrics ``names``: means per traced op, normalised
    per op; set-up layers scaled by ``setup_factor``; ``import_s``
    already normalised."""
    norm = loop.normalised(r0)
    factors = [n / w if w > 0 else 0.0 for n, w in zip(norm, loop.walls)]
    traced = [i for i, t in enumerate(loop.traced) if t and loop.errors[i] is None]
    plain = [i for i, t in enumerate(loop.traced) if not t and loop.errors[i] is None]
    runs = iter(loop.layer_runs)
    per_op = {i: next(runs) for i, t in enumerate(loop.traced) if t}
    count = max(1, len(traced))

    def mean(key, scaled):
        return sum(per_op[i].get(key, 0.0) * (factors[i] if scaled else 1.0)
                   for i in traced) / count

    # Derived entries below overwrite their (zero) means.
    out = {key: mean(key, key.endswith("_s")) for key in names
           if key not in SETUP_LAYER and key not in DIAGNOSTIC}
    out["op_s"] = sum(norm[i] for i in traced) / count
    out["untraced_s"] = out["op_s"] - mean("traced_s", True)
    levels = mean("arch.levels_walked", False)
    out["arch.walk_us_per_level"] = (
        mean("arch.level_sweep_s", True) / levels * 1e6 if levels else 0.0)
    looked_up = out["explore.cache_hits"] + out["explore.simulations"]
    out["explore.cache_hit_ratio"] = out["explore.cache_hits"] / looked_up if looked_up else 0.0
    gets = mean("store.gets", False)
    out["store.get_hit_ratio"] = mean("store.hits", False) / gets if gets else 0.0
    out["serve.wire_s"] = out["serve.roundtrip_s"] - out["serve.server_s"]
    mc_s = out["mc.scalar_s"] + out["mc.batched_s"]
    out["mc.trials_per_s"] = out["mc.trials"] / mc_s if mc_s else 0.0

    for key in SETUP_LAYER:
        if key != "startup.import_s":
            value = setup_layers[key]
            out[key] = value * setup_factor if key.endswith("_s") else value
    out["startup.import_s"] = import_s

    traced_p50 = statistics.median(norm[i] for i in traced) if traced else 0.0
    plain_p50 = statistics.median(norm[i] for i in plain) if plain else 0.0
    out["trace.overhead_ratio"] = traced_p50 / plain_p50 if plain_p50 else 0.0
    out.update(host_metrics(loop, plain or traced))
    return {key: out[key] for key in names}


def host_metrics(loop, indices):
    return {
        "host.ref_s": statistics.median(loop.refs),
        "host.ref_iqr_ratio": refloop.iqr_ratio(loop.refs),
        "host.op_wall_p50_s": statistics.median(loop.walls[i] for i in indices) if indices else 0.0,
        "host.op_cpu_s": statistics.median(loop.cpus[i] for i in indices) if indices else 0.0,
        "host.steal_frac": loop.steal,
    }


# ----------------------------------------------------------------------


def _bracketed(reference, r0: float, measure) -> float:
    """``measure()`` seconds scaled by R0 over the references around it."""
    before = reference.run()
    raw = measure()
    return raw * r0 / ((before + reference.run()) / 2)


def _run(args, workdir: str):
    end_units, layer_units = metric_units()
    pins = _load_pins()
    r0 = float(pins["reference_s"])
    workload = workloads.WORKLOADS[args.workload](os.path.join(workdir, "main"), pins)
    reference = refloop.Reference()
    for _ in range(5):
        reference.run()
    try:
        if args.trace:
            samples = [_bracketed(reference, r0, _import_sample)
                       for _ in range(SETUP_PROBES)]
            before = reference.run()
            with layers.TracedInterval() as interval:
                workload.setup()
            setup_factor = r0 / ((before + reference.run()) / 2)
            setup_layers = layers.interval_metrics(interval)
        else:
            # In-process set-up first: it also leaves the byte-code cache
            # warm, so the fresh-interpreter samples below time set-up as
            # a user's repeat run sees it.
            workload.setup()
            samples = [_bracketed(reference, r0, lambda: _setup_sample(args, workdir))
                       for _ in range(SETUP_PROBES)]
        loop = _Loop(workload, reference)
        loop.run(args.seconds, alternate=bool(args.trace))
    finally:
        workload.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(loop.walls)
    failed = sum(1 for e in loop.errors if e is not None)
    if args.trace:
        units, notes = layer_units, {}
        values = layer_metrics(loop, r0, setup_layers, setup_factor,
                               statistics.median(samples), list(units))
    else:
        units = end_units
        values, notes = end_to_end(loop, r0, samples, rss_mb)
        values = {key: values[key] for key in units}
        plain = list(range(attempted))
        for key, value in host_metrics(loop, plain).items():
            print(f"{key:<32} {value:.6g}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed")
    for key, value in values.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key:<32} {value:.6g} {units[key]}{note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in values.items()},
    }


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe:
        return _probe(args)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

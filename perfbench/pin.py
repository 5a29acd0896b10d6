"""Regenerate ``pins.json``, the expected outputs the benchmark checks.

Run from the repository root, only when a change is meant to alter
results (and say so in that change)::

    python3 perfbench/pin.py

Digests come from plain local evaluation, so the served workload is
held bit-for-bit to local results. The fig4 reference rates come from a
high-trial run of the batched Monte Carlo engine. The reference time
``reference_s`` is the benchmark's unit: it is kept as it is and
measured only when ``pins.json`` has none (a new value rescales every
reported time, so old and new figures stop being comparable).
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import refloop  # noqa: E402
import workloads  # noqa: E402

PINS = os.path.join(HERE, "pins.json")
FIG4_REFERENCE_TRIALS = 200_000


def measure_reference(passes: int = 301) -> float:
    ref = refloop.Reference()
    for _ in range(20):
        ref.run()
    return statistics.median(ref.run() for _ in range(passes))


def fig4_reference() -> dict:
    from repro.ancilla.evaluation import evaluate_strategies

    out = {}
    for strategy, report in evaluate_strategies(
        trials=FIG4_REFERENCE_TRIALS, engine="batched"
    ).items():
        result = report.result
        # Laplace-smoothed, so a count of zero never pins a rate of zero.
        out[strategy.value] = {
            "error_rate": (result.bad + 1) / (result.accepted + 2),
            "discard_rate": (result.discarded + 1) / (result.trials + 2),
            "trials": result.trials,
        }
    return out


def main() -> int:
    from repro.reporting import EXPERIMENTS, run_experiment

    old = {}
    if os.path.exists(PINS):
        with open(PINS, "r", encoding="utf-8") as handle:
            old = json.load(handle)
    reference_s = old.get("reference_s")
    if reference_s is None:
        reference_s = measure_reference()
    order = list(EXPERIMENTS)
    pins = {
        "reference_s": reference_s,
        "explore-deep": workloads.op_digests(workloads.ExploreDeep(HERE, {})),
        "explore-wide": workloads.grid_digests([workloads.WIDE_KERNEL]),
        "explore-served": workloads.grid_digests(workloads.SERVED_KERNELS),
        "paper-artifacts": {
            "order": order,
            "text": {
                key: workloads.text_digest(run_experiment(key))
                for key in order if key != "fig4"
            },
            "fig4_reference": fig4_reference(),
        },
    }
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark: the batched dataflow engine vs the per-point reference oracle.

The compiled kernel behind ``simulate_batch`` (repro.arch.batched) must
make dense design sweeps routine: an entire Figure 8 / Figure 15 axis in
one walk. This benchmark measures sweep points/sec of ``simulate_batch``
against one ``DataflowSimulator.run_legacy()`` per point on the same
supplies, verifies bit-identical results point for point, asserts the
acceptance gates at a >= 64-point sweep, and records the trajectory to
BENCH_protocols.json.

The denominator is the reference loop, kept unoptimized as the oracle,
so the ratio does not drift as the production engine changes around it.
The bars translate the original batched-vs-per-point-``run()`` gates
(steady >= 10x, QLA >= 5x, CQLA >= 8x) by the ``run()``-vs-``run_legacy``
ratio the per-point engine measured on these same ladders (qcla-32, 96
points, interleaved min-of-5 in one session): 21.17x steady, 7.19x QLA,
6.02x CQLA — hence 212x, 36x and 49x.

Batched and oracle rounds interleave, each on fresh supplies, and both
sides keep their fastest round, so load on the host slows both alike
instead of skewing one side. With REPRO_PERF_SMOKE=1 (CI), the speedup
gates are skipped and only exact equality is checked;
REPRO_SWEEP_POINTS rescales the sweep width.
"""

import os
import time

import numpy as np
import pytest

import record as bench_record
from repro.arch import simulate_batch
from repro.arch.architectures import CqlaConfig, QlaConfig
from repro.arch.simulator import DataflowSimulator
from repro.arch.supply import PI8, ZERO, SteadyRateSupply

pytestmark = pytest.mark.perf

#: Sweep width; the acceptance gates are defined at >= 64 points.
POINTS = int(os.environ.get("REPRO_SWEEP_POINTS", "96"))

#: CI smoke mode: correctness assertions only, no speedup-ratio gates.
PERF_SMOKE = os.environ.get("REPRO_PERF_SMOKE") == "1"

#: Interleaved batched/oracle rounds; each side keeps its fastest.
ROUNDS = 3


def _race(name, analysis, supplies, config=None, cqla=None):
    """Time ``simulate_batch`` against per-point ``run_legacy`` on fresh
    ``supplies()`` each round, assert exact equality every round, record
    the min-of-ROUNDS rates, and return ``(speedup, batched_results)``."""
    circuit, tech = analysis.circuit, analysis.tech
    compiled = analysis.compiled_circuit()
    move_1q = config.movement_penalty(False, tech) if config else 0.0
    move_2q = config.movement_penalty(True, tech) if config else 0.0

    def simulators():
        return [
            DataflowSimulator(
                circuit,
                tech,
                supply=supply,
                movement_penalty_us=move_1q,
                two_qubit_movement_penalty_us=move_2q,
                cqla=cqla,
            )
            for supply in supplies()
        ]

    def batched(ready):
        return simulate_batch(
            circuit,
            ready,
            tech,
            movement_penalty_us=move_1q,
            two_qubit_movement_penalty_us=move_2q,
            cqla=cqla,
            compiled=compiled,
        )

    batched(supplies()[:2])  # warm the kernel and per-circuit caches
    batched_s = oracle_s = float("inf")
    for _ in range(ROUNDS):
        # Inputs are built outside the timed regions: the gate compares
        # the engines, not supply construction, which both share.
        ready = supplies()
        t0 = time.perf_counter()
        results = batched(ready)
        batched_s = min(batched_s, time.perf_counter() - t0)
        sims = simulators()
        t0 = time.perf_counter()
        expected = [sim.run_legacy() for sim in sims]
        oracle_s = min(oracle_s, time.perf_counter() - t0)
        assert results == expected  # exact equality, every field
    batched_rate = POINTS / batched_s
    oracle_rate = POINTS / oracle_s
    speedup = batched_rate / oracle_rate
    bench_record.record(
        name,
        points=POINTS,
        gates=len(circuit),
        rounds=ROUNDS,
        batched_points_per_s=batched_rate,
        oracle_points_per_s=oracle_rate,
        speedup=speedup,
    )
    print()
    print(
        f"  {name} ({POINTS} pts x {len(circuit)} gates): oracle "
        f"{oracle_rate:,.0f} pts/s, batched {batched_rate:,.0f} pts/s "
        f"-> {speedup:.1f}x"
    )
    return speedup, results


def _ladder_supplies(analysis, config):
    areas = np.geomspace(50.0, 50_000.0, POINTS)

    def supplies():
        return [
            config.build_supply(
                area,
                analysis.circuit.num_qubits,
                analysis.zero_bandwidth_per_ms,
                analysis.pi8_bandwidth_per_ms,
                analysis.tech,
            )
            for area in areas
        ]

    return supplies


def test_bench_steady_sweep_speedup(qcla32):
    """Figure 8's axis: batched steady sweep >= 212x the oracle."""
    bandwidth = qcla32.zero_bandwidth_per_ms
    ratio = qcla32.pi8_bandwidth_per_ms / bandwidth
    rates = np.geomspace(bandwidth / 16.0, bandwidth * 16.0, POINTS)

    def supplies():
        return [
            SteadyRateSupply({ZERO: rate, PI8: rate * ratio}) for rate in rates
        ]

    speedup, _ = _race("steady_sweep_vs_oracle", qcla32, supplies)
    if not PERF_SMOKE:
        assert POINTS >= 64
        assert speedup >= 212.0


def test_bench_qla_area_sweep_speedup(qcla32):
    """Figure 15's QLA ladder: dedicated supplies, >= 36x the oracle."""
    config = QlaConfig()
    speedup, _ = _race(
        "qla_area_sweep_vs_oracle", qcla32,
        _ladder_supplies(qcla32, config), config,
    )
    if not PERF_SMOKE:
        assert POINTS >= 64
        assert speedup >= 36.0


def test_bench_cqla_sweep_speedup(qcla32):
    """Figure 15's CQLA ladder, cache model in the kernel: >= 49x the
    oracle."""
    config = CqlaConfig()
    speedup, results = _race(
        "cqla_sweep_vs_oracle", qcla32,
        _ladder_supplies(qcla32, config), config, cqla=config,
    )
    assert any(r.cache_misses > 0 for r in results)
    if not PERF_SMOKE:
        assert POINTS >= 64
        assert speedup >= 49.0

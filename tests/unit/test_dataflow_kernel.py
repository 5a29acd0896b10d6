"""The compiled dataflow kernel: build cache, and the no-compiler fallback.

When the C kernel cannot be built or loaded, every point runs through the
Python ``acquire`` loop instead — with a one-time warning, a counted
metric and ``kernel="python"`` on the batch span — and results and
post-run supply state stay bit-identical to the kernel and the oracle.
"""

import os
import threading
import warnings

import pytest

from repro import obs
from repro.arch import kernel, simulate_batch
from repro.arch.architectures import CqlaConfig, QlaConfig
from repro.arch.simulator import DataflowSimulator
from repro.arch.supply import (
    PI8,
    ZERO,
    DedicatedSupply,
    InfiniteSupply,
    SteadyRateSupply,
)
from repro.obs import metrics

REAL_BUILD = kernel._build


def _supplies(nq):
    return [
        SteadyRateSupply({ZERO: 3.0, PI8: 0.5}),
        InfiniteSupply(),
        DedicatedSupply({ZERO: 0.05, PI8: 0.01}, nq),
        SteadyRateSupply({ZERO: 0.0, PI8: 5.0}),
    ]


def _state(supply):
    if isinstance(supply, SteadyRateSupply):
        return [supply.consumed_so_far(kind) for kind in (ZERO, PI8)]
    if isinstance(supply, DedicatedSupply):
        return [list(supply.dedicated_state(kind)[1]) for kind in (ZERO, PI8)]
    return None


@pytest.fixture
def no_compiler(monkeypatch):
    """Every build attempt fails, as on a host without ``cc``."""

    def fail():
        raise OSError("no C compiler")

    monkeypatch.setattr(kernel, "_state", {})
    monkeypatch.setattr(kernel, "_build", fail)


def _run(analysis, cqla=None):
    config = QlaConfig()
    kwargs = dict(
        movement_penalty_us=config.movement_penalty(False, analysis.tech),
        two_qubit_movement_penalty_us=config.movement_penalty(
            True, analysis.tech
        ),
        cqla=cqla,
    )
    supplies = _supplies(analysis.circuit.num_qubits)
    results = simulate_batch(analysis.circuit, supplies, analysis.tech, **kwargs)
    single = SteadyRateSupply({ZERO: 3.0, PI8: 0.5})
    results.append(
        DataflowSimulator(
            analysis.circuit, analysis.tech, supply=single, **kwargs
        ).run()
    )
    return results, [_state(s) for s in supplies + [single]]


@pytest.mark.parametrize("cqla", [None, CqlaConfig(ports=1)])
def test_build_failure_falls_back_bit_identically(qrca8, no_compiler, cqla):
    with pytest.warns(RuntimeWarning, match="kernel unavailable"):
        fallback = _run(qrca8, cqla)
    assert kernel.load_kernel() is None
    kernel._state.clear()
    kernel._build = REAL_BUILD  # the compiler is back; undone at teardown
    compiled = _run(qrca8, cqla)
    assert kernel.load_kernel() is not None
    assert fallback == compiled
    config = QlaConfig()
    oracle = [
        DataflowSimulator(
            qrca8.circuit,
            qrca8.tech,
            supply=supply,
            movement_penalty_us=config.movement_penalty(False, qrca8.tech),
            two_qubit_movement_penalty_us=config.movement_penalty(
                True, qrca8.tech
            ),
            cqla=cqla,
        ).run_legacy()
        for supply in _supplies(qrca8.circuit.num_qubits)
    ]
    assert fallback[0][:4] == oracle


def test_fallback_warns_once_counts_points_and_tags_span(qrca8, no_compiler):
    counter = metrics.counter(kernel.FALLBACK_METRIC)
    before = counter.value
    tracer = obs.enable()
    try:
        with pytest.warns(RuntimeWarning):
            simulate_batch(qrca8.circuit, _supplies(qrca8.circuit.num_qubits))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            simulate_batch(qrca8.circuit, _supplies(qrca8.circuit.num_qubits))
        spans = [e["args"] for e in tracer.events()
                 if e["name"] == "batched.simulate_batch"]
    finally:
        obs.disable()
    assert counter.value - before == 8
    assert [span["kernel"] for span in spans] == ["python", "python"]
    assert all(span["fallback"] == 0 for span in spans)


def test_kernel_cached_by_key_and_rebuilt_into_fresh_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernel, "_state", {})
    assert kernel.load_kernel() is not None
    built = list((tmp_path / "repro").iterdir())
    assert len(built) == 1 and built[0].name.startswith("dataflow-")
    stamp = built[0].stat().st_mtime_ns
    kernel._state.clear()
    assert kernel.load_kernel() is not None
    assert [p.stat().st_mtime_ns for p in (tmp_path / "repro").iterdir()] == [
        stamp
    ]


def test_concurrent_builds_race_safely(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    results, errors = [], []

    def build():
        try:
            results.append(kernel._build())
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors and len(results) == 2
    assert [p.suffix for p in (tmp_path / "repro").iterdir()] == [".so"]


def test_unwritable_cache_dir_falls_back_to_tempdir(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(kernel.tempfile, "gettempdir", lambda: str(tmp_path))
    assert kernel._build() is not None
    assert any((tmp_path / f"repro-{os.getuid()}").glob("dataflow-*.so"))

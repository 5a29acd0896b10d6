"""Tests of the benchmark harness itself (no workload is run)."""

import json
import os
import re
import statistics
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import refloop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- the tail-percentile rule ------------------------------------------


def test_tail_has_exactly_ten_ops_beyond_it():
    values = [float(v) for v in range(1, 41)]  # 1..40, shuffled below
    values = values[::2] + values[1::2]
    value, percentile, n = refloop.tail(values, beyond=10)
    assert value == 30.0
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(75.0)
    assert n == 40


def test_tail_needs_more_than_ten_ops():
    assert refloop.tail([1.0] * 10, beyond=10) == (None, 0.0, 10)
    value, percentile, n = refloop.tail([float(v) for v in range(11)], beyond=10)
    assert (value, n) == (0.0, 11)
    assert percentile == pytest.approx(100.0 / 11)


# -- normalisation arithmetic -------------------------------------------


def test_normalise_scales_by_r0_over_local_reference():
    walls = [1.0, 2.0, 3.0]
    refs = [0.5, 0.5, 0.5, 0.5]
    assert refloop.normalise(walls, refs, r0=0.25) == [0.5, 1.0, 1.5]


def test_normalise_uses_the_gaps_on_either_side_of_a_long_op():
    refs = [1.0, 3.0, 2.0, 2.0]
    passes = [6, 6, 6, 6]
    norm = refloop.normalise([1.0, 1.0, 4.0], refs, r0=2.0, passes=passes)
    # Op 0 ran between gaps averaging 1.0 and 3.0: the host there is as
    # fast as the pinned one (mean 2.0), so the op keeps its wall time.
    assert norm == pytest.approx([1.0, 0.8, 4.0])


def test_normalise_pools_single_passes_of_short_ops():
    refs = [1.0, 1.0, 1.0, 4.0, 1.0, 1.0, 1.0, 1.0]
    norm = refloop.normalise([1.0] * 7, refs, r0=1.0)
    # Op 3 widens from gaps 3..4 to gaps 1..6, six passes: mean 9 / 6.
    assert norm[3] == pytest.approx(6 / 9)
    # Ops at either edge widen inwards only: gaps 2..7 and 0..5.
    assert norm[6] == pytest.approx(6 / 9)
    assert norm[0] == pytest.approx(6 / 9)


def test_normalise_weights_gaps_by_their_passes():
    refs, passes = [1.0, 2.0], [2, 4]
    norm = refloop.normalise([1.0], refs, r0=1.0, passes=passes)
    assert norm == pytest.approx([1 / ((2 * 1.0 + 4 * 2.0) / 6)])


def test_normalise_needs_a_reference_after_the_last_op():
    with pytest.raises(ValueError):
        refloop.normalise([1.0, 1.0], [1.0, 1.0], r0=1.0)


def test_end_to_end_metrics_from_a_loop():
    loop = SimpleNamespace(errors=[None] * 12, walls=[2.0] * 12,
                           normalised=lambda r0: refloop.normalise([2.0] * 12, [4.0] * 13, r0))
    values, notes = run.end_to_end(loop, r0=1.0, setup_samples=[1.0, 3.0, 2.0],
                                   rss_mb=50.0)
    assert values["op_p50_s"] == pytest.approx(0.5)
    assert values["ops_per_s"] == pytest.approx(2.0)
    assert values["setup_s"] == 2.0
    assert values["ok_ratio"] == 1.0
    assert "n=12" in notes["op_tail_s"]
    assert set(values) == set(run.metric_units()[0])


def test_iqr_ratio():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert refloop.iqr_ratio(values) == pytest.approx((q3 - q1) / q2)


def test_steal_fraction():
    assert refloop.steal_fraction((10, 1000), (30, 1200)) == pytest.approx(0.1)
    assert refloop.steal_fraction((0, 0), (0, 0)) == 0.0


# -- output checks --------------------------------------------------------


def _evaluation(area, makespan):
    return SimpleNamespace(
        point_dict={"arch": "qla", "factory_area": area},
        result=SimpleNamespace(makespan_us=makespan),
        total_area=area + 10.0,
    )


class _StubWorkload(workloads._ExploreWorkload):
    """An explore-shaped op with fixed results, checked against pins."""

    name = "stub"

    def op(self):
        evaluations = [_evaluation(1.0, 5.0), _evaluation(2.0, 3.0)]
        result = SimpleNamespace(failures=[], evaluations=evaluations, evaluated=2)
        stats = {"simulations_run": 2}
        return {"runs": [("qla-1", result, stats)]}

    def check(self, output):
        return self._check_results(output, self.pins, served=False)


def _pin():
    return workloads.evaluations_digest([_evaluation(1.0, 5.0), _evaluation(2.0, 3.0)])


def _run_loop(pins, ops=12):
    reference = SimpleNamespace(run=lambda: 0.001)
    loop = run._Loop(_StubWorkload("unused", pins), reference)
    for _ in range(ops):
        loop.one(traced=False)
    return loop


def test_matching_pin_passes():
    loop = _run_loop({"qla-1": _pin()})
    assert loop.errors == [None] * 12


def test_perturbed_pin_counts_as_failed_op():
    pin = _pin()
    perturbed = ("0" if pin[0] != "0" else "1") + pin[1:]
    loop = _run_loop({"qla-1": perturbed})
    assert all(error and "digest" in error for error in loop.errors)
    values, _ = run.end_to_end(loop, r0=0.001, setup_samples=[1.0], rss_mb=1.0)
    assert values["ok_ratio"] == 0.0


def test_digest_sees_one_ulp():
    a = workloads.evaluations_digest([_evaluation(1.0, 5.0)])
    b = workloads.evaluations_digest([_evaluation(1.0, 5.000000000000001)])
    assert a != b


def test_simulation_count_is_checked():
    workload = _StubWorkload("unused", {"qla-1": _pin()})
    output = workload.op()
    output["runs"][0][2]["simulations_run"] = 1
    assert "simulations" in workload.check(output)


FIG4 = """Figure 4: encoded-zero preparation strategies (200 trials)
Strategy            Error Rate  Discard Rate  Paper
------------------  ----------  ------------  -------
basic               0.00e+00    0.00%         1.8e-03
verify_only         0.00e+00    0.50%         3.7e-04
correct_only        5.00e-03    0.00%         1.1e-03
verify_and_correct  0.00e+00    0.00%         2.9e-05
"""

FIG4_REFERENCE = {
    "basic": {"error_rate": 6e-4, "discard_rate": 5e-6},
    "verify_only": {"error_rate": 4e-5, "discard_rate": 2.5e-3},
    "correct_only": {"error_rate": 1.2e-3, "discard_rate": 5e-6},
    "verify_and_correct": {"error_rate": 7e-5, "discard_rate": 5e-6},
}


def test_fig4_parses_counts():
    rows = workloads.parse_fig4(FIG4)
    assert rows["verify_only"] == (0.0, 0.005)
    assert rows["correct_only"] == (0.005, 0.0)


def test_fig4_plausible_table_passes():
    assert workloads.check_fig4(FIG4, FIG4_REFERENCE, trials=200) is None


def test_fig4_implausible_rate_fails():
    broken = FIG4.replace("5.00e-03    0.00%", "2.50e-01    0.00%")
    assert "correct_only" in workloads.check_fig4(broken, FIG4_REFERENCE, trials=200)


def test_binomial_plausible_tails():
    assert workloads.binomial_plausible(0, 200, 1e-3)
    assert not workloads.binomial_plausible(20, 200, 1e-3)
    assert not workloads.binomial_plausible(0, 200, 0.5)


# -- metric names -------------------------------------------------------


def test_metric_names_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64

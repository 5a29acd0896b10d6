"""Differential fuzzing: the production dataflow engine vs the oracle.

Hypothesis generates compiled circuits — random width and length (so
random DAG depth and level width), one-, two- and three-qubit gates,
measurements writing classical result bits, gates conditioned on those
bits, pi/8 consumers — under technologies with scaled, non-integer
latencies (so every addition's rounding order shows), together with
random movement penalties,
optional CQLA cache sizes and port counts, and a batch of supplies
drawn from every model: infinite, steady and dedicated
supplies with zero, infinite and finite rates (dedicated rate vectors
mixed per qubit), pre-consumed counters, a custom spec publisher mixing
a steady zero pool with dedicated pi/8 generators, and spec-less custom
supplies. ``simulate_batch`` must equal ``run_legacy`` point for point
with exact float equality, and leave every supply in the state the
oracle's per-gate ``acquire`` walk leaves it, at 1, 2, 17 and 128
points. ``DataflowSimulator.run`` (a batch of one) is held to the same
contract.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import simulate_batch
from repro.arch.architectures import CqlaConfig
from repro.arch.simulator import DataflowSimulator
from repro.arch.supply import (
    PI8,
    ZERO,
    DedicatedSupply,
    InfiniteSupply,
    ReadySpec,
    SteadyRateSupply,
)
from repro.circuits import Circuit
from repro.tech import ION_TRAP

# pi/8 consumers twice over: their ready times are the rarer constraint.
_ONE_QUBIT = ("h", "x", "z", "s", "t", "tdg", "t", "tdg", "prep_0",
              "prep_plus")
_MEASURE = ("measure_z", "measure_x")

# Rates in ancillae/ms: zero starves (and records nothing), infinity is
# always ready but still counted. Finite rates are log-uniform over
# 1e-3..1e4 so supply-bound and data-bound points both come up often.
rates = st.one_of(
    st.just(0.0),
    st.just(math.inf),
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
              st.floats(1.0, 10.0), st.integers(-3, 3)),
)


@st.composite
def circuits(draw):
    num_qubits = draw(st.integers(min_value=1, max_value=7))
    circuit = Circuit(num_qubits)
    written = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        arity = draw(st.integers(min_value=1, max_value=min(3, num_qubits)))
        qubits = draw(
            st.lists(st.integers(0, num_qubits - 1), min_size=arity,
                     max_size=arity, unique=True)
        )
        kw = {}
        if written and draw(st.integers(0, 3)) == 0:
            kw["condition"] = draw(st.sampled_from(written))
        if arity == 1 and draw(st.integers(0, 4)) == 0:
            bit = f"m{len(written)}"
            getattr(circuit, draw(st.sampled_from(_MEASURE)))(
                qubits[0], bit, **kw
            )
            written.append(bit)
        elif arity == 1:
            getattr(circuit, draw(st.sampled_from(_ONE_QUBIT)))(*qubits, **kw)
        elif arity == 2:
            getattr(circuit, draw(st.sampled_from(("cx", "cz"))))(
                *qubits, **kw
            )
        else:
            circuit.ccx(*qubits, **kw)
    return circuit


class _MixedSupply:
    """A custom spec publisher: a steady zero pool feeding every qubit,
    dedicated pi/8 generators per qubit."""

    def __init__(self, zero_rate, pi8_rates):
        self.zero = SteadyRateSupply({ZERO: zero_rate})
        self.pi8 = DedicatedSupply({PI8: 1.0}, len(pi8_rates))
        self.pi8.dedicated_state(PI8)[0][:] = [r / 1000.0 for r in pi8_rates]

    def acquire(self, kind, qubit, count, earliest):
        part = self.zero if kind == ZERO else self.pi8
        return part.acquire(kind, qubit, count, earliest)

    def advance(self, kind, count):
        self.zero.advance(kind, count)

    def advance_per_qubit(self, kind, counts):
        self.pi8.advance_per_qubit(kind, counts)

    def ready_spec(self):
        return ReadySpec(
            {ZERO: self.zero.ready_spec().kind(ZERO),
             PI8: self.pi8.ready_spec().kind(PI8)}
        )


class _CeilingSupply:
    """Spec-less: ancillae materialize on 100 us boundaries."""

    def acquire(self, kind, qubit, count, earliest):
        return math.ceil(earliest / 100.0) * 100.0


@st.composite
def supply_recipes(draw, num_qubits):
    """A zero-argument factory of fresh, identically-prepared supplies."""
    model = draw(st.sampled_from(
        ["infinite", "steady", "dedicated", "mixed", "custom"]
    ))
    kinds = draw(st.sampled_from([(ZERO, PI8), (ZERO,), (PI8,), ()]))
    consumed = draw(st.integers(0, 50))
    if model == "infinite":
        return InfiniteSupply
    if model == "custom":
        return _CeilingSupply
    if model == "steady":
        chosen = {kind: draw(rates) for kind in kinds}

        def steady():
            supply = SteadyRateSupply(dict(chosen))
            for kind in kinds:
                supply.advance(kind, consumed)
            return supply

        return steady
    per_qubit = {
        kind: draw(st.lists(rates, min_size=num_qubits, max_size=num_qubits))
        for kind in (ZERO, PI8)
    }
    if model == "mixed":
        zero_rate = draw(rates)
        return lambda: _MixedSupply(zero_rate, per_qubit[PI8])

    def dedicated():
        supply = DedicatedSupply({kind: 1.0 for kind in kinds}, num_qubits)
        for kind in kinds:
            live_rates, live_consumed = supply.dedicated_state(kind)
            live_rates[:] = [r / 1000.0 for r in per_qubit[kind]]
            live_consumed[:] = [consumed + q for q in range(num_qubits)]
        return supply

    return dedicated


def _state(supply):
    """Every observable counter of any model above."""
    if isinstance(supply, _MixedSupply):
        return (_state(supply.zero), _state(supply.pi8))
    if isinstance(supply, SteadyRateSupply):
        return tuple(supply.consumed_so_far(kind) for kind in (ZERO, PI8))
    if isinstance(supply, DedicatedSupply):
        return tuple(
            None if state is None else list(state[1])
            for state in map(supply.dedicated_state, (ZERO, PI8))
        )
    return None


@st.composite
def scenarios(draw):
    circuit = draw(circuits())
    recipes = draw(st.lists(supply_recipes(circuit.num_qubits),
                            min_size=1, max_size=5))
    points = draw(st.sampled_from([1, 2, 17, 128]))
    moves = st.sampled_from([0.0, 7.5, 250.0])
    cqla = None
    if draw(st.booleans()):
        cqla = CqlaConfig(
            cache_fraction=draw(st.floats(0.05, 1.0, allow_nan=False)),
            ports=draw(st.integers(1, 4)),
        )
    tech = ION_TRAP.scaled(draw(st.sampled_from([1.0, 0.3, 1.7])))
    return circuit, tech, recipes, points, draw(moves), draw(moves), cqla


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_kernel_matches_oracle_results_and_supply_state(scenario):
    circuit, tech, recipes, points, move_1q, move_2q, cqla = scenario

    def supplies():
        return [recipes[i % len(recipes)]() for i in range(points)]

    batch_supplies = supplies()
    oracle_supplies = supplies()
    batched = simulate_batch(
        circuit,
        batch_supplies,
        tech,
        movement_penalty_us=move_1q,
        two_qubit_movement_penalty_us=move_2q,
        cqla=cqla,
    )
    oracle = [
        DataflowSimulator(
            circuit,
            tech,
            supply=supply,
            movement_penalty_us=move_1q,
            two_qubit_movement_penalty_us=move_2q,
            cqla=cqla,
        ).run_legacy()
        for supply in oracle_supplies
    ]
    assert batched == oracle
    assert [_state(s) for s in batch_supplies] == [
        _state(s) for s in oracle_supplies
    ]
    # The single-point entry point is the same engine, batch of one.
    single = recipes[0]()
    assert DataflowSimulator(
        circuit,
        tech,
        supply=single,
        movement_penalty_us=move_1q,
        two_qubit_movement_penalty_us=move_2q,
        cqla=cqla,
    ).run() == oracle[0]
    assert _state(single) == _state(oracle_supplies[0])

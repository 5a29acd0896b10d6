"""Event-based dataflow simulation of kernel execution (Section 5.2).

The simulator walks the decomposed kernel's dependency DAG in program
order (which is topological). Each gate starts once

* its data dependencies have finished,
* its operand qubits are free,
* its ancillae are available from the architecture's supply model
  (two corrected zeros for the QEC step; one pi/8 for T-type gates), and
* any architecture movement (teleports, cache-miss fills) has completed;

it then occupies its qubits for gate latency plus the data/QEC interaction.
CQLA cache behavior follows the paper's sim-cache-style approach: an LRU
set of resident qubits, with misses teleporting qubits in through a
limited number of ports and dirty evictions teleporting out.

Two engines execute this model:

* :meth:`DataflowSimulator.run` — the production engine: the compiled
  program-order kernel of :mod:`repro.arch.batched` (which also
  simulates whole sweeps of design points in one walk), run as a batch
  of one point. Supplies publishing a declarative ready-time description
  (:func:`~repro.arch.supply.declared_ready_spec`) are evaluated in
  closed form inside the kernel; any other supply goes through the
  per-gate ``acquire`` loop :func:`_run_generic`, which is also the
  fallback when no C compiler is available.
* :meth:`DataflowSimulator.run_legacy` — the original per-gate-object
  reference loop, kept as the executable specification (the oracle) the
  production engine is validated against: the equivalence and fuzz
  suites assert exact equality of every :class:`SimulationResult` field
  and of the post-run supply state.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from heapq import heapify, heapreplace
from itertools import repeat
from typing import Dict, List, Optional

import numpy as np

from repro.arch.architectures import CqlaConfig, teleport_latency
from repro.arch.supply import (
    PI8,
    ZERO,
    AncillaSupply,
    DedicatedKindSpec,
    InfiniteSupply,
    SteadyKindSpec,
)
from repro.circuits import Circuit
from repro.circuits.compiled import CompiledCircuit, compile_circuit
from repro.circuits.gate import PI8_CONSUMING_GATES
from repro.circuits.latency import LogicalLatencyModel
from repro.tech import ION_TRAP, TechnologyParams

#: Encoded zeros per QEC step (bit + phase correction).
ZEROS_PER_QEC = 2


@dataclass
class SimulationResult:
    """Outcome of one dataflow simulation."""

    makespan_us: float
    gates: int
    zero_ancillae_consumed: int
    pi8_ancillae_consumed: int
    cache_misses: int = 0
    teleports: int = 0

    @property
    def makespan_ms(self) -> float:
        return self.makespan_us / 1000.0


class _LruCache:
    """LRU residency set over qubit ids.

    Backed by an :class:`~collections.OrderedDict` whose iteration order
    is recency order (oldest first), so eviction pops the front in O(1)
    instead of scanning for the minimum timestamp.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def __contains__(self, qubit: int) -> bool:
        return qubit in self._order

    def touch(self, qubit: int) -> Optional[int]:
        """Mark ``qubit`` resident; returns an evicted qubit or None."""
        order = self._order
        if qubit in order:
            order.move_to_end(qubit)
            return None
        evicted = None
        if len(order) >= self.capacity:
            evicted, _ = order.popitem(last=False)
        order[qubit] = None
        return evicted


class _PortBank:
    """Earliest-free teleport port selection via a min-heap.

    Heap entries are ``(free_time, port_index)``; ties resolve to the
    lowest index, matching a first-minimum linear scan over a port list.
    """

    __slots__ = ("_heap",)

    def __init__(self, ports: int) -> None:
        self._heap = [(0.0, i) for i in range(ports)]
        heapify(self._heap)

    def book(self, start: float, duration: float) -> float:
        """Occupy the earliest-free port from ``start``; returns the
        completion time."""
        free, index = self._heap[0]
        begin = start if start > free else free
        end = begin + duration
        heapreplace(self._heap, (end, index))
        return end


def spec_kind_mode(kind_spec) -> Optional[str]:
    """Lowering class of one kind's declarative spec.

    ``None`` (unconstrained), ``"steady"``, ``"dedicated"``, or
    ``"unknown"`` for a foreign spec type neither engine can lower —
    callers must route unknown specs through per-gate ``acquire``.
    """
    if kind_spec is None:
        return None
    if isinstance(kind_spec, SteadyKindSpec):
        return "steady"
    if isinstance(kind_spec, DedicatedKindSpec):
        return "dedicated"
    return "unknown"


def movement_teleports(
    cc: CompiledCircuit, move_1q: float, move_2q: float, tech: TechnologyParams
) -> int:
    """Teleports implied by movement penalties alone (no cache traffic).

    A movement penalty at least as long as a teleport is one (two for
    two-qubit gates, which move both operands) — the accounting rule
    ``run_legacy`` applies per gate, evaluated in closed form here for
    the production engine.
    """
    t_teleport = teleport_latency(tech)
    teleports = 0
    if move_1q and move_1q >= t_teleport:
        teleports += cc.one_qubit_moves
    if move_2q and move_2q >= t_teleport:
        teleports += 2 * cc.two_qubit_moves
    return teleports


class DataflowSimulator:
    """Simulates kernel execution under an architecture's constraints.

    Args:
        circuit: Decomposed (encoded-gate-set) kernel circuit.
        tech: Technology parameters.
        supply: Ancilla supply model; defaults to infinite (speed of data).
        movement_penalty_us: Per-gate movement latency added before the
            gate (architecture-dependent; 0 for the pure dataflow bound).
        cqla: When given, enables compute-cache modeling with this config.
        compiled: Optional pre-lowered form of ``circuit`` (from
            :func:`~repro.circuits.compiled.compile_circuit`), letting
            sweeps share one compilation across many simulator instances.
            Compiled lazily on first :meth:`run` when omitted.
    """

    def __init__(
        self,
        circuit: Circuit,
        tech: TechnologyParams = ION_TRAP,
        supply: Optional[AncillaSupply] = None,
        movement_penalty_us: float = 0.0,
        two_qubit_movement_penalty_us: Optional[float] = None,
        cqla: Optional[CqlaConfig] = None,
        compiled: Optional[CompiledCircuit] = None,
    ) -> None:
        self.circuit = circuit
        self.tech = tech
        self.supply = supply if supply is not None else InfiniteSupply()
        self.move_1q = movement_penalty_us
        self.move_2q = (
            two_qubit_movement_penalty_us
            if two_qubit_movement_penalty_us is not None
            else movement_penalty_us
        )
        self.cqla = cqla
        self._logical = LogicalLatencyModel(tech)
        if compiled is not None:
            if (
                not compiled.compiled_from(circuit)
                or compiled.num_gates != len(circuit)
                or compiled.num_qubits != circuit.num_qubits
                or compiled.tech != tech
            ):
                raise ValueError(
                    "compiled circuit does not match this simulator's "
                    f"circuit/tech (compiled {compiled.num_gates} gates under "
                    f"{compiled.tech.name!r}, simulating {len(circuit)} gates "
                    f"under {tech.name!r}); pass compiled=None to recompile"
                )
        self._compiled = compiled

    @property
    def compiled(self) -> CompiledCircuit:
        """The circuit's array form, compiled on first access."""
        if self._compiled is None:
            self._compiled = compile_circuit(self.circuit, self.tech)
        return self._compiled

    # ------------------------------------------------------------------
    # Compiled engine

    def run(self) -> SimulationResult:
        """Execute through the compiled dataflow kernel, as a batch of one.

        Result-identical to :meth:`run_legacy` (exact float equality),
        supply state included; see :mod:`repro.arch.batched`.
        """
        from repro.arch.batched import simulate_points

        return simulate_points(
            self.compiled, [self.supply], self.tech, self.move_1q,
            self.move_2q, self.cqla,
        )[0]

    # ------------------------------------------------------------------
    # Reference engine

    def run_legacy(self) -> SimulationResult:
        """Execute via the original per-gate-object reference loop.

        Kept as the executable specification: the compiled engine must
        reproduce this loop's results exactly.
        """
        tech = self.tech
        logical = self._logical
        qec_interact = logical.qec_interaction_latency()
        qubit_free = [0.0] * self.circuit.num_qubits
        bit_ready: Dict[str, float] = {}
        cache = None
        ports: Optional[_PortBank] = None
        misses = 0
        teleports = 0
        if self.cqla is not None:
            cache = _LruCache(self.cqla.cache_size(self.circuit.num_qubits))
            ports = _PortBank(self.cqla.ports)
        t_teleport = teleport_latency(tech)
        zeros = 0
        pi8s = 0
        makespan = 0.0
        for gate in self.circuit:
            qubits = gate.qubits
            start = max(qubit_free[q] for q in qubits)
            if gate.condition is not None:
                start = max(start, bit_ready.get(gate.condition, 0.0))
            # Cache fills: each non-resident operand teleports in through
            # the earliest-free port; dirty evictions teleport out first.
            if cache is not None:
                for q in qubits:
                    if q in cache:
                        cache.touch(q)
                        continue
                    misses += 1
                    evicted = cache.touch(q)
                    trips = 1 + (1 if evicted is not None else 0)
                    for _ in range(trips):
                        teleports += 1
                        start = ports.book(start, t_teleport)
            # Architecture movement for the gate itself.
            movement = self.move_2q if gate.is_two_qubit else self.move_1q
            if movement and not (gate.is_prep or gate.is_measurement):
                if movement >= t_teleport:
                    teleports += 1 if not gate.is_two_qubit else 2
                start += movement
            # Ancilla availability.
            home = qubits[0]
            start = max(start, self.supply.acquire(ZERO, home, ZEROS_PER_QEC, start))
            zeros += ZEROS_PER_QEC
            if gate.gate_type in PI8_CONSUMING_GATES:
                start = max(start, self.supply.acquire(PI8, home, 1, start))
                pi8s += 1
            finish = start + logical.gate_latency(gate) + qec_interact
            for q in qubits:
                qubit_free[q] = finish
            if gate.result is not None:
                bit_ready[gate.result] = finish
            makespan = max(makespan, finish)
        return SimulationResult(
            makespan_us=makespan,
            gates=len(self.circuit),
            zero_ancillae_consumed=zeros,
            pi8_ancillae_consumed=pi8s,
            cache_misses=misses,
            teleports=teleports,
        )


# ----------------------------------------------------------------------
# CQLA cache schedule and the per-gate acquire loop.


@dataclass(frozen=True, eq=False)
class _CacheSchedule:
    """Per-gate teleport-trip counts implied by LRU residency.

    Which operands miss (and whether each miss evicts a resident qubit)
    depends only on the operand sequence and the cache capacity — never
    on gate timing — so the whole port-booking workload is a pure
    function of (circuit, cache size), computed once and shared by every
    point of every sweep.
    """

    trips: List[int]  # bookings gate i performs (0 for full hits)
    trips_array: np.ndarray  # the same as int32, for the compiled kernel
    misses: int
    teleports: int  # total bookings == sum(trips)


_SCHEDULE_CACHE: "weakref.WeakKeyDictionary[CompiledCircuit, Dict[int, _CacheSchedule]]" = (
    weakref.WeakKeyDictionary()
)


def _cache_schedule(cc: CompiledCircuit, cache_size: int) -> _CacheSchedule:
    """Replay the LRU walk of :meth:`DataflowSimulator.run_legacy`,
    timing-free."""
    per_cc = _SCHEDULE_CACHE.get(cc)
    if per_cc is None:
        per_cc = {}
        _SCHEDULE_CACHE[cc] = per_cc
    schedule = per_cc.get(cache_size)
    if schedule is not None:
        return schedule
    cache = _LruCache(cache_size)
    trips = [0] * cc.num_gates
    misses = 0
    for i, (a, b, c) in enumerate(zip(cc.q0, cc.q1, cc.q2)):
        for q in (a, b, c):
            if q < 0:
                break
            if q in cache:
                cache.touch(q)
            else:
                misses += 1
                trips[i] += 1 + (1 if cache.touch(q) is not None else 0)
    schedule = _CacheSchedule(
        trips=trips,
        trips_array=np.array(trips, dtype=np.int32),
        misses=misses,
        teleports=sum(trips),
    )
    per_cc[cache_size] = schedule
    return schedule


def _run_generic(
    cc: CompiledCircuit,
    movement: Optional[List[float]],
    acquire,
    qec: float,
    trips: Optional[List[int]] = None,
    ports: int = 1,
    t_teleport: float = 0.0,
) -> float:
    """The per-gate ``acquire`` loop over the compiled form.

    Serves any :class:`AncillaSupply` — spec-less custom supplies, and
    every supply when the compiled kernel is unavailable; ``acquire``
    records consumption as it goes, so no state commit follows. With
    CQLA, ``trips`` is the :func:`_cache_schedule` booking count per gate,
    replayed on a :class:`_PortBank`. Floating-point order matches
    :meth:`DataflowSimulator.run_legacy` exactly.
    """
    qubit_free = [0.0] * cc.num_qubits
    bits = [0.0] * cc.num_bits
    bank = _PortBank(ports)
    move_iter = movement if movement is not None else repeat(0.0)
    trip_iter = trips if trips is not None else repeat(0)
    for a, b, c, cond, k, move, pi8, latency, result in zip(
        cc.q0, cc.q1, cc.q2, cc.cond_id, trip_iter, move_iter, cc.pi8_flag,
        cc.latency_us, cc.result_id,
    ):
        t = qubit_free[a]
        if b >= 0:
            v = qubit_free[b]
            if v > t:
                t = v
            if c >= 0:
                v = qubit_free[c]
                if v > t:
                    t = v
        if cond >= 0:
            v = bits[cond]
            if v > t:
                t = v
        while k:
            k -= 1
            t = bank.book(t, t_teleport)
        if move:
            t += move
        v = acquire(ZERO, a, ZEROS_PER_QEC, t)
        if v > t:
            t = v
        if pi8:
            v = acquire(PI8, a, 1, t)
            if v > t:
                t = v
        finish = t + latency + qec
        qubit_free[a] = finish
        if b >= 0:
            qubit_free[b] = finish
            if c >= 0:
                qubit_free[c] = finish
        if result >= 0:
            bits[result] = finish
    return max(qubit_free) if qubit_free else 0.0

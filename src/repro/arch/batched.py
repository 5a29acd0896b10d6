"""Point-batched dataflow simulation through one compiled kernel.

Every headline sweep (Figure 8 throughput curves, Figure 15/16 area
ladders, each ``repro.explore`` round) simulates the same compiled kernel
at many design points differing only in supply rates. This module runs a
whole batch of such points through one compiled C walk
(``dataflow.c``, built and loaded by :mod:`repro.arch.kernel`): gates in
program order, an inner loop over points, per-point state rows stored
points-minor. :meth:`DataflowSimulator.run` is a batch of one point.

What the kernel takes, and why it stays bit-identical:

* **Any supply with a declarative ready spec**
  (:func:`~repro.arch.supply.declared_ready_spec`): each kind's closed
  form is evaluated inside the walk. A steady kind's ancillae for gate
  ``i`` exist at ``(seq_i + consumed) / rate`` with ``seq_i`` the global
  draw count; dedicated per-qubit kinds (the QLA model) use the gate's
  home-qubit draw count instead, so a point is a row of per-qubit rates.
  Supplies whose specs constrain nothing share one walked column.
* **CQLA cache mode**: the LRU miss/eviction pattern depends only on the
  operand sequence and cache size — never on time — so the per-gate
  teleport-trip schedule is precomputed once per (circuit, cache size)
  (:func:`~repro.arch.simulator._cache_schedule`), and the kernel books
  each trip on the first earliest-free port of the point's
  ``(points, ports)`` row, the tie-break of the serial min-heap.

Per gate and point the arithmetic follows the reference loop's
floating-point order (max chains, port bookings, movement add, supply
max, then ``+ latency`` then ``+ qec``), so every result is
**bit-identical** to :meth:`DataflowSimulator.run_legacy` — the
equivalence suites assert exact float equality and equal post-run supply
state. After the walk each supply advances by exactly what a per-gate
``acquire`` walk would have recorded.

The one Python loop (:func:`~repro.arch.simulator._run_generic`, per-gate
``acquire``) serves supplies with no honored ready spec — custom
:class:`AncillaSupply` implementations, subclasses overriding
availability/state methods without re-declaring their spec, instance
monkeypatches — and every point when no C compiler works. The
``batched.simulate_batch`` span reports per-path point counts
(``unconstrained`` / ``steady`` / ``dedicated`` / ``fallback``) and the
engine (``kernel="c"`` or ``"python"``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch import kernel as _kernel
from repro.arch.architectures import CqlaConfig, teleport_latency
from repro.arch.simulator import (
    ZEROS_PER_QEC,
    DataflowSimulator,
    SimulationResult,
    _cache_schedule,
    _run_generic,
    movement_teleports,
    spec_kind_mode,
)
from repro.arch.supply import (
    PI8,
    ZERO,
    AncillaSupply,
    DedicatedKindSpec,
    ReadySpec,
    SteadyKindSpec,
    declared_ready_spec,
)
from repro.circuits import Circuit
from repro.circuits.compiled import CompiledCircuit
from repro.circuits.latency import LogicalLatencyModel
from repro.obs.trace import span as _span
from repro.tech import ION_TRAP, TechnologyParams

__all__ = ["simulate_batch"]


@dataclass(frozen=True, eq=False)
class _WalkArrays:
    """The circuit in the kernel's flat layout, built once per compiled form."""

    #: Addresses of q0, q1, q2, cond, result, latency, move_kind, pi8 —
    #: the arrays in ``keep`` — in kernel argument order.
    pointers: Tuple[int, ...]
    keep: Tuple[np.ndarray, ...]
    #: Steady kinds: the global draw count gate i brings a pool to.
    zero_seq: np.ndarray
    pi8_seq: np.ndarray
    #: Dedicated kinds: the draw count gate i brings its home qubit to.
    zero_rank: np.ndarray
    pi8_rank: np.ndarray
    #: Total per-qubit draws, for ``advance_per_qubit`` after the walk.
    zero_home_totals: List[int]
    pi8_home_totals: List[int]


def _build_walk_arrays(cc: CompiledCircuit) -> _WalkArrays:
    n, nq = cc.num_gates, cc.num_qubits
    zero_count = [0] * nq
    pi8_count = [0] * nq
    zero_rank = np.empty(n)
    pi8_rank = np.zeros(n)
    for i, (a, pi8) in enumerate(zip(cc.q0, cc.pi8_flag)):
        zero_count[a] += ZEROS_PER_QEC
        zero_rank[i] = zero_count[a]
        if pi8:
            pi8_count[a] += 1
            pi8_rank[i] = pi8_count[a]
    pi8 = np.array(cc.pi8_flag, dtype=np.int8)
    keep = tuple(
        np.array(values, dtype=dtype)
        for values, dtype in (
            (cc.q0, np.int32), (cc.q1, np.int32), (cc.q2, np.int32),
            (cc.cond_id, np.int32), (cc.result_id, np.int32),
            (cc.latency_us, np.float64), (cc.move_kind, np.int8),
        )
    ) + (pi8,)
    return _WalkArrays(
        pointers=tuple(array.ctypes.data for array in keep),
        keep=keep,
        zero_seq=ZEROS_PER_QEC * np.arange(1, n + 1, dtype=np.float64),
        pi8_seq=np.cumsum(pi8, dtype=np.float64),
        zero_rank=zero_rank,
        pi8_rank=pi8_rank,
        zero_home_totals=zero_count,
        pi8_home_totals=pi8_count,
    )


_ARRAYS_CACHE: "weakref.WeakKeyDictionary[CompiledCircuit, _WalkArrays]" = (
    weakref.WeakKeyDictionary()
)


def _walk_arrays(cc: CompiledCircuit) -> _WalkArrays:
    arrays = _ARRAYS_CACHE.get(cc)
    if arrays is None:
        arrays = _build_walk_arrays(cc)
        _ARRAYS_CACHE[cc] = arrays
    return arrays


def _lowering_signature(cc: CompiledCircuit, spec: Optional[ReadySpec]):
    """``(zero_mode, pi8_mode)`` kernel grouping key, or None.

    Modes are :func:`spec_kind_mode` strings; a kind irrelevant to this
    circuit (untracked, or pi/8 with no pi/8 gates) is None. None means
    the point needs the per-gate ``acquire`` loop: no honored spec, a
    spec type the kernel cannot lower, or dedicated generators that do
    not cover every qubit (the reference loop fails only if a gate homes
    on a missing one).
    """
    if spec is None:
        return None
    signature = []
    for kind, relevant in ((ZERO, True), (PI8, cc.pi8_count > 0)):
        kind_spec = spec.kind(kind) if relevant else None
        mode = spec_kind_mode(kind_spec)
        if mode == "unknown" or (
            mode == "dedicated"
            and min(len(kind_spec.rates_per_us), len(kind_spec.consumed))
            < cc.num_qubits
        ):
            return None
        signature.append(mode)
    return tuple(signature)


def _kind_args(cc, arrays, specs, kind, mode) -> list:
    """Kernel arguments ``[rate, consumed, seq, cols]`` for one kind
    (arrays, or None for an unconstrained kind)."""
    if mode is None:
        return [None, None, None, 0]
    kind_specs = [spec.kinds[kind] for spec in specs]
    if mode == "steady":
        rate = np.array([k.rate_per_us for k in kind_specs], dtype=np.float64)
        consumed = np.array([k.consumed for k in kind_specs], dtype=np.float64)
        seq, cols = (arrays.zero_seq if kind == ZERO else arrays.pi8_seq), 1
    else:
        nq = cc.num_qubits
        rate = np.array([k.rates_per_us[:nq] for k in kind_specs],
                        dtype=np.float64)
        consumed = np.array([k.consumed[:nq] for k in kind_specs],
                            dtype=np.float64)
        seq = arrays.zero_rank if kind == ZERO else arrays.pi8_rank
        cols = nq
    return [rate, consumed, seq, cols]


def _advance(cc, arrays, supply, spec: ReadySpec) -> None:
    """Commit exactly what a per-gate ``acquire`` walk would have recorded:
    aggregate counts for steady kinds, per-home totals for dedicated ones
    (both skip zero-rate counters internally, as ``acquire`` does)."""
    for kind, total, home_totals in (
        (ZERO, ZEROS_PER_QEC * cc.num_gates, arrays.zero_home_totals),
        (PI8, cc.pi8_count, arrays.pi8_home_totals),
    ):
        kind_spec = spec.kind(kind)
        if isinstance(kind_spec, SteadyKindSpec):
            supply.advance(kind, total)
        elif isinstance(kind_spec, DedicatedKindSpec):
            supply.advance_per_qubit(kind, home_totals)


def simulate_points(
    cc: CompiledCircuit,
    supplies: Sequence[AncillaSupply],
    tech: TechnologyParams,
    move_1q: float,
    move_2q: float,
    cqla: Optional[CqlaConfig],
    sp=None,
) -> List[SimulationResult]:
    """Simulate one point per supply of an already-compiled circuit.

    The engine behind both :func:`simulate_batch` and
    :meth:`DataflowSimulator.run`; ``sp`` is the caller's span, which
    receives the per-path point counts.
    """
    n = cc.num_gates
    if n == 0:
        return [SimulationResult(0.0, 0, 0, 0, 0, 0) for _ in supplies]
    qec = LogicalLatencyModel(tech).qec_interaction_latency()
    teleports = movement_teleports(cc, move_1q, move_2q, tech)
    schedule = None
    ports, t_teleport, misses = 1, 0.0, 0
    if cqla is not None:
        schedule = _cache_schedule(cc, cqla.cache_size(cc.num_qubits))
        ports, t_teleport = cqla.ports, teleport_latency(tech)
        misses = schedule.misses
        teleports += schedule.teleports

    def result(makespan: float) -> SimulationResult:
        return SimulationResult(
            makespan_us=makespan,
            gates=n,
            zero_ancillae_consumed=ZEROS_PER_QEC * n,
            pi8_ancillae_consumed=cc.pi8_count,
            cache_misses=misses,
            teleports=teleports,
        )

    specs = [declared_ready_spec(supply) for supply in supplies]
    groups: Dict[tuple, List[int]] = {}
    looped: List[int] = []  # points for the per-gate acquire loop
    for i, spec in enumerate(specs):
        signature = _lowering_signature(cc, spec)
        if signature is None:
            looped.append(i)
        else:
            groups.setdefault(signature, []).append(i)
    # An aliased supply object at several constrained points cannot be
    # batched faithfully: serial per-point runs would thread its consumed
    # state from one point into the next, while a batch snapshots the
    # state once. Fail loud rather than silently diverge. (Stateless /
    # unconstrained duplicates are harmless; per-point acquire runs
    # replay state sequentially in index order, like a serial loop.)
    seen_ids: Dict[int, int] = {}
    for signature, indices in groups.items():
        if signature == (None, None):
            continue
        for i in indices:
            j = seen_ids.setdefault(id(supplies[i]), i)
            if j != i:
                raise ValueError(
                    f"supplies[{j}] and supplies[{i}] are the same "
                    "object; rate-limited supplies must be distinct "
                    "per point (consumption state cannot be shared "
                    "within one batch)"
                )
    walk = _kernel.load_kernel()
    if sp is not None:
        sp.set(
            unconstrained=len(groups.get((None, None), ())),
            steady=sum(len(v) for s, v in groups.items()
                       if s != (None, None) and "dedicated" not in s),
            dedicated=sum(len(v) for s, v in groups.items()
                          if "dedicated" in s),
            fallback=len(looped),
            kernel="c" if walk is not None else "python",
        )
    out: List[Optional[SimulationResult]] = [None] * len(supplies)
    if walk is None:
        # Per-gate acquire threads every supply's state exactly, so the
        # Python loop needs no advance afterwards.
        lowered = [i for indices in groups.values() for i in indices]
        _kernel.note_fallback(len(lowered))
        looped = sorted(looped + lowered)
        groups = {}

    if looped:
        movement = None
        if move_1q or move_2q:
            table = (0.0, move_1q, move_2q)
            movement = [table[k] for k in cc.move_kind]
        trips = schedule.trips if schedule is not None else None
        for i in looped:
            with _span("simulate.level_walk", gates=n, points=1):
                makespan = _run_generic(
                    cc, movement, supplies[i].acquire, qec, trips, ports,
                    t_teleport,
                )
            out[i] = result(makespan)

    if groups:
        arrays = _walk_arrays(cc)
        trips_ptr = (
            schedule.trips_array.ctypes.data if schedule is not None else None
        )
        for signature, indices in groups.items():
            # Unconstrained points all share one result: walk one column.
            unconstrained = signature == (None, None)
            group = [specs[i] for i in indices[:1 if unconstrained else None]]
            kinds = []
            for kind, mode in zip((ZERO, PI8), signature):
                kinds += _kind_args(cc, arrays, group, kind, mode)
            makespans = np.empty(len(group))
            with _span("simulate.level_walk", gates=n, points=len(group)):
                status = walk(
                    n, len(group), cc.num_qubits, cc.num_bits,
                    *arrays.pointers, move_1q, move_2q, qec,
                    trips_ptr, ports, t_teleport,
                    *[a.ctypes.data if isinstance(a, np.ndarray) else a
                      for a in kinds],
                    makespans.ctypes.data,
                )
            if status:
                raise MemoryError("dataflow kernel could not allocate state")
            values = makespans.tolist()
            if unconstrained:
                values = values * len(indices)
            for i, makespan in zip(indices, values):
                out[i] = result(makespan)
                _advance(cc, arrays, supplies[i], specs[i])
    return out


def simulate_batch(
    circuit: Circuit,
    supplies: Sequence[AncillaSupply],
    tech: TechnologyParams = ION_TRAP,
    *,
    movement_penalty_us: float = 0.0,
    two_qubit_movement_penalty_us: Optional[float] = None,
    cqla: Optional[CqlaConfig] = None,
    compiled: Optional[CompiledCircuit] = None,
) -> List[SimulationResult]:
    """Simulate one design point per entry of ``supplies``, batched.

    Every point shares the circuit, technology, movement penalties and
    (optional) CQLA configuration; points differ only in their ancilla
    supply — exactly the shape of a Figure 8 / Figure 15 / Figure 16
    sweep axis. Results are **bit-identical** to running
    ``DataflowSimulator(...).run_legacy()`` per point, including the
    observable supply state afterwards (steady and dedicated counters
    advance by the same amounts).

    Any supply with an honored declarative ready spec
    (:func:`~repro.arch.supply.declared_ready_spec` — the built-in
    models and any custom publisher) runs through the compiled kernel,
    CQLA included; spec-less or override-disqualified supplies take the
    per-gate ``acquire`` loop, transparently.
    """
    with _span("batched.simulate_batch", points=len(supplies)) as sp:
        if not supplies:
            return []
        move_2q = (
            two_qubit_movement_penalty_us
            if two_qubit_movement_penalty_us is not None
            else movement_penalty_us
        )
        probe = DataflowSimulator(circuit, tech, compiled=compiled)
        return simulate_points(
            probe.compiled, supplies, tech, movement_penalty_us, move_2q,
            cqla, sp,
        )

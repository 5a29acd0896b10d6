"""Microarchitecture models and event-based dataflow simulation (Section 5).

Compares three ways of organizing a quantum chip (Figure 14):

* **QLA** — a dedicated ancilla generator per data qubit; data returns
  home for error correction after every gate, so inter-qubit operations
  teleport (Metodi et al., the paper's [22]);
* **CQLA** — QLA plus a compute cache holding the working set; gates on
  uncached qubits pay miss/writeback teleports through limited cache
  ports (Thaker et al., the paper's [15]);
* **Fully-Multiplexed** — shared ancilla factories feeding any data qubit
  on demand, with ballistic movement inside dense data regions (the
  paper's proposal, realized as the Qalypso tile of Figure 16).

Modules:

* :mod:`repro.arch.supply` — ancilla production models (infinite, steady
  rate, pooled, per-qubit dedicated) and the declarative ready-spec
  protocol that lets every model lower into the compiled kernel;
* :mod:`repro.arch.simulator` — the event-based dataflow simulator
  (Section 5.2's methodology);
* :mod:`repro.arch.batched` — the production engine: one compiled walk
  simulates a whole sweep of design points, bit-identical per point;
* :mod:`repro.arch.kernel` — builds and loads that walk (``dataflow.c``)
  with the system C compiler;
* :mod:`repro.arch.architectures` — the three architecture configurations;
* :mod:`repro.arch.sweep` — the Figure 8 throughput sweep and Figure 15
  area sweep;
* :mod:`repro.arch.provisioning` — Table 9 area breakdowns;
* :mod:`repro.arch.qalypso` — Qalypso tile accounting (Section 5.3).
"""

from repro.arch.architectures import (
    ArchitectureKind,
    CqlaConfig,
    MultiplexedConfig,
    QlaConfig,
    architecture_for_area,
)
from repro.arch.batched import simulate_batch
from repro.arch.provisioning import AreaBreakdown, area_breakdown
from repro.arch.simulator import DataflowSimulator, SimulationResult
from repro.arch.supply import (
    DedicatedKindSpec,
    DedicatedSupply,
    InfiniteSupply,
    PooledSupply,
    ReadySpec,
    SteadyKindSpec,
    SteadyRateSupply,
    declared_ready_spec,
)
from repro.arch.sweep import area_sweep, throughput_sweep

__all__ = [
    "ArchitectureKind",
    "AreaBreakdown",
    "CqlaConfig",
    "DataflowSimulator",
    "DedicatedKindSpec",
    "DedicatedSupply",
    "InfiniteSupply",
    "MultiplexedConfig",
    "PooledSupply",
    "QlaConfig",
    "ReadySpec",
    "SimulationResult",
    "SteadyKindSpec",
    "SteadyRateSupply",
    "architecture_for_area",
    "area_breakdown",
    "area_sweep",
    "declared_ready_spec",
    "simulate_batch",
    "throughput_sweep",
]

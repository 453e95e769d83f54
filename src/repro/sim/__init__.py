"""Reference spacetime simulator.

The accuracy experiment of Figure 11 needs a ground truth to compare the
analytical models against (the paper uses the latencies reported by the
Eyeriss and MAERI papers; this reproduction cannot re-measure those chips).
:class:`~repro.sim.engine.SpacetimeSimulator` plays that role: it executes a
dataflow literally, time-stamp by time-stamp, tracking

* which elements each PE holds in its registers,
* which operands can be forwarded from an interconnected neighbour,
* how many words must be fetched from / written to the scratchpad, and
* how many cycles each step takes under the finite scratchpad bandwidth.

The simulator is intentionally independent of the analytical model in
:mod:`repro.core` — it shares no counting code — so agreement between the two
is meaningful evidence, and disagreement quantifies model error.
"""

from repro.sim.engine import SpacetimeSimulator, simulate
from repro.sim.trace import SimulationResult, StepRecord
from repro.sim.pe import PERegisterFile
from repro.sim.noc import NocModel
from repro.sim.scratchpad import ScratchpadModel

__all__ = [
    "SpacetimeSimulator",
    "simulate",
    "SimulationResult",
    "StepRecord",
    "PERegisterFile",
    "NocModel",
    "ScratchpadModel",
]

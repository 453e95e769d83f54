"""The reference spacetime simulator.

The simulator executes a dataflow one time-stamp at a time:

1. Loop instances are grouped by their time-stamp (lexicographic order).
2. Within a step, every active PE resolves its operands in priority order:
   register hit (held since the previous step), NoC forward (an interconnected
   predecessor held it at the previous step — or holds it in the same step for
   multicast wires), otherwise a scratchpad read.
3. Output elements are retained in the producing PE's registers; an output
   element is written back to the scratchpad when the PE stops touching it
   (and at the end of the execution).
4. A step costs ``max(compute cycles, scratchpad words / bandwidth)`` cycles —
   the double-buffering assumption of the analytical model.

This is deliberately a different code path from :mod:`repro.core`: it performs
an explicit execution with per-PE register sets rather than counting relation
cardinalities, so it can serve as ground truth for the Figure 11 accuracy
comparison.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.arch.spec import ArchSpec
from repro.core.dataflow import Dataflow
from repro.errors import DataflowError, ModelError
from repro.sim.noc import NocModel
from repro.sim.pe import PERegisterFile
from repro.sim.scratchpad import ScratchpadModel
from repro.sim.trace import SimulationResult, StepRecord
from repro.tensor.operation import TensorOp


class SpacetimeSimulator:
    """Execute (simulate) a dataflow on a spatial architecture."""

    def __init__(
        self,
        op: TensorOp,
        dataflow: Dataflow,
        arch: ArchSpec,
        *,
        max_instances: int = 2_000_000,
        keep_steps: bool = False,
    ):
        self.op = op
        self.dataflow = dataflow.bind(op)
        self.arch = arch
        self.max_instances = int(max_instances)
        self.keep_steps = keep_steps

    # -- public API --------------------------------------------------------------

    def run(self) -> SimulationResult:
        instances, pe_coords, time_ranks = self._materialize()
        order = np.argsort(time_ranks, kind="stable")
        instances = instances[order]
        pe_coords = pe_coords[order]
        time_ranks = time_ranks[order]

        pe_array = self.arch.pe_array
        noc = NocModel(pe_array, self.arch.interconnect)
        scratchpad = ScratchpadModel(self.arch.memory.scratchpad_words_per_cycle)
        registers: dict[tuple[int, ...], PERegisterFile] = {
            coord: PERegisterFile() for coord in pe_array.coords()
        }

        input_accesses = [
            (access.tensor, access.relation)
            for access in self.op.accesses
            if access.mode.reads and not access.mode.writes
        ]
        output_accesses = [
            (access.tensor, access.relation)
            for access in self.op.accesses
            if access.mode.writes
        ]

        register_hits = 0
        total_cycles = 0.0
        compute_cycles = 0.0
        accesses_per_tensor: dict[str, int] = defaultdict(int)
        live_outputs: dict[tuple[int, ...], set] = defaultdict(set)
        written_outputs: set = set()
        steps: list[StepRecord] = []

        boundaries = self._step_boundaries(time_ranks)
        iteration_dims = self.op.loop_dims
        for step_index, (start, stop) in enumerate(boundaries):
            step_hits = 0
            step_noc = 0
            step_reads = 0
            step_writes = 0
            instances_in_step = stop - start
            per_pe_instances: dict[tuple[int, ...], int] = defaultdict(int)
            touched_outputs: dict[tuple[int, ...], set] = defaultdict(set)

            for row in range(start, stop):
                pe = tuple(int(v) for v in pe_coords[row])
                per_pe_instances[pe] += 1
                env = dict(zip(iteration_dims, (int(v) for v in instances[row])))
                register_file = registers[pe]

                for tensor, relation in input_accesses:
                    element = (tensor, relation.apply_env(env))
                    accesses_per_tensor[tensor] += 1
                    if register_file.holds(element) or element in register_file.current:
                        register_hits += 1
                        step_hits += 1
                    elif self._forwardable(element, pe, noc, registers):
                        noc.record_transfer(tensor)
                        step_noc += 1
                    else:
                        scratchpad.read(tensor)
                        step_reads += 1
                    register_file.touch(element)

                for tensor, relation in output_accesses:
                    element = (tensor, relation.apply_env(env))
                    accesses_per_tensor[tensor] += 1
                    register_file.touch(element)
                    touched_outputs[pe].add(element)

            # Outputs a PE stopped touching are drained to the scratchpad.
            for pe, live in live_outputs.items():
                finished = live - touched_outputs.get(pe, set())
                for element in finished:
                    if element not in written_outputs:
                        scratchpad.write(element[0])
                        written_outputs.add(element)
                        step_writes += 1
            live_outputs = touched_outputs

            for register_file in registers.values():
                register_file.advance()

            compute = max(per_pe_instances.values()) if per_pe_instances else 0
            transfer = scratchpad.cycles_for(step_reads + step_writes)
            cycles = max(float(compute), transfer)
            compute_cycles += compute
            total_cycles += cycles

            if self.keep_steps:
                steps.append(
                    StepRecord(
                        step=step_index,
                        active_pes=len(per_pe_instances),
                        instances=instances_in_step,
                        register_hits=step_hits,
                        noc_transfers=step_noc,
                        scratchpad_reads=step_reads,
                        scratchpad_writes=step_writes,
                        cycles=cycles,
                    )
                )

        # Drain the outputs still live after the last step.
        final_writes = 0
        for pe, live in live_outputs.items():
            for element in live:
                if element not in written_outputs:
                    scratchpad.write(element[0])
                    written_outputs.add(element)
                    final_writes += 1
        total_cycles += scratchpad.cycles_for(final_writes)

        return SimulationResult(
            operation=self.op.name,
            dataflow=self.dataflow.name,
            architecture=self.arch.name,
            total_cycles=total_cycles,
            compute_cycles=compute_cycles,
            num_instances=int(instances.shape[0]),
            num_time_steps=len(boundaries),
            num_pes=pe_array.size,
            register_hits=register_hits,
            noc_transfers=noc.total_transfers,
            scratchpad_reads=scratchpad.total_reads,
            scratchpad_writes=scratchpad.total_writes,
            reads_per_tensor=dict(scratchpad.reads_per_tensor),
            writes_per_tensor=dict(scratchpad.writes_per_tensor),
            noc_per_tensor=dict(noc.transfers_per_tensor),
            steps=steps,
            accesses_per_tensor=dict(accesses_per_tensor),
        )

    # -- helpers -----------------------------------------------------------------------

    def _forwardable(
        self,
        element,
        destination: tuple[int, ...],
        noc: NocModel,
        registers: dict[tuple[int, ...], PERegisterFile],
    ) -> bool:
        """Can an interconnected predecessor supply the element?"""
        for source in noc.predecessors(destination):
            source_file = registers[source]
            if source_file.holds(element):
                return True
            if noc.same_cycle_forwarding and element in source_file.current:
                return True
        return False

    def _step_boundaries(self, time_ranks: np.ndarray) -> list[tuple[int, int]]:
        """(start, stop) index ranges of each time-step in the sorted instance arrays."""
        if time_ranks.size == 0:
            return []
        change = np.flatnonzero(np.diff(time_ranks)) + 1
        starts = np.concatenate(([0], change))
        stops = np.concatenate((change, [time_ranks.size]))
        return list(zip(starts.tolist(), stops.tolist()))

    def _materialize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All instances, their PE coordinates and dense time ranks.

        Refuses what the analyzer refuses, with the same error types: a
        domain past the cap is a ``ModelError``; a space stamp whose rank is
        not the array's, or an instance off the array, a ``DataflowError``.
        """
        box = self.op.domain.box_size()
        if box > self.max_instances:
            raise ModelError(
                f"simulation of {box} instances exceeds the simulator cap of "
                f"{self.max_instances}; scale the workload first"
            )
        pe_array = self.arch.pe_array
        self.dataflow.check_pe_rank(self.op, pe_array)
        instances = self.op.domain.points_array()
        chunk = {dim: instances[:, i] for i, dim in enumerate(self.op.loop_dims)}
        pe_coords, time_coords = self.dataflow.stamps_for_chunk(chunk)

        for axis, extent in enumerate(pe_array.dims):
            column = pe_coords[:, axis]
            if (column < 0).any() or (column >= extent).any():
                raise DataflowError(
                    f"dataflow {self.dataflow.name!r} maps instances outside "
                    f"{pe_array}"
                )

        # Rank whole time-stamp rows lexicographically: a mixed-radix key
        # over wide time bounds would wrap int64 and merge distinct steps.
        if time_coords.shape[1] == 0:
            time_ranks = np.zeros(instances.shape[0], dtype=np.int64)
        else:
            _, time_ranks = np.unique(time_coords, axis=0, return_inverse=True)
        return instances, pe_coords, time_ranks.reshape(-1)


def simulate(op: TensorOp, dataflow: Dataflow, arch: ArchSpec, **kwargs) -> SimulationResult:
    """Convenience wrapper: ``SpacetimeSimulator(op, dataflow, arch, **kwargs).run()``."""
    return SpacetimeSimulator(op, dataflow, arch, **kwargs).run()

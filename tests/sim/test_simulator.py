"""Tests for the reference spacetime simulator and its agreement with the analyzer."""

import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.arch import ArchSpec, Mesh, PEArray, Systolic2D
from repro.core import Dataflow, analyze
from repro.dataflows import get_dataflow
from repro.dse.pruning import pruned_candidates
from repro.errors import DataflowError, ModelError
from repro.experiments.common import make_arch
from repro.sim import SpacetimeSimulator, simulate
from repro.tensor import conv2d, gemm, jacobi2d, mmc, mttkrp

from tests.core.test_backends import INTERCONNECTS


@pytest.fixture(scope="module")
def figure3_setup():
    op = gemm(2, 2, 4)
    dataflow = Dataflow.from_exprs("(IJ-P | J,IJK-T)", op, ["i", "j"], ["i + j + k"])
    arch = ArchSpec(pe_array=PEArray((2, 2)), interconnect=Systolic2D(), name="2x2")
    return op, dataflow, arch


class TestFigure3Simulation:
    def test_scratchpad_traffic_matches_unique_volumes(self, figure3_setup):
        op, dataflow, arch = figure3_setup
        result = simulate(op, dataflow, arch)
        report = analyze(op, dataflow, arch)
        assert result.reads_per_tensor["A"] == report.volumes["A"].unique
        assert result.reads_per_tensor["B"] == report.volumes["B"].unique
        assert result.writes_per_tensor["Y"] == report.volumes["Y"].unique

    def test_noc_transfers_match_spatial_reuse(self, figure3_setup):
        op, dataflow, arch = figure3_setup
        result = simulate(op, dataflow, arch)
        report = analyze(op, dataflow, arch)
        assert result.noc_per_tensor["A"] == report.volumes["A"].spatial_reuse
        assert result.noc_per_tensor["B"] == report.volumes["B"].spatial_reuse

    def test_register_hits_match_temporal_reuse(self, figure3_setup):
        op, dataflow, arch = figure3_setup
        result = simulate(op, dataflow, arch)
        report = analyze(op, dataflow, arch)
        # inputs only: outputs are retained in registers by construction
        analytic_temporal = report.volumes["A"].temporal_reuse + report.volumes["B"].temporal_reuse
        assert result.register_hits == analytic_temporal

    def test_compute_cycles_match_time_stamps(self, figure3_setup):
        op, dataflow, arch = figure3_setup
        result = simulate(op, dataflow, arch)
        assert result.compute_cycles == 6
        assert result.num_time_steps == 6

    def test_utilization_matches(self, figure3_setup):
        op, dataflow, arch = figure3_setup
        result = simulate(op, dataflow, arch)
        report = analyze(op, dataflow, arch)
        assert result.average_pe_utilization == pytest.approx(report.average_pe_utilization)


class TestSimulatorBehaviour:
    def test_gemm_catalog_dataflow_agreement(self):
        op = gemm(16, 16, 16)
        dataflow = get_dataflow("gemm", "(IJ-P | J,IJK-T)")
        arch = ArchSpec(pe_array=PEArray((8, 8)), interconnect=Systolic2D())
        result = simulate(op, dataflow, arch)
        report = analyze(op, dataflow, arch)
        assert result.scratchpad_reads == report.volumes["A"].unique + report.volumes["B"].unique
        assert result.scratchpad_writes == report.volumes["Y"].unique

    def test_conv_simulation_runs(self):
        op = conv2d(4, 4, 5, 5, 3, 3)
        dataflow = get_dataflow("conv2d", "(KC-P | OY,OX-T)", rows=4, cols=4)
        arch = ArchSpec(pe_array=PEArray((4, 4)), interconnect=Systolic2D())
        result = simulate(op, dataflow, arch)
        assert result.num_instances == op.num_instances()
        assert result.total_cycles >= result.compute_cycles

    def test_bandwidth_limits_total_cycles(self, figure3_setup):
        op, dataflow, arch = figure3_setup
        fast = simulate(op, dataflow, arch)
        slow = simulate(op, dataflow, arch.with_bandwidth(8.0))
        assert slow.total_cycles > fast.total_cycles

    def test_step_records(self, figure3_setup):
        op, dataflow, arch = figure3_setup
        result = SpacetimeSimulator(op, dataflow, arch, keep_steps=True).run()
        assert len(result.steps) == result.num_time_steps
        assert sum(step.instances for step in result.steps) == result.num_instances

    def test_instance_cap(self):
        op = gemm(64, 64, 64)
        dataflow = get_dataflow("gemm", "(IJ-P | J,IJK-T)")
        arch = ArchSpec()
        with pytest.raises(ModelError):
            simulate(op, dataflow, arch, max_instances=1000)

    def test_mesh_enables_diagonal_reuse_for_skewed_access(self):
        from repro.tensor import conv1d

        op = conv1d(4, 3)
        dataflow = Dataflow.from_exprs("fig1", op, ["i"], ["j"])
        arch = ArchSpec(pe_array=PEArray((4,)), interconnect=Mesh(), name="1d")
        result = simulate(op, dataflow, arch)
        assert result.noc_per_tensor.get("A", 0) == 6

    def test_summary_and_as_dict(self, figure3_setup):
        op, dataflow, arch = figure3_setup
        result = simulate(op, dataflow, arch)
        assert "cycles" in result.summary()
        assert result.as_dict()["operation"] == "GEMM"


class TestEngineSimulatorCrossValidation:
    """Fast-lane guard for the Fig. 11 accuracy path: the batched evaluation
    engine and the explicit spacetime simulator must agree on the relation
    cardinalities they both count."""

    CASES = [
        (gemm(8, 8, 8), "gemm", "(IJ-P | J,IJK-T)"),
        (conv2d(4, 4, 5, 5, 3, 3), "conv2d", "(KC-P | OY,OX-T)"),
    ]

    @pytest.mark.parametrize("op,kernel,name", CASES,
                             ids=[op.name for op, _, _ in CASES])
    def test_total_volumes_agree(self, op, kernel, name):
        from repro.core.engine import EvaluationEngine, RelationCache

        dataflow = get_dataflow(kernel, name)
        arch = ArchSpec(pe_array=PEArray((8, 8)), interconnect=Systolic2D(), name="8x8")
        report = EvaluationEngine(op, arch, cache=RelationCache()).evaluate(dataflow)
        sim = simulate(op, dataflow, arch)
        # Every access the simulator executes is one (stamp, element) pair of
        # the assignment relation the engine counts.
        for tensor in op.tensor_names:
            assert report.volumes[tensor].total == sim.accesses_per_tensor[tensor], tensor
        # Input operands resolved outside registers/NoC hit the scratchpad, so
        # the simulated read traffic is exactly the engine's unique volume.
        for tensor in op.input_tensors:
            assert report.volumes[tensor].unique == sim.reads_per_tensor[tensor], tensor
        assert report.utilization.num_instances == sim.num_instances
        assert report.utilization.num_time_stamps == sim.num_time_steps


class TestErrorParity:
    """The simulator refuses what the analyzer and both engine backends
    refuse, with the same error type."""

    CASES = {
        # A 2-D space stamp on a 1-D array, a 1-D one on a 2-D array, and
        # stamps past the array's extent: a DataflowError everywhere.
        "2d-stamp-on-1d-array": (["i", "j"], (16,), None, DataflowError),
        "1d-stamp-on-2d-array": (["i"], (4, 4), None, DataflowError),
        "out-of-range": (["i", "j"], (2, 2), None, DataflowError),
        # The instance cap: a ModelError everywhere.
        "past-the-cap": (["i", "j"], (4, 4), 32, ModelError),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_evaluator_raises_the_same_type(self, case):
        from repro.core.backends import BACKEND_NAMES
        from repro.core.engine import EvaluationEngine, RelationCache

        space, pe_dims, cap, error = self.CASES[case]
        op = gemm(4, 4, 4)
        dataflow = Dataflow.from_exprs(case, op, space, ["k"])
        arch = ArchSpec(pe_array=PEArray(pe_dims), interconnect=Systolic2D())
        limit = {} if cap is None else {"max_instances": cap}
        evaluators = {
            "analyzer": lambda: analyze(op, dataflow, arch, **limit),
            "simulate": lambda: simulate(op, dataflow, arch, **limit),
        }
        for backend in BACKEND_NAMES:
            engine = EvaluationEngine(
                op, arch, cache=RelationCache(), backend=backend, **limit
            )
            evaluators[backend] = lambda engine=engine: engine.evaluate(dataflow)
        for name, evaluate in evaluators.items():
            with pytest.raises(Exception) as raised:
                evaluate()
            assert type(raised.value) is error, (name, raised.value)


#: Small ops of the five kernels, for the oracle comparisons.
ORACLE_KERNELS = {
    "gemm": lambda: gemm(6, 6, 6),
    "conv2d": lambda: conv2d(3, 3, 4, 4, 2, 2),
    "mttkrp": lambda: mttkrp(3, 3, 3, 3),
    "mmc": lambda: mmc(3, 3, 3, 3),
    "jacobi2d": lambda: jacobi2d(6, 6),
}


@functools.lru_cache(maxsize=None)
def oracle_sample(kernel, count=4, seed=2):
    """A kernel's op and ``count`` of its pruned 2x3-array candidates
    (packing allowed), drawn with a fixed seed."""
    op = ORACLE_KERNELS[kernel]()
    candidates = list(pruned_candidates(op, (2, 3), allow_packing=True))
    return op, random.Random(seed).sample(candidates, min(count, len(candidates)))


class TestOracleAgreement:
    """Where the analyzer's spacetime map and the simulator's execution
    already agree.  Both keep an operand in a PE's registers for exactly one
    time step: the analyzer's temporal adjacency is fixed at one stamp, and
    ``PERegisterFile`` holds what a step touched through the next step.
    Reads, writes and NoC transfers are not compared here: the two sides
    still count them by different rules."""

    @pytest.mark.parametrize("interconnect", INTERCONNECTS)
    @pytest.mark.parametrize("kernel", sorted(ORACLE_KERNELS))
    def test_register_hits_equal_input_temporal_reuse(self, kernel, interconnect):
        op, candidates = oracle_sample(kernel)
        arch = make_arch(pe_dims=(2, 3), interconnect=interconnect)
        compared = 0
        for dataflow in candidates:
            try:
                report = analyze(op, dataflow, arch)
            except (DataflowError, ModelError):
                continue
            temporal = sum(report.volumes[t].temporal_reuse for t in op.input_tensors)
            assert simulate(op, dataflow, arch).register_hits == temporal, dataflow.name
            compared += 1
        assert compared > 0


#: Simulates gemm(16, 16, 16) ``(IJ-P | J,IJK-T)`` on an 8x8 2d-systolic array
#: and prints the result and its per-tensor counts as one JSON line.
_SIMULATE_GEMM = """
import json
from repro.arch import ArchSpec, PEArray, Systolic2D
from repro.dataflows import get_dataflow
from repro.sim import simulate
from repro.tensor import gemm

result = simulate(
    gemm(16, 16, 16),
    get_dataflow("gemm", "(IJ-P | J,IJK-T)"),
    ArchSpec(pe_array=PEArray((8, 8)), interconnect=Systolic2D()),
)
print(json.dumps({
    "result": result.as_dict(),
    "reads": result.reads_per_tensor,
    "writes": result.writes_per_tensor,
    "noc": result.noc_per_tensor,
}))
"""


class TestDeterminism:
    def test_result_does_not_depend_on_the_string_hash_seed(self):
        # Register files are sets of (tensor name, coordinates) elements, so
        # their iteration order follows Python's string hash seed; what the
        # simulator reports must not.
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", _SIMULATE_GEMM],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            outputs.append(json.loads(completed.stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0]["result"]["scratchpad_reads"] == sum(outputs[0]["reads"].values())
        assert outputs[0]["noc"]

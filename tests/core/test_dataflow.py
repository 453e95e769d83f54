"""Unit tests for dataflow relations and their validation."""

import pytest

from repro.core import Dataflow, analyze
from repro.core.backends import BACKEND_NAMES
from repro.core.engine import EvaluationEngine, RelationCache
from repro.core.notation import dataflow_shorthand, parse_shorthand_name
from repro.errors import DataflowError, ParseError
from repro.experiments.common import make_arch
from repro.tensor import gemm


@pytest.fixture()
def op():
    return gemm(16, 16, 8)


class TestConstruction:
    def test_from_exprs_with_strings(self, op):
        dataflow = Dataflow.from_exprs("test", op, ["i mod 8", "j mod 8"],
                                       ["fl(i/8)", "fl(j/8)", "i mod 8 + j mod 8 + k"])
        assert dataflow.pe_rank == 2
        assert dataflow.time_rank == 3

    def test_from_strings(self):
        dataflow = Dataflow.from_strings(
            "paper-example",
            "{ S[i,j,k] -> PE[i, j] }",
            "{ S[i,j,k] -> T[i + j + k] }",
        )
        assert dataflow.stamp_of((1, 0, 2)) == ((1, 0), (3,))

    def test_space_time_dim_mismatch_rejected(self):
        with pytest.raises(DataflowError):
            Dataflow.from_strings(
                "bad",
                "{ S[i,j] -> PE[i] }",
                "{ S[a,b] -> T[a] }",
            )

    def test_non_functional_map_rejected(self):
        from repro.isl import parse_map

        relation = parse_map("{ S[i] -> PE[p] : p = i }")
        functional = parse_map("{ S[i] -> T[i] }")
        with pytest.raises(DataflowError):
            Dataflow("bad", relation, functional)

    def test_str_contains_both_stamps(self, op):
        dataflow = Dataflow.from_exprs("x", op, ["i"], ["j", "k"])
        assert "PE[" in str(dataflow) and "T[" in str(dataflow)


class TestStampEvaluation:
    def test_paper_quasi_affine_example(self, op):
        dataflow = Dataflow.from_exprs("tpu", op, ["i mod 8", "j mod 8"],
                                       ["fl(i/8)", "fl(j/8)", "i mod 8 + j mod 8 + k"])
        pe, time = dataflow.stamp_of((9, 3, 2))
        assert pe == (1, 3)
        assert time == (1, 0, 1 + 3 + 2)

    def test_time_bounds(self, op):
        dataflow = Dataflow.from_exprs("skew", op, ["i mod 8", "j mod 8"],
                                       ["i mod 8 + j mod 8 + k"])
        (lo, hi), = [dataflow.time_bounds(op)[0]]
        assert lo == 0
        assert hi == 7 + 7 + 7

    def test_bind_restricts_domain(self, op):
        dataflow = Dataflow.from_exprs("x", op, ["i"], ["j", "k"])
        bound = dataflow.bind(op)
        assert bound.space_map.domain is not None
        assert bound.space_map.domain.count() == op.num_instances()


def evaluators(op, arch):
    """``analyze`` and a fresh engine's ``evaluate`` per backend: every path
    that evaluates, and so checks, a dataflow."""
    engines = [
        EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        for backend in BACKEND_NAMES
    ]
    return [lambda dataflow: analyze(op, dataflow, arch)] + [
        engine.evaluate for engine in engines
    ]


class TestValidation:
    """Every evaluation checks the dataflow: the analyzer and both engine
    backends raise ``DataflowError`` for a dataflow off the array or of the
    wrong rank, and report a non-injective one."""

    @pytest.fixture()
    def paths(self, op):
        return evaluators(op, make_arch(pe_dims=(8, 8)))

    def test_valid_injective_dataflow(self, op, paths):
        dataflow = Dataflow.from_exprs("ok", op, ["i mod 8", "j mod 8"],
                                       ["fl(i/8)", "fl(j/8)", "k"])
        for evaluate in paths:
            utilization = evaluate(dataflow).utilization
            assert utilization.is_injective
            assert utilization.occupied_stamps == op.num_instances()

    def test_out_of_range_detected(self, op, paths):
        dataflow = Dataflow.from_exprs("broken", op, ["i", "j"], ["k"])
        for evaluate in paths:
            with pytest.raises(DataflowError, match="outside"):
                evaluate(dataflow)

    def test_non_injective_detected(self, op, paths):
        dataflow = Dataflow.from_exprs("collide", op, ["i mod 8", "j mod 8"],
                                       ["fl(i/8)", "fl(j/8)"])
        for evaluate in paths:
            report = evaluate(dataflow)
            utilization = report.utilization
            assert not utilization.is_injective
            # Every PE runs the 8 k-instances of its stamp one after another.
            assert utilization.compute_delay_cycles == 8 * utilization.num_time_stamps
            assert any("not injective" in note for note in report.notes)

    def test_rank_mismatch(self, op, paths):
        dataflow = Dataflow.from_exprs("rank", op, ["i"], ["j", "k"])
        for evaluate in paths:
            with pytest.raises(DataflowError, match="rank 1 does not match PE array rank 2"):
                evaluate(dataflow)


class TestNotationHelpers:
    def test_shorthand_roundtrip(self):
        name = dataflow_shorthand(["i", "j"], ["j", "ijk"])
        assert name == "(IJ-P | J,IJK-T)"
        assert parse_shorthand_name(name) == ("IJ", ("J", "IJK"))

    def test_parse_invalid_shorthand(self):
        with pytest.raises(ParseError):
            parse_shorthand_name("not a dataflow name")

"""Tests for the streaming sweep pipeline: sharding, session, sinks."""

import json

import pytest

from repro.core.engine import (
    EvaluationEngine,
    RelationCache,
    arch_signature,
    dataflow_signature,
)
from repro.dse.pruning import pruned_candidates
from repro.errors import ExplorationError
from repro.experiments.common import make_arch
import repro.sweep.session as session_module
from repro.sweep import (
    ResultSink,
    SweepSession,
    TopKSink,
    load_ranking,
    parse_shard,
    render_ranking,
    signature_shard_index,
)
from repro.tensor.kernels import gemm


def make_op():
    return gemm(16, 16, 16)


def make_source(op, count=20):
    return list(
        pruned_candidates(op, pe_dims=(4, 4), allow_packing=True, max_candidates=count)
    )


def make_session(op, arch=None, backend="fused", **kwargs):
    arch = arch or make_arch(pe_dims=(4, 4))
    engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
    return SweepSession(engine, **kwargs)


def ranking_key(result_or_entries):
    entries = getattr(result_or_entries, "ranking", result_or_entries)
    return [(e.signature, e.name, e.score, e.data) for e in entries]


class RecordingSink(ResultSink):
    """Signatures of every candidate a sweep processed, in stream order."""

    def __init__(self):
        self.signatures = []

    def emit(self, outcome, score):
        self.signatures.append(outcome.signature)


def swept_signatures(op, candidates, shard):
    sink = RecordingSink()
    result = make_session(op, sinks=[sink]).run(candidates, shard=shard)
    return sink.signatures, result


class TestSharding:
    def test_shards_partition_exactly_once(self):
        # Every candidate lands in exactly one shard, for any shard count.
        op = make_op()
        source = make_source(op, count=20)
        full = [dataflow_signature(c) for c in source]
        for count in (2, 3, 5):
            merged = []
            for index in range(count):
                signatures, result = swept_signatures(op, source, (index, count))
                assert result.sharded_out == len(full) - len(signatures)
                merged.extend(signatures)
            assert sorted(merged) == sorted(full)
            assert len(merged) == len(full)

    def test_shard_assignment_is_stable(self):
        # The shard of a candidate is a pure function of its signature text,
        # so a reordered stream keeps the same candidates in each shard.
        op = make_op()
        source = make_source(op, count=10)
        for index in range(4):
            forward, _ = swept_signatures(op, source, (index, 4))
            backward, _ = swept_signatures(op, source[::-1], (index, 4))
            assert sorted(forward) == sorted(backward)
            assert all(signature_shard_index(s, 4) == index for s in forward)

    def test_shard_commutes_with_dedupe(self):
        op = make_op()
        candidates = make_source(op, count=8)
        doubled = [dataflow_signature(c) for c in candidates + candidates]
        # Shard first, then dedupe, by hand.
        shard_then_dedupe = list(
            dict.fromkeys(s for s in doubled if signature_shard_index(s, 2) == 0)
        )
        signatures, result = swept_signatures(op, candidates + candidates, (0, 2))
        assert signatures == shard_then_dedupe
        assert result.duplicates == len(candidates)

    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("2/2", "-1/2", "x/2", "1", "1/0"):
            with pytest.raises(ExplorationError):
                parse_shard(bad)


class TestSweepSession:
    def test_streaming_batches_match_single_batch(self, monkeypatch):
        # Batch size never changes the outcome, only the streaming granularity.
        op = make_op()
        candidates = list(make_source(op, count=12))
        big = make_session(op).run(candidates)
        monkeypatch.setattr(session_module, "BATCH_SIZE", 3)
        small = make_session(op).run(candidates)
        assert (big.batches, small.batches) == (1, 4)
        assert ranking_key(small) == ranking_key(big)

    def test_early_termination_decisions_survive_batching(self, monkeypatch):
        # The running best threads through evaluate_batch calls, so pruning
        # decisions are identical whatever the batch size (serial engine).
        op = make_op()
        candidates = list(make_source(op, count=12))
        one = make_session(op, early_termination=True, objective="sbw").run(candidates)
        monkeypatch.setattr(session_module, "BATCH_SIZE", 2)
        streamed = make_session(op, early_termination=True, objective="sbw").run(
            candidates
        )
        assert streamed.batches > one.batches
        assert sorted(streamed.pruned) == sorted(one.pruned)
        assert ranking_key(streamed) == ranking_key(one)

    def test_duplicates_counted(self):
        op = make_op()
        candidates = list(make_source(op, count=4))
        result = make_session(op).run(candidates + candidates)
        assert result.duplicates == 4
        assert len(result.evaluated) == 4

    def test_sharded_sweeps_merge_to_unsharded_ranking(self, tmp_path):
        op = make_op()
        source = make_source(op, count=20)
        full = make_session(op, checkpoint=str(tmp_path / "full.jsonl")).run(source)
        shard_paths = []
        for index in range(2):
            path = str(tmp_path / f"shard{index}.jsonl")
            shard_paths.append(path)
            result = make_session(op, checkpoint=path).run(source, shard=(index, 2))
            assert result.shard == (index, 2)
            assert result.sharded_out > 0
        merged = load_ranking(shard_paths)
        reference = load_ranking(tmp_path / "full.jsonl")
        assert ranking_key(merged) == ranking_key(reference)
        assert ranking_key(merged) == ranking_key(full)
        assert render_ranking(merged) == render_ranking(reference)

    def test_resume_after_kill_is_bit_identical(self, tmp_path):
        op = make_op()
        source = make_source(op, count=20)
        checkpoint = str(tmp_path / "sweep.jsonl")
        clean = make_session(op).run(source)

        # Simulate a killed sweep: only the first 7 candidates were processed.
        make_session(op, checkpoint=checkpoint).run(source[:7])
        resumed = make_session(op, checkpoint=checkpoint, resume=True).run(source)
        assert resumed.skipped == 7
        assert len(resumed.evaluated) == len(clean.evaluated) - 7
        assert ranking_key(resumed) == ranking_key(clean)

    def test_resume_tolerates_torn_final_line(self, tmp_path):
        op = make_op()
        source = make_source(op, count=10)
        checkpoint = tmp_path / "sweep.jsonl"
        make_session(op, checkpoint=str(checkpoint)).run(source[:5])
        # A kill mid-write leaves a truncated, newline-less record at the end.
        with checkpoint.open("a") as handle:
            handle.write('{"kind": "result", "signature": "tr')
        resumed = make_session(op, checkpoint=str(checkpoint), resume=True).run(source)
        clean = make_session(op).run(source)
        assert ranking_key(resumed) == ranking_key(clean)
        # The resumed records were not concatenated onto the torn fragment:
        # every line except the fragment parses, and the merged file ranks
        # identically to the clean run.
        lines = checkpoint.read_text().splitlines()
        unparseable = 0
        for line in lines:
            try:
                json.loads(line)
            except json.JSONDecodeError:
                unparseable += 1
        assert unparseable == 1
        assert ranking_key(load_ranking(checkpoint)) == ranking_key(clean)

    def test_load_ranking_tolerates_torn_final_line(self, tmp_path):
        # sweep-merge of a killed shard's checkpoint must not crash.
        op = make_op()
        checkpoint = tmp_path / "sweep.jsonl"
        result = make_session(op, checkpoint=str(checkpoint)).run(
            make_source(op, count=5)
        )
        with checkpoint.open("a") as handle:
            handle.write('{"kind": "result", "signature": "tr')
        assert ranking_key(load_ranking(checkpoint)) == ranking_key(result)

    def test_resume_refuses_foreign_checkpoint(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.jsonl")
        make_session(make_op(), checkpoint=checkpoint).run(make_source(make_op(), 3))
        other_op = gemm(8, 8, 24)
        with pytest.raises(ExplorationError, match="different sweep"):
            make_session(other_op, checkpoint=checkpoint, resume=True).run(
                make_source(other_op, 3)
            )

    def test_resume_refuses_early_termination_mismatch(self, tmp_path):
        # Pruned records only exist under early termination; resuming in the
        # other mode would silently skip candidates the sweep owes a score.
        op = make_op()
        checkpoint = str(tmp_path / "sweep.jsonl")
        make_session(op, early_termination=True, objective="sbw",
                     checkpoint=checkpoint).run(make_source(op, 6))
        with pytest.raises(ExplorationError, match="different sweep"):
            make_session(op, objective="sbw", checkpoint=checkpoint,
                         resume=True).run(make_source(op, 6))

    def test_resume_refuses_shard_mismatch(self, tmp_path):
        # Resuming a shard-0 checkpoint as shard 1 would merge foreign results.
        op = make_op()
        checkpoint = str(tmp_path / "sweep.jsonl")
        make_session(op, checkpoint=checkpoint).run(make_source(op, 6), shard=(0, 2))
        with pytest.raises(ExplorationError, match="different sweep"):
            make_session(op, checkpoint=checkpoint, resume=True).run(
                make_source(op, 6), shard=(1, 2)
            )

    @pytest.mark.parametrize("interconnect, first, second", [
        ("reduction-tree", {"group_size": 2}, {"group_size": 8}),
        ("multicast", {"reach": 1}, {"reach": 3}),
        ("2d-multicast", {"reach": 1}, {"reach": 7}),
    ])
    def test_resume_and_merge_refuse_other_interconnect_parameters(
        self, tmp_path, interconnect, first, second
    ):
        # The same topology with another reach or group size links other
        # PEs, so its checkpoint belongs to another sweep.  With groups of 2
        # and 8 PEs, resuming one from the other skipped every candidate and
        # kept scores that a fresh sweep does not give.
        op = gemm(8, 8, 8)
        source = list(pruned_candidates(op, pe_dims=(4, 4), max_candidates=24))
        archs = [
            make_arch(pe_dims=(4, 4), interconnect=interconnect, **options)
            for options in (first, second)
        ]
        paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        for arch, path in zip(archs, paths):
            make_session(
                op, arch, objective="unique_volume", checkpoint=str(path)
            ).run(source)
        with pytest.raises(ExplorationError, match="different sweep"):
            make_session(
                op, archs[1], objective="unique_volume", checkpoint=str(paths[0]),
                resume=True,
            ).run(source)
        with pytest.raises(ExplorationError, match="not comparable"):
            load_ranking(paths)

    @pytest.mark.parametrize("interconnect", ["1d-systolic", "2d-systolic", "mesh", "none"])
    def test_topologies_without_parameters_keep_their_arch_signature(self, interconnect):
        # Their checkpoints, written before the interconnect parameters
        # joined the signature, still resume.
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        assert arch_signature(arch) == (
            f"{arch.describe()}|{arch.energy!r}|{arch.frequency_mhz}"
        )

    def test_existing_checkpoint_refused_without_resume(self, tmp_path):
        # Re-running without --resume must not silently truncate hours of
        # recorded sweep results.
        op = make_op()
        checkpoint = tmp_path / "sweep.jsonl"
        make_session(op, checkpoint=str(checkpoint)).run(make_source(op, 3))
        recorded = checkpoint.read_text()
        with pytest.raises(ExplorationError, match="already exists"):
            make_session(op, checkpoint=str(checkpoint)).run(make_source(op, 3))
        assert checkpoint.read_text() == recorded

    def test_top_raises_on_restored_entries(self, tmp_path):
        # top() must not silently return the live tail as if it were the
        # sweep's true top-k after a resume.
        op = make_op()
        checkpoint = str(tmp_path / "sweep.jsonl")
        source = make_source(op, count=10)
        make_session(op, checkpoint=checkpoint).run(source[:6])
        resumed = make_session(op, checkpoint=checkpoint, resume=True).run(source)
        with pytest.raises(ExplorationError, match="result.ranking"):
            resumed.top(3)
        # Without restored entries top() keeps its classic behaviour.
        clean = make_session(op).run(source)
        assert [r.dataflow for r in clean.top(3)] == [
            e.name for e in clean.ranking[:3]
        ]

    def test_checkpoint_records_failures_and_resume_skips_them(self, tmp_path):
        from repro.core import Dataflow

        op = make_op()
        bad = Dataflow.from_exprs("bad", op, ["i", "j"], ["k"])
        good = list(make_source(op, count=2))
        checkpoint = str(tmp_path / "sweep.jsonl")
        first = make_session(op, checkpoint=checkpoint).run([bad] + good)
        assert len(first.failures) == 1
        resumed = make_session(op, checkpoint=checkpoint, resume=True).run([bad] + good)
        assert resumed.skipped == 3
        assert not resumed.failures

    def test_early_termination_resume_replays_decisions(self, tmp_path):
        # A resumed early-termination sweep seeds its running best from the
        # checkpoint, so it makes exactly the decisions of the clean sweep.
        op = make_op()
        source = make_source(op, count=16)
        clean = make_session(op, early_termination=True, objective="sbw").run(source)
        checkpoint = str(tmp_path / "sweep.jsonl")
        make_session(op, early_termination=True, objective="sbw",
                     checkpoint=checkpoint).run(source[:9])
        session = make_session(op, early_termination=True, objective="sbw",
                               checkpoint=checkpoint, resume=True)
        resumed = session.run(source)
        assert ranking_key(resumed) == ranking_key(clean)
        total_pruned = len(resumed.pruned) + sum(
            1
            for record in session.checkpoint_sink.completed.values()
            if record.get("status") == "pruned"
        )
        assert total_pruned == len(clean.pruned)

    def test_topk_sink(self):
        op = make_op()
        sink = TopKSink(k=3)
        result = make_session(op, sinks=[sink]).run(make_source(op, count=10))
        assert len(sink.top()) == 3
        assert [e.signature for e in sink.top()] == [
            e.signature for e in result.ranking[:3]
        ]

    def test_top_k_session_bounds_memory_and_preserves_ranking(self):
        op = make_op()
        unbounded = make_session(op).run(make_source(op, count=12))
        bounded = make_session(op, top_k=3).run(make_source(op, count=12))
        # Identical best-3 ranking, but no report list retained.
        assert ranking_key(bounded) == ranking_key(unbounded.ranking[:3])
        assert bounded.top_k == 3
        assert bounded.evaluated == []
        assert bounded.evaluated_count == len(unbounded.evaluated)
        assert bounded.num_candidates == unbounded.num_candidates
        assert bounded.throughput > 0
        assert bounded.best.dataflow == unbounded.best.dataflow
        assert "objective = latency" in bounded.summary()

    def test_top_k_with_checkpoint_keeps_full_record(self, tmp_path):
        op = make_op()
        checkpoint = tmp_path / "sweep.jsonl"
        result = make_session(op, top_k=2, checkpoint=str(checkpoint)).run(
            make_source(op, count=8)
        )
        assert len(result.ranking) <= 2
        # The JSONL record still holds *every* evaluated candidate.
        records = [json.loads(line) for line in checkpoint.read_text().splitlines()]
        ok_records = [r for r in records if r.get("status") == "ok"]
        assert len(ok_records) == result.evaluated_count > 2
        # And merging the checkpoint reproduces the unbounded ranking head.
        full = load_ranking(checkpoint)
        assert ranking_key(result) == ranking_key(full[:2])

    def test_top_k_resume_merges_restored_entries(self, tmp_path):
        op = make_op()
        checkpoint = tmp_path / "sweep.jsonl"
        clean = make_session(op).run(make_source(op, count=10))
        make_session(op, checkpoint=str(checkpoint)).run(make_source(op, count=10))
        resumed = make_session(
            op, top_k=4, checkpoint=str(checkpoint), resume=True
        ).run(make_source(op, count=10))
        assert resumed.skipped == 10
        assert ranking_key(resumed) == ranking_key(clean.ranking[:4])

    def test_top_k_session_reusable_across_runs(self):
        op = make_op()
        session = make_session(op, top_k=2)
        first = session.run(make_source(op, count=6))
        second = session.run(make_source(op, count=6))
        assert ranking_key(first) == ranking_key(second)
        assert second.evaluated_count == first.evaluated_count

    def test_top_k_rejects_non_positive(self):
        with pytest.raises(ExplorationError, match="top_k"):
            make_session(make_op(), top_k=0)

    def test_callable_objective(self):
        op = make_op()
        result = make_session(op, objective=lambda r: r.energy.total_pj).run(
            make_source(op, count=4)
        )
        scores = [entry.score for entry in result.ranking]
        assert scores == sorted(scores)
        assert result.objective == "<lambda>"

    def test_unknown_objective_rejected(self):
        with pytest.raises(ExplorationError):
            make_session(make_op(), objective="beauty")

    def test_resume_without_checkpoint_rejected(self):
        # A silent full re-sweep is the opposite of what resume promises.
        with pytest.raises(ExplorationError, match="checkpoint"):
            make_session(make_op(), resume=True)

    def test_throughput_and_summary(self):
        op = make_op()
        result = make_session(op).run(make_source(op, count=4))
        assert result.throughput > 0
        assert "objective = latency" in result.summary()


class TestBackendIndependence:
    """Reports are bit-identical across backends, so sweeps are too.

    The backend is recorded in the checkpoint header for information only:
    a checkpoint resumes, and shards merge, whichever backend wrote them.
    """

    @pytest.mark.parametrize("backend", ["fused"])
    def test_rendered_rankings_byte_identical_to_interp(
        self, tmp_path, monkeypatch, backend
    ):
        monkeypatch.setattr(session_module, "BATCH_SIZE", 8)
        op = make_op()
        rendered = []
        for name in ("interp", backend):
            path = tmp_path / f"{name}.jsonl"
            make_session(op, backend=name, checkpoint=str(path)).run(
                make_source(op)
            )
            rendered.append(render_ranking(load_ranking(str(path))).encode())
        assert rendered[0] == rendered[1]

    @pytest.mark.parametrize("backend", ["fused"])
    def test_early_termination_prunes_like_interp(self, monkeypatch, backend):
        from repro.core import Dataflow
        from repro.isl.expr import var

        monkeypatch.setattr(session_module, "BATCH_SIZE", 8)
        op = make_op()
        # A serial, low-bandwidth candidate first lets the sbw bound prune
        # the highly parallel ones that follow.
        i, j, k = (var(dim) for dim in op.loop_dims)
        serial = Dataflow.from_exprs(
            "serial", op.domain.space, [i % 4, j % 4], [i, j, k]
        )
        candidates = [serial] + list(make_source(op))
        results = [
            make_session(
                op, backend=name, early_termination=True, objective="sbw"
            ).run(candidates)
            for name in ("interp", backend)
        ]
        assert results[1].pruned
        assert sorted(results[1].pruned) == sorted(results[0].pruned)
        assert ranking_key(results[1]) == ranking_key(results[0])

    def test_shards_from_different_backends_merge_to_unsharded_ranking(
        self, tmp_path
    ):
        op = make_op()
        source = make_source(op)
        full = make_session(op).run(source)
        paths = []
        for index, backend in enumerate(("interp", "fused")):
            path = str(tmp_path / f"shard{index}.jsonl")
            make_session(op, backend=backend, checkpoint=path).run(
                source, shard=(index, 2)
            )
            paths.append(path)
        assert ranking_key(load_ranking(paths)) == ranking_key(full)

    def test_resume_on_another_backend_is_bit_identical(self, tmp_path):
        op = make_op()
        source = make_source(op)
        clean = make_session(op, backend="interp").run(source)
        checkpoint = str(tmp_path / "sweep.jsonl")
        make_session(op, backend="interp", checkpoint=checkpoint).run(source[:7])
        resumed = make_session(
            op, backend="fused", checkpoint=checkpoint, resume=True
        ).run(source)
        assert resumed.skipped == 7
        assert ranking_key(resumed) == ranking_key(clean)


class TestCheckpointFormat:
    def test_checkpoint_is_jsonl_with_meta_header(self, tmp_path):
        op = make_op()
        checkpoint = tmp_path / "sweep.jsonl"
        make_session(op, checkpoint=str(checkpoint)).run(make_source(op, count=3))
        lines = [json.loads(line) for line in checkpoint.read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        assert all(record["kind"] == "result" for record in lines[1:])
        assert all("signature" in record for record in lines[1:])

    def test_load_ranking_refuses_mixed_sweeps(self, tmp_path):
        # Merging checkpoints of different sweeps would rank incomparable
        # scores; sweep-merge must refuse, not produce plausible nonsense.
        op_a, op_b = make_op(), gemm(8, 8, 24)
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        make_session(op_a, checkpoint=str(path_a)).run(make_source(op_a, 3))
        make_session(op_b, checkpoint=str(path_b)).run(make_source(op_b, 3))
        with pytest.raises(ExplorationError, match="not comparable"):
            load_ranking([path_a, path_b])

    def test_load_ranking_refuses_mixed_termination_modes(self, tmp_path):
        # A pruned-mode shard is missing candidates a full-mode shard ranks.
        op = make_op()
        full_path = tmp_path / "full.jsonl"
        et_path = tmp_path / "et.jsonl"
        make_session(op, objective="sbw", checkpoint=str(full_path)).run(
            make_source(op, 6), shard=(0, 2)
        )
        make_session(op, objective="sbw", early_termination=True,
                     checkpoint=str(et_path)).run(make_source(op, 6), shard=(1, 2))
        with pytest.raises(ExplorationError, match="not comparable"):
            load_ranking([full_path, et_path])

    def test_checkpoint_requires_named_objective(self, tmp_path):
        # A callable objective has no checkpoint-verifiable identity, so
        # resumed scores could silently mix objectives.
        with pytest.raises(ExplorationError, match="named objective"):
            make_session(
                make_op(),
                objective=lambda r: r.latency_cycles,
                checkpoint=str(tmp_path / "ck.jsonl"),
            )

    def test_resume_into_empty_existing_file_writes_header(self, tmp_path):
        # `touch sweep.jsonl` (or a kill before the header write) must not
        # produce a header-less checkpoint that escapes identity validation.
        op = make_op()
        checkpoint = tmp_path / "sweep.jsonl"
        checkpoint.write_text("")
        make_session(op, checkpoint=str(checkpoint), resume=True).run(
            make_source(op, 3)
        )
        first = json.loads(checkpoint.read_text().splitlines()[0])
        assert first["kind"] == "meta"

    def test_headerless_checkpoint_refused(self, tmp_path):
        op = make_op()
        good = tmp_path / "good.jsonl"
        result = make_session(op, checkpoint=str(good)).run(make_source(op, 3))
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text(
            "\n".join(good.read_text().splitlines()[1:]) + "\n"
        )
        with pytest.raises(ExplorationError, match="no meta header"):
            make_session(op, checkpoint=str(headerless), resume=True).run(
                make_source(op, 3)
            )
        with pytest.raises(ExplorationError, match="no meta header"):
            load_ranking(headerless)
        assert ranking_key(load_ranking(good)) == ranking_key(result)

    def test_header_after_records_refused_by_resume_and_merge(self, tmp_path):
        # Resume and merge read through one parser with one rule: the meta
        # header must precede the first record (resume used to accept it
        # anywhere in the file).
        op = make_op()
        good = tmp_path / "good.jsonl"
        make_session(op, checkpoint=str(good)).run(make_source(op, 3))
        header, *records = good.read_text().splitlines()
        late = tmp_path / "late.jsonl"
        late.write_text("\n".join([*records, header]) + "\n")
        with pytest.raises(ExplorationError, match="no meta header before its records"):
            make_session(op, checkpoint=str(late), resume=True).run(make_source(op, 3))
        with pytest.raises(ExplorationError, match="no meta header before its records"):
            load_ranking(late)

    def test_load_ranking_single_path(self, tmp_path):
        op = make_op()
        checkpoint = tmp_path / "sweep.jsonl"
        result = make_session(op, checkpoint=str(checkpoint)).run(
            make_source(op, count=5)
        )
        assert ranking_key(load_ranking(checkpoint)) == ranking_key(result)


class TestLegacyCheckpoints:
    """Checkpoints written before the engine kept only interp and fused."""

    @staticmethod
    def rewrite_in_legacy_format(fresh, legacy, backend="affine", device="numpy"):
        """Write ``fresh``'s results under the older checkpoint format.

        The older header also named the array device and an in-progress
        tuning profile, on a backend that no longer exists, and a finished
        sweep appended its learned profile as a ``{"kind": "tuning"}`` line.
        Returns the number of result lines.
        """
        meta, *results = [json.loads(line) for line in fresh.read_text().splitlines()]
        profile = {
            "version": 1, "op": meta["op"], "arch": meta["arch"],
            "device": device, "requested_backend": backend, "backend": None,
            "batch_size": 56, "per_candidate_seconds": 0.004247,
            "ranker_coef": [0.0065, 0.0842, 0.1744, -0.1095, 0.0129],
            "calibrated": True,
            "decisions": ["batch size: 4.25 ms/candidate -> 56 (~0.25s per batch)"],
        }
        legacy_meta = {
            "kind": "meta", "version": 1, "op": meta["op"], "arch": meta["arch"],
            "objective": "latency", "early_termination": False,
            "backend": backend, "device": device, "shard": meta["shard"],
            "tuning": dict(profile, calibrated=False, batch_size=None, decisions=[]),
        }
        lines = [legacy_meta, *results, {"kind": "tuning", "profile": profile}]
        legacy.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return len(results)

    def test_tuned_affine_checkpoint_resumes_and_merges(self, tmp_path, capsys):
        from repro.cli import main

        op = make_op()
        fresh = tmp_path / "fresh.jsonl"
        make_session(op, checkpoint=str(fresh)).run(make_source(op, count=8))
        legacy = tmp_path / "legacy.jsonl"
        recorded = self.rewrite_in_legacy_format(fresh, legacy)
        assert recorded

        resumed = make_session(op, checkpoint=str(legacy), resume=True).run(
            make_source(op, count=8)
        )
        assert resumed.skipped == recorded
        assert resumed.evaluated_count == 0

        merged = []
        for path in (fresh, legacy):
            assert main(["sweep-merge", str(path)]) == 0
            merged.append(capsys.readouterr().out.encode())
        assert merged[0] == merged[1]

    def test_bitset_device_checkpoint_resumes_on_interp(self, tmp_path):
        # Neither the retired backend nor the device is part of the sweep
        # identity, so the reference backend may finish a killed legacy run.
        op = make_op()
        source = make_source(op, count=12)
        clean = make_session(op).run(source)
        fresh = tmp_path / "fresh.jsonl"
        make_session(op, checkpoint=str(fresh)).run(source[:5])
        legacy = tmp_path / "legacy.jsonl"
        recorded = self.rewrite_in_legacy_format(
            fresh, legacy, backend="bitset", device="torch:cpu"
        )
        resumed = make_session(
            op, backend="interp", checkpoint=str(legacy), resume=True
        ).run(source)
        assert resumed.skipped == recorded == 5
        assert ranking_key(resumed) == ranking_key(clean)
        kinds = [json.loads(line)["kind"] for line in legacy.read_text().splitlines()]
        assert kinds.count("result") == len(clean.evaluated)

    def test_auto_backend_checkpoint_resumes_and_merges(self, tmp_path, capsys):
        # Default sweeps once named the retired ``auto`` alias of ``fused``
        # in their header; a killed one still resumes, and merges to the
        # same ranking.
        from repro.cli import main

        op = make_op()
        source = make_source(op, count=12)
        fresh = tmp_path / "fresh.jsonl"
        make_session(op, checkpoint=str(fresh)).run(source)
        meta, *results = fresh.read_text().splitlines()
        header = json.loads(meta)
        assert header["backend"] == "fused"
        killed = tmp_path / "auto.jsonl"
        killed.write_text(
            "\n".join([json.dumps(dict(header, backend="auto")), *results[:5]]) + "\n"
        )
        resumed = make_session(op, checkpoint=str(killed), resume=True).run(source)
        assert resumed.skipped == 5
        assert resumed.evaluated_count == len(results) - 5
        merged = []
        for path in (fresh, killed):
            assert main(["sweep-merge", str(path)]) == 0
            merged.append(capsys.readouterr().out.encode())
        assert merged[0] == merged[1]

    def test_legacy_shard_merges_with_a_fresh_shard(self, tmp_path):
        # A fleet upgraded mid-sweep leaves shards in both formats.
        op = make_op()
        source = make_source(op, count=20)
        full = tmp_path / "full.jsonl"
        make_session(op, checkpoint=str(full)).run(source)
        paths = []
        for index in range(2):
            path = tmp_path / f"shard{index}.jsonl"
            make_session(op, checkpoint=str(path)).run(source, shard=(index, 2))
            paths.append(path)
        legacy = tmp_path / "shard0-legacy.jsonl"
        assert self.rewrite_in_legacy_format(paths[0], legacy)
        merged = load_ranking([str(legacy), str(paths[1])])
        reference = load_ranking(str(full))
        assert render_ranking(merged) == render_ranking(reference)

"""Pluggable result sinks for streaming sweeps.

A :class:`ResultSink` receives every candidate outcome as soon as its batch
finishes, so results are durable (or rankable) long before the sweep ends:

* :class:`TopKSink` keeps the best ``k`` candidates in memory,
* :class:`JsonlCheckpointSink` appends one JSON line per candidate and can
  *resume*: re-opening the same file skips every signature it already holds,
  and the merged ranking is bit-identical to an uninterrupted sweep.

Checkpoint files are also the shard merge format: ``load_ranking`` merges any
number of checkpoint files (e.g. one per ``--shard i/n`` machine) into the
ranking a single unsharded sweep would have produced.  Resume and merge parse
checkpoints with one function, :func:`read_checkpoint`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from repro.core.engine import CandidateOutcome
from repro.core.metrics import PerformanceReport
from repro.errors import ExplorationError
from repro.sweep import faults as fault_hooks
from repro.sweep.faults import FaultInjector, InjectedFault

CHECKPOINT_VERSION = 1


def _json_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"checkpoint record field of type {type(value).__name__} is not JSON")


def report_record(report: PerformanceReport) -> dict:
    """The serialisable, wall-clock-free view of a report used for ranking.

    ``analysis_seconds`` is stripped so checkpoints (and therefore shard
    merges and resumes) are bit-identical across runs.
    """
    data = report.as_dict()
    data.pop("analysis_seconds", None)
    data["sbw_bits_per_cycle"] = report.scratchpad_bandwidth_bits()
    return data


@dataclass
class RankEntry:
    """One ranked candidate: live (``report`` set) or restored from a checkpoint."""

    signature: str
    name: str
    score: float
    data: dict
    report: PerformanceReport | None = None

    @property
    def sort_key(self) -> tuple[float, str, str]:
        # Name ties (distinct structures can share a display name) are broken
        # by the structural signature so merged rankings are reproducible.
        return (self.score, self.name, self.signature)


class ResultSink:
    """Receives streaming sweep outcomes; see :class:`repro.sweep.SweepSession`."""

    def open(self, meta: dict) -> None:
        """Called once before the first batch with the session's identity."""

    def emit(self, outcome: CandidateOutcome, score: float | None) -> None:
        """Called for every processed candidate, in stream order."""

    def close(self) -> None:
        """Called once after the last batch (also on errors)."""


class TopKSink(ResultSink):
    """Keep the best ``k`` fully evaluated candidates in memory.

    Attached by ``SweepSession(top_k=...)`` so a paper-scale sweep's memory
    stays bounded by ``k`` entries instead of one report per candidate; a
    checkpoint sink on the same session still records every outcome.
    """

    def __init__(self, k: int = 10):
        self.k = int(k)
        self.entries: list[RankEntry] = []

    def open(self, meta: dict) -> None:
        # A session can run several sweeps; each starts from an empty board.
        self.entries = []

    def emit(self, outcome: CandidateOutcome, score: float | None) -> None:
        if outcome.report is None or score is None:
            return
        entry = RankEntry(
            signature=outcome.signature,
            name=outcome.name,
            score=float(score),
            data=report_record(outcome.report),
            report=outcome.report,
        )
        self.entries.append(entry)
        self.entries.sort(key=lambda e: e.sort_key)
        del self.entries[self.k:]

    def top(self) -> list[RankEntry]:
        return list(self.entries)


class JsonlCheckpointSink(ResultSink):
    """Durable JSONL checkpoint with resume.

    The file starts with one ``meta`` line (sweep identity) followed by one
    ``result`` line per candidate, flushed as it is written, so a killed sweep
    loses at most the in-flight batch.  With ``resume=True`` an existing file
    is validated against the session's identity and every recorded signature
    is skipped by the session; a mismatched identity is an error, not a silent
    restart.

    Crash safety: the meta header of a fresh checkpoint is written to a
    temporary file and moved into place with ``os.replace``, so a crash
    mid-header leaves either no checkpoint or a complete one — never a
    headerless file the resume path must refuse.  ``fsync_every=N`` issues
    ``os.fsync`` after every ``N``-th result record (and on the header and on
    close), bounding what an OS crash — not just a process kill — can lose.
    A kill mid-record leaves a torn final line; :func:`read_checkpoint`, which
    both the resume path here and :func:`load_ranking` read through, drops the
    fragment and the record is simply re-swept.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        resume: bool = False,
        fsync_every: int | None = None,
        fault_injector: FaultInjector | None = None,
    ):
        self.path = Path(path)
        self.resume = bool(resume)
        self.fsync_every = int(fsync_every) if fsync_every else None
        if self.fsync_every is not None and self.fsync_every < 1:
            raise ExplorationError(f"fsync_every must be positive, got {fsync_every}")
        self._faults = fault_injector
        #: signature -> checkpoint record of every candidate already processed.
        self.completed: dict[str, dict] = {}
        self._handle: IO[str] | None = None
        self._records_since_sync = 0

    def open(self, meta: dict) -> None:
        if self.resume and self.path.exists() and self.path.stat().st_size > 0:
            self.completed = self._load_completed(meta)
            self._handle = self.path.open("a", encoding="utf-8")
            # A kill mid-write can leave a torn, newline-less final line;
            # terminate it so resumed records start on their own line instead
            # of being concatenated onto (and corrupted by) the fragment.
            torn = False
            with self.path.open("rb") as raw:
                raw.seek(0, 2)
                if raw.tell() > 0:
                    raw.seek(-1, 2)
                    torn = raw.read(1) != b"\n"
            if torn:
                self._handle.write("\n")
                self._handle.flush()
        else:
            if self.path.exists() and self.path.stat().st_size > 0:
                # Never silently destroy a recorded sweep: an existing
                # checkpoint is either resumed or explicitly removed.  An
                # *empty* file is fresh either way and gets its header below.
                raise ExplorationError(
                    f"checkpoint {self.path} already exists; resume it "
                    "(resume=True / --resume) or delete it first"
                )
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic header: a crash between creating the file and writing
            # the meta line would leave a headerless checkpoint that resume
            # must refuse.  Writing header-first to a temp file and
            # os.replace-ing it in makes header presence all-or-nothing.
            header = (
                json.dumps({"kind": "meta", "version": CHECKPOINT_VERSION, **meta})
                + "\n"
            )
            tmp_path = self.path.with_name(self.path.name + ".tmp")
            with tmp_path.open("w", encoding="utf-8") as tmp:
                tmp.write(header)
                tmp.flush()
                os.fsync(tmp.fileno())
            os.replace(tmp_path, self.path)
            self._handle = self.path.open("a", encoding="utf-8")

    def _load_completed(self, meta: dict) -> dict[str, dict]:
        headers, records = read_checkpoint(self.path)
        if not headers:
            # Without a header the sweep identity cannot be validated, and a
            # signature alone does not identify the operation it was swept on.
            raise ExplorationError(
                f"checkpoint {self.path} has no meta header; it is not a sweep "
                "checkpoint (or its header was lost) — refusing to resume"
            )
        for header in headers:
            # backend (like the device and tuning keys of older checkpoints)
            # is deliberately not compared: reports are bit-identical across
            # backends, so resuming on another backend is legitimate.  A
            # shard or early-termination mismatch is not.
            for key in ("op", "arch", "objective", "shard", "early_termination"):
                if key in meta and header.get(key) != meta[key]:
                    raise ExplorationError(
                        f"checkpoint {self.path} was written for a different "
                        f"sweep ({key}={header.get(key)!r}, expected "
                        f"{meta[key]!r}); refusing to resume"
                    )
        # A re-swept candidate's later record wins.
        return {
            record["signature"]: record for record in records if record.get("signature")
        }

    def restored_entries(self) -> list[RankEntry]:
        """Rank entries of the fully evaluated candidates already on disk."""
        return [
            RankEntry(
                signature=record["signature"],
                name=record["name"],
                score=float(record["score"]),
                data=record["report"],
            )
            for record in self.completed.values()
            if record.get("status") == "ok"
        ]

    def emit(self, outcome: CandidateOutcome, score: float | None) -> None:
        record: dict = {
            "kind": "result",
            "signature": outcome.signature,
            "name": outcome.name,
        }
        if outcome.report is not None:
            record["status"] = "ok"
            record["score"] = float(score) if score is not None else None
            record["report"] = report_record(outcome.report)
        elif outcome.pruned:
            record["status"] = "pruned"
            record["bound"] = outcome.bound
        else:
            record["status"] = "error"
            record["error"] = outcome.error
        self._write(record)

    def _write(self, record: dict) -> None:
        assert self._handle is not None, "sink used before open()"
        line = json.dumps(record, default=_json_default) + "\n"
        spec = fault_hooks.apply("sink.write", self._faults)
        if spec is not None and spec.kind == "truncate":
            # Simulate a crash k bytes into this record's write: persist only
            # the torn prefix, then die.  k == len(line) means the record made
            # it to disk and the crash hit just after.
            torn = line[: min(int(spec.arg or 0), len(line))]
            self._handle.write(torn)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            raise InjectedFault(
                f"injected crash: checkpoint write torn after {len(torn)} byte(s)"
            )
        self._handle.write(line)
        self._handle.flush()
        if self.fsync_every is not None:
            self._records_since_sync += 1
            if self._records_since_sync >= self.fsync_every:
                os.fsync(self._handle.fileno())
                self._records_since_sync = 0

    def close(self) -> None:
        if self._handle is not None:
            if self.fsync_every is not None:
                try:
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                except OSError:
                    pass
            self._handle.close()
            self._handle = None


def clone_checkpoint(source: str | Path, dest: str | Path) -> int:
    """Copy a (possibly still-live) checkpoint's complete lines to ``dest``.

    Work stealing: the coordinator clones a revoked lease's checkpoint — whose
    original writer may be slow rather than dead, and still appending — into a
    fresh *generation* file, so the re-issued lease resumes from a file with
    exactly one writer.  Everything past the last newline is trimmed (complete
    lines only), mirroring the torn-line tolerance of the resume path, and the
    clone lands atomically (tmp + ``os.replace``) so a crashed steal leaves no
    half-copied checkpoint.

    Returns the number of result records cloned; a missing source — a lease
    that died before its header — clones nothing and returns 0 (resuming the
    absent file is then simply a fresh sweep).
    """
    source, dest = Path(source), Path(dest)
    try:
        data = source.read_bytes()
    except FileNotFoundError:
        return 0
    data = data[: data.rfind(b"\n") + 1]
    if not data:
        return 0
    records = 0
    for line in data.splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and record.get("kind") == "result":
            records += 1
    tmp_path = dest.with_name(dest.name + ".tmp")
    tmp_path.write_bytes(data)
    os.replace(tmp_path, dest)
    return records


def read_checkpoint(path: str | Path) -> tuple[list[dict], list[dict]]:
    """The meta headers and result records of one checkpoint, in file order.

    The one checkpoint parser, shared by resume and merge.  Lines that do not
    decode to a JSON object are skipped: a kill mid-write leaves a torn final
    line, and every line before it is intact (the sink flushes line by line).
    Records of other kinds, such as the ``{"kind": "tuning"}`` lines older
    versions appended, carry no candidate and are skipped too.  The header
    must come before the first record — the sink writes it first, atomically —
    because signatures identify dataflows, not operations: records without a
    validated header could silently collide with another sweep's.
    """
    headers: list[dict] = []
    records: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            if record.get("kind") == "meta":
                headers.append(record)
                continue
            if not headers:
                raise ExplorationError(
                    f"checkpoint {path} has no meta header before its "
                    "records; it is not a sweep checkpoint"
                )
            if record.get("kind") == "result":
                records.append(record)
    return headers, records


def load_ranking(paths: Sequence[str | Path] | str | Path) -> list[RankEntry]:
    """Merge checkpoint files into one ranking, bit-identical to an unsharded run.

    Accepts any number of checkpoint files (shard halves, resumed files); the
    first record wins for a repeated signature.  Only fully evaluated
    candidates rank — pruned and invalid candidates carry no score.  Files
    whose meta headers disagree on (op, arch, objective, early_termination)
    refuse to merge: their scores are incomparable, so a ranking across them
    would be meaningless (shard and backend may differ freely).
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    entries: dict[str, RankEntry] = {}
    identity: tuple | None = None
    for path in paths:
        headers, records = read_checkpoint(path)
        for header in headers:
            # early_termination is identity too: a pruned-mode shard is
            # missing candidates a full-mode shard ranks.
            this = tuple(
                header.get(k) for k in ("op", "arch", "objective", "early_termination")
            )
            if identity is None:
                identity = this
            elif this != identity:
                raise ExplorationError(
                    f"checkpoint {path} belongs to a different sweep "
                    f"(op/arch/objective/early_termination {this} vs "
                    f"{identity}); its scores are not comparable — "
                    "merge only shards of one sweep"
                )
        for record in records:
            signature = record["signature"]
            if record.get("status") == "ok" and signature not in entries:
                entries[signature] = RankEntry(
                    signature=signature,
                    name=record["name"],
                    score=float(record["score"]),
                    data=record["report"],
                )
    return sorted(entries.values(), key=lambda e: e.sort_key)


def render_ranking(entries: Iterable[RankEntry], *, top: int | None = None) -> str:
    """Stable text rendering of a ranking (the shard-merge comparison format)."""
    lines = []
    for rank, entry in enumerate(entries, start=1):
        if top is not None and rank > top:
            break
        lines.append(
            f"{rank}. {entry.name} score={entry.score!r} "
            f"latency={entry.data['latency_cycles']!r} signature={entry.signature}"
        )
    return "\n".join(lines)

"""Shared infrastructure for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.arch.spec import make_arch  # noqa: F401 - the drivers' and tests' import name
from repro.core.engine import EvaluationEngine, RelationCache
from repro.sweep.session import SweepSession
from repro.workloads.dnn import Layer
from repro.workloads.scaling import scale_layer


@dataclass
class ExperimentResult:
    """Rows reproducing one table or figure, plus free-form headline numbers."""

    name: str
    description: str
    rows: list[dict] = field(default_factory=list)
    headline: dict[str, float | str] = field(default_factory=dict)

    def add_row(self, **values) -> None:
        self.rows.append(values)

    def column(self, key: str) -> list:
        return [row.get(key) for row in self.rows]

    def filter_rows(self, **criteria) -> list[dict]:
        selected = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                selected.append(row)
        return selected

    def table(self, columns: Sequence[str] | None = None, max_rows: int | None = None) -> str:
        """Render the rows as a fixed-width text table."""
        rows = self.rows[:max_rows] if max_rows else self.rows
        if not rows:
            return f"{self.name}: (no rows)"
        if columns is None:
            columns = list(rows[0].keys())
        widths = {column: len(str(column)) for column in columns}
        rendered: list[list[str]] = []
        for row in rows:
            cells = []
            for column in columns:
                value = row.get(column, "")
                if isinstance(value, float):
                    text = f"{value:.4g}"
                else:
                    text = str(value)
                widths[column] = max(widths[column], len(text))
                cells.append(text)
            rendered.append(cells)
        header = "  ".join(str(c).ljust(widths[c]) for c in columns)
        lines = [f"== {self.name} ==", self.description, header, "-" * len(header)]
        for cells in rendered:
            lines.append("  ".join(cell.ljust(widths[column]) for cell, column in zip(cells, columns)))
        if self.headline:
            lines.append("")
            for key, value in self.headline.items():
                lines.append(f"  {key}: {value}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.table()


def average(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def percent_reduction(baseline: float, improved: float) -> float:
    """``(baseline - improved) / baseline`` in percent (0 when baseline is 0)."""
    if baseline <= 0:
        return 0.0
    return (baseline - improved) / baseline * 100.0


def scaled_layer_op(layer: Layer, max_instances: int):
    """Scale a workload layer to the enumeration budget and return (op, factor)."""
    scaled, factor = scale_layer(layer, max_instances)
    return scaled.to_op(), factor, scaled


#: Relation cache shared by every experiment driver in this process, so that
#: drivers sweeping several dataflows (or architectures) over the same
#: operation materialise its relations exactly once.
_SHARED_RELATION_CACHE = RelationCache(max_entries=8)


def make_engine(op, arch, *, backend: str = "fused", **kwargs) -> EvaluationEngine:
    """Build an :class:`EvaluationEngine` wired to the shared relation cache."""
    kwargs.setdefault("cache", _SHARED_RELATION_CACHE)
    return EvaluationEngine(op, arch, backend=backend, **kwargs)


def make_session(
    op,
    arch,
    *,
    objective="latency",
    backend: str = "fused",
    session_kwargs: Mapping | None = None,
    **engine_kwargs,
) -> SweepSession:
    """A :class:`SweepSession` on a shared-cache engine — the experiment
    drivers' one way to sweep candidates."""
    engine = make_engine(op, arch, backend=backend, **engine_kwargs)
    return SweepSession(engine, objective=objective, **dict(session_kwargs or {}))

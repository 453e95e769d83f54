"""Per-PE register-file state for the reference simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

Element = tuple[str, tuple[int, ...]]


@dataclass
class PERegisterFile:
    """The operands a PE holds at the end of a time-step.

    The default policy mirrors the analytical model's adjacency assumption: a
    PE retains everything it touched during the previous time-step.  An
    optional capacity (in words) models a finite register file; when the
    working set exceeds it, the overflow is dropped and must be re-fetched,
    which is one source of divergence between the simulator and the analytical
    model.
    """

    capacity_words: int | None = None
    current: set[Element] = field(default_factory=set)
    previous: set[Element] = field(default_factory=set)

    def holds(self, element: Element) -> bool:
        """True when the element survived from the previous time-step."""
        return element in self.previous

    def touch(self, element: Element) -> None:
        """Record that the PE used this element during the current time-step."""
        self.current.add(element)

    def advance(self) -> int:
        """Finish the time-step; returns how many words were dropped for capacity."""
        dropped = 0
        retained = self.current
        if self.capacity_words is not None and len(retained) > self.capacity_words:
            dropped = len(retained) - self.capacity_words
            retained = set(list(retained)[: self.capacity_words])
        self.previous = retained
        self.current = set()
        return dropped

"""Per-PE register-file state for the reference simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

Element = tuple[str, tuple[int, ...]]


@dataclass
class PERegisterFile:
    """The operands a PE holds at the end of a time-step.

    The policy mirrors the analytical model's adjacency assumption: a PE
    retains everything it touched during the previous time-step, and nothing
    older.
    """

    current: set[Element] = field(default_factory=set)
    previous: set[Element] = field(default_factory=set)

    def holds(self, element: Element) -> bool:
        """True when the element survived from the previous time-step."""
        return element in self.previous

    def touch(self, element: Element) -> None:
        """Record that the PE used this element during the current time-step."""
        self.current.add(element)

    def advance(self) -> None:
        """Finish the time-step: what it touched is held through the next."""
        self.previous = self.current
        self.current = set()

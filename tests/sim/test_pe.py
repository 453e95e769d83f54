"""Tests for the simulator's per-PE register file."""

from repro.sim import PERegisterFile

A0 = ("A", (0, 0))
A1 = ("A", (0, 1))
B0 = ("B", (0, 0))


class TestPERegisterFile:
    def test_touched_element_is_held_only_after_advance(self):
        registers = PERegisterFile()
        registers.touch(A0)
        assert not registers.holds(A0)
        registers.advance()
        assert registers.holds(A0)

    def test_holds_only_the_previous_step(self):
        # Adjacency assumption: an operand survives exactly one time-step.
        registers = PERegisterFile()
        registers.touch(A0)
        registers.advance()
        registers.touch(B0)
        registers.advance()
        assert registers.holds(B0)
        assert not registers.holds(A0)

    def test_unbounded_register_file_drops_nothing(self):
        registers = PERegisterFile()
        for element in (A0, A1, B0):
            registers.touch(element)
        registers.advance()
        assert registers.previous == {A0, A1, B0}

    def test_advance_starts_an_empty_step(self):
        registers = PERegisterFile()
        registers.touch(A0)
        registers.advance()
        assert registers.current == set()
        registers.advance()
        assert not registers.holds(A0)

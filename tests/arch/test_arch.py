"""Unit tests for PE arrays, memory, energy and architecture specs."""

import pytest

from repro.arch import (
    ArchSpec,
    EnergyTable,
    MemoryHierarchy,
    PEArray,
    Systolic2D,
    make_interconnect,
)
from repro.arch.repository import REPOSITORY, make_architecture
from repro.errors import ArchitectureError


class TestPEArray:
    def test_size_and_rank(self):
        array = PEArray((8, 8))
        assert array.size == 64
        assert array.rank == 2
        assert array.total_macs == 64

    def test_domain_count_matches_size(self):
        array = PEArray((4, 3))
        assert array.domain().count() == 12

    def test_coords_and_linear_index_roundtrip(self):
        array = PEArray((3, 4))
        coords = list(array.coords())
        assert len(coords) == 12
        indices = [array.linear_index(c) for c in coords]
        assert indices == list(range(12))

    def test_contains(self):
        array = PEArray((2, 2))
        assert array.contains((1, 1))
        assert not array.contains((2, 0))
        assert not array.contains((0,))

    def test_invalid_dims(self):
        with pytest.raises(ArchitectureError):
            PEArray(())
        with pytest.raises(ArchitectureError):
            PEArray((0, 4))

    def test_linear_index_out_of_range(self):
        with pytest.raises(ArchitectureError):
            PEArray((2, 2)).linear_index((5, 0))


class TestMemory:
    def test_default_hierarchy(self):
        memory = MemoryHierarchy.default(scratchpad_bandwidth_bits=128, word_bits=16)
        assert memory.scratchpad_words_per_cycle == 8.0

    def test_bandwidth_override(self):
        memory = MemoryHierarchy.default().with_scratchpad_bandwidth(64)
        assert memory.scratchpad.bandwidth_bits_per_cycle == 64

    def test_invalid_word_size(self):
        with pytest.raises(ArchitectureError):
            MemoryHierarchy.default(word_bits=0)


class TestEnergy:
    def test_defaults_are_ordered(self):
        table = EnergyTable()
        assert table.dram_access_pj > table.scratchpad_access_pj > table.register_access_pj

    def test_scaling(self):
        table = EnergyTable().scaled(2.0)
        assert table.mac_pj == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ArchitectureError):
            EnergyTable(mac_pj=-1)

    def test_as_dict_keys(self):
        assert set(EnergyTable().as_dict()) == {"mac", "register", "noc_hop", "scratchpad", "dram"}


class TestArchSpec:
    def test_defaults(self):
        arch = ArchSpec()
        assert arch.num_pes == 64
        assert arch.peak_macs_per_cycle == 64

    def test_ideal_latency(self):
        arch = ArchSpec(pe_array=PEArray((4, 4)))
        assert arch.ideal_latency(1600) == 100

    def test_with_bandwidth(self):
        arch = ArchSpec().with_bandwidth(42.0)
        assert arch.scratchpad_bandwidth_bits == 42.0

    def test_with_interconnect_and_array(self):
        arch = ArchSpec().with_interconnect(make_interconnect("mesh")).with_pe_array(PEArray((2, 2)))
        assert arch.interconnect.name == "mesh"
        assert arch.num_pes == 4

    def test_describe_mentions_interconnect(self):
        assert Systolic2D().name in ArchSpec().describe()


class TestRepository:
    def test_all_entries_build(self):
        for name in REPOSITORY:
            arch = make_architecture(name)
            assert arch.num_pes > 0
            assert arch.interconnect.name

    def test_eyeriss_dimensions(self):
        arch = make_architecture("eyeriss")
        assert arch.pe_array.dims == (12, 14)

    def test_maeri_is_one_dimensional(self):
        arch = make_architecture("maeri")
        assert arch.pe_array.rank == 1
        assert arch.interconnect.time_interval == 0

    def test_unknown_architecture(self):
        with pytest.raises(KeyError):
            make_architecture("not-a-real-chip")

"""Dependence-chain profiling tests, including the thesis worked example.

Thesis §3.3 computes AP = 2.18, ABP = 2.56, CP = 3.44 for the 16-
instruction vector-sum loop (Example 3.1 / Fig 3.3) with an 8-entry ROB.
"""

import math

import pytest

from reference.dependences import chain_lengths_exact, chain_lengths_stepped
from repro.isa import Instruction, MacroOp
from repro.profiler.dependences import (
    ChainProfile,
    profile_dependence_chains,
)


def thesis_example_31():
    """The dynamic stream of thesis Example 3.1 (vector sum, 3 iterations).

    Registers: R0 result pointer, R1 accumulator, R2 index, R3 element.
    """
    a = Instruction(pc=0x00, op=MacroOp.MOVE, dst=0)
    b = Instruction(pc=0x04, op=MacroOp.MOVE, dst=1)
    c = Instruction(pc=0x08, op=MacroOp.MOVE, dst=2)
    body = []
    for i in range(3):
        body.extend([
            Instruction(pc=0x0c, op=MacroOp.LOAD, dst=3, src1=2,
                        addr=0xF0 + 4 * i),
            Instruction(pc=0x10, op=MacroOp.INT_ALU, dst=1, src1=1, src2=3),
            Instruction(pc=0x14, op=MacroOp.INT_ALU, dst=2, src1=2),
            Instruction(pc=0x18, op=MacroOp.BRANCH, src1=2,
                        taken=(i < 2)),
        ])
    h = Instruction(pc=0x1c, op=MacroOp.STORE, src1=1, src2=0, addr=0xFC)
    return [a, b, c] + body + [h]


class TestThesisWorkedExample:
    def test_ap_matches_thesis(self):
        stats = chain_lengths_exact(thesis_example_31(), 8)
        assert stats.ap == pytest.approx(2.18, abs=0.01)

    def test_abp_matches_thesis(self):
        stats = chain_lengths_exact(thesis_example_31(), 8)
        assert stats.abp == pytest.approx(2.56, abs=0.01)

    def test_cp_matches_thesis(self):
        stats = chain_lengths_exact(thesis_example_31(), 8)
        assert stats.cp == pytest.approx(3.44, abs=0.01)

    def test_first_window_ap_is_two(self):
        # Thesis Eq 3.2: the first 8-instruction window has AP = 16/8 = 2.
        stats = chain_lengths_exact(thesis_example_31()[:8], 8)
        assert stats.ap == pytest.approx(2.0)
        assert stats.cp == pytest.approx(3.0)
        assert stats.abp == pytest.approx(3.0)


class TestChainAlgorithms:
    def test_independent_instructions_have_depth_one(self):
        stream = [
            Instruction(pc=4 * i, op=MacroOp.INT_ALU, dst=i)
            for i in range(8)
        ]
        stats = chain_lengths_exact(stream, 8)
        assert stats.ap == pytest.approx(1.0)
        assert stats.cp == pytest.approx(1.0)

    def test_serial_chain_has_cp_equal_to_window(self):
        stream = [
            Instruction(pc=4 * i, op=MacroOp.INT_ALU, dst=1, src1=1)
            for i in range(8)
        ]
        stats = chain_lengths_exact(stream, 8)
        assert stats.cp == pytest.approx(8.0)

    def test_stepped_matches_exact_on_uniform_streams(self):
        stream = [
            Instruction(pc=4 * i, op=MacroOp.INT_ALU, dst=1, src1=1)
            for i in range(64)
        ]
        exact = chain_lengths_exact(stream, 16)
        stepped = chain_lengths_stepped(stream, 16)
        assert stepped.cp == pytest.approx(exact.cp, rel=0.05)
        assert stepped.ap == pytest.approx(exact.ap, rel=0.10)

    def test_empty_stream(self):
        stats = chain_lengths_exact([], 8)
        assert stats.ap == 0.0 and stats.cp == 0.0

    def test_window_larger_than_stream(self):
        stream = [Instruction(pc=0, op=MacroOp.INT_ALU, dst=1)]
        stats = chain_lengths_exact(stream, 128)
        assert stats.ap == pytest.approx(1.0)

    def test_abp_zero_without_branches(self):
        stream = [
            Instruction(pc=4 * i, op=MacroOp.INT_ALU, dst=i)
            for i in range(8)
        ]
        assert chain_lengths_exact(stream, 4).abp == 0.0


class TestChainProfileInterpolation:
    def test_exact_grid_points_returned_verbatim(self):
        profile = ChainProfile(values={16: 2.0, 32: 3.0, 64: 4.0})
        assert profile.at(32) == 3.0

    def test_log_interpolation_between_points(self):
        # Values generated by v = 1 + log2(rob): interpolation must land
        # on the same curve.
        profile = ChainProfile(values={
            16: 1 + math.log2(16), 64: 1 + math.log2(64)
        })
        expected = 1 + math.log2(32)
        assert profile.at(32) == pytest.approx(expected, rel=0.01)

    def test_extrapolation_below_grid(self):
        profile = ChainProfile(values={16: 2.0, 32: 2.5})
        below = profile.at(8)
        assert 0.0 <= below <= 2.0

    def test_extrapolation_above_grid(self):
        profile = ChainProfile(values={128: 5.0, 256: 6.0})
        above = profile.at(512)
        assert above >= 6.0

    def test_empty_profile_defaults_to_one(self):
        assert ChainProfile().at(128) == 1.0

    def test_interpolation_error_on_real_workload_curve(self, gcc_trace):
        # Thesis §5.2: fitting between profiled sizes reproduces skipped
        # sizes within ~1%.
        instructions = gcc_trace.instructions[:4000]
        full = profile_dependence_chains(
            instructions, grid=tuple(range(16, 257, 16))
        )
        sparse = profile_dependence_chains(
            instructions, grid=tuple(range(16, 257, 32))
        )
        for rob in range(32, 257, 32):
            reference = full.cp.at(rob)
            if reference > 0:
                interpolated = sparse.cp.at(rob)
                assert interpolated == pytest.approx(reference, rel=0.15)


class TestProfileDependenceChains:
    def test_grid_is_respected(self):
        stream = [
            Instruction(pc=4 * i, op=MacroOp.INT_ALU, dst=1, src1=1)
            for i in range(100)
        ]
        chains = profile_dependence_chains(stream, grid=(16, 32))
        assert set(chains.cp.values) == {16, 32}

    def test_cp_monotone_in_window_size(self):
        stream = [
            Instruction(pc=4 * i, op=MacroOp.INT_ALU, dst=1, src1=1)
            for i in range(512)
        ]
        chains = profile_dependence_chains(stream, grid=(16, 64, 256))
        assert chains.cp.values[16] <= chains.cp.values[64]
        assert chains.cp.values[64] <= chains.cp.values[256]

    def test_sliding_windows_are_not_a_mode(self):
        stream = [Instruction(pc=0, op=MacroOp.INT_ALU, dst=1)]
        with pytest.raises(TypeError):
            profile_dependence_chains(stream, exact=True)

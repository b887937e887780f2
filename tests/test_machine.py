"""Unit tests for the BSP machine model and its NUMA extension."""

import numpy as np
import pytest

from repro.model.machine import BspMachine, MachineValidationError


class TestUniformMachine:
    def test_default_numa_matrix(self):
        m = BspMachine(P=3, g=2, l=5)
        assert m.is_uniform
        assert m.coefficient(0, 0) == 0.0
        assert m.coefficient(0, 1) == 1.0
        assert m.numa.shape == (3, 3)

    def test_uniform_constructor(self):
        m = BspMachine.uniform(4, g=3, l=7)
        assert m.P == 4 and m.g == 3 and m.l == 7
        assert m.is_uniform

    def test_single_processor(self):
        m = BspMachine(P=1)
        assert m.average_coefficient() == 0.0
        assert m.is_uniform

    def test_invalid_parameters(self):
        with pytest.raises(MachineValidationError):
            BspMachine(P=0)
        with pytest.raises(MachineValidationError):
            BspMachine(P=2, g=-1)
        with pytest.raises(MachineValidationError):
            BspMachine(P=2, l=-0.5)


class TestNumaMatrixValidation:
    def test_wrong_shape_rejected(self):
        with pytest.raises(MachineValidationError):
            BspMachine(P=3, numa=np.ones((2, 2)))

    def test_nonzero_diagonal_rejected(self):
        numa = np.ones((2, 2))
        with pytest.raises(MachineValidationError):
            BspMachine(P=2, numa=numa)

    def test_negative_coefficient_rejected(self):
        numa = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(MachineValidationError):
            BspMachine(P=2, numa=numa)

    def test_explicit_uniform_matrix_detected(self):
        numa = np.ones((3, 3))
        np.fill_diagonal(numa, 0.0)
        assert BspMachine(P=3, numa=numa).is_uniform

    def test_non_uniform_detected(self):
        numa = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert not BspMachine(P=2, numa=numa).is_uniform


class TestHierarchicalMachine:
    def test_paper_example_p8_delta3(self):
        """The paper's worked example: P=8, delta=3 gives lambda 1 / 3 / 9."""
        m = BspMachine.hierarchical(P=8, delta=3)
        assert m.coefficient(0, 1) == 1.0
        assert m.coefficient(0, 2) == 3.0
        assert m.coefficient(0, 3) == 3.0
        for p in (4, 5, 6, 7):
            assert m.coefficient(0, p) == 9.0

    def test_p16_top_level_coefficient(self):
        """lambda_{1,16} = delta^(log2 P - 1) = 27 for delta=3, P=16 (paper 7.3)."""
        m = BspMachine.hierarchical(P=16, delta=3)
        assert m.coefficient(0, 15) == 27.0
        assert m.max_coefficient() == 27.0

    def test_symmetry(self):
        m = BspMachine.hierarchical(P=8, delta=2)
        assert np.allclose(m.numa, m.numa.T)

    def test_delta_one_is_uniform(self):
        m = BspMachine.hierarchical(P=4, delta=1)
        assert m.is_uniform

    def test_requires_power_of_two(self):
        with pytest.raises(MachineValidationError):
            BspMachine.hierarchical(P=6, delta=2)

    def test_requires_positive_delta(self):
        with pytest.raises(MachineValidationError):
            BspMachine.hierarchical(P=4, delta=0)

    @pytest.mark.parametrize("delta", [0.5, 1, 1.5, 2, 3, 7.3])
    @pytest.mark.parametrize("P", [2 ** k for k in range(9)])
    def test_matches_per_pair_definition(self, P, delta):
        """Every coefficient is ``delta ** (levels_crossed - 1)`` bit for bit."""
        expected = np.zeros((P, P))
        for p1 in range(P):
            for p2 in range(P):
                if p1 != p2:
                    expected[p1, p2] = delta ** ((p1 ^ p2).bit_length() - 1)
        assert np.array_equal(BspMachine.hierarchical(P=P, delta=delta).numa, expected)


class TestGroupMachine:
    def test_two_groups(self):
        m = BspMachine.from_groups([2, 2], intra=1.0, inter=5.0)
        assert m.P == 4
        assert m.coefficient(0, 1) == 1.0
        assert m.coefficient(0, 2) == 5.0
        assert m.coefficient(2, 3) == 1.0

    def test_rejects_empty_group(self):
        with pytest.raises(MachineValidationError):
            BspMachine.from_groups([2, 0])


class TestQueries:
    def test_average_coefficient_uniform(self):
        assert BspMachine(P=4).average_coefficient() == pytest.approx(1.0)

    def test_average_coefficient_hierarchical(self):
        m = BspMachine.hierarchical(P=4, delta=2)
        # Coefficients from any processor: 1 (sibling), 2, 2 -> mean 5/3.
        assert m.average_coefficient() == pytest.approx(5.0 / 3.0)

    def test_describe_mentions_kind(self):
        assert "uniform" in BspMachine(P=2).describe()
        assert "NUMA" in BspMachine.hierarchical(P=4, delta=2).describe()

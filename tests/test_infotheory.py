"""Tests for entropy, information bounds, and the detection threshold."""

import math

import numpy as np
import pytest
from scipy import optimize, stats

from pingpong_qkd.infotheory import (
    binary_entropy,
    bob_info_symmetric,
    detection_threshold,
    empirical_mutual_information,
    eve_info_bound,
    helstrom_info,
    security_margin,
)


class TestBinaryEntropy:
    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_value_at_011(self):
        assert binary_entropy(0.11) == pytest.approx(0.49999, abs=1e-4)

    def test_symmetry(self):
        for p in np.linspace(0.01, 0.49, 25):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-14)

    def test_against_scipy_oracle(self):
        for p in np.linspace(0.001, 0.999, 40):
            oracle = stats.entropy([p, 1 - p], base=2)
            assert binary_entropy(p) == pytest.approx(oracle, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestEveInfoBound:
    def test_zero_detection_zero_information(self):
        assert eve_info_bound(0.0) == 0.0

    def test_half_detection_full_bit(self):
        assert eve_info_bound(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self):
        # the attacker's optimum equals the entropy of the detection level
        for d in np.linspace(0.0, 0.5, 30):
            assert eve_info_bound(d) == pytest.approx(binary_entropy(d), abs=1e-14)

    def test_strictly_increasing_branch(self):
        assert eve_info_bound(0.1) < eve_info_bound(0.3)

    def test_rejects_above_half(self):
        with pytest.raises(ValueError):
            eve_info_bound(0.51)


class TestBobInfoSymmetric:
    def test_zero_angle_full_bit(self):
        assert bob_info_symmetric(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_pi_no_information(self):
        assert bob_info_symmetric(math.pi / 4) == pytest.approx(0.0, abs=1e-12)

    def test_balanced_point(self):
        alpha = math.asin(math.sqrt(0.11))
        assert bob_info_symmetric(alpha) == pytest.approx(0.5, abs=1e-3)

    def test_closed_form(self):
        for alpha in np.linspace(0.0, math.pi / 4, 20):
            expected = 1.0 - binary_entropy(math.sin(alpha) ** 2)
            assert bob_info_symmetric(alpha) == pytest.approx(expected, abs=1e-12)

    def test_tolerates_rounded_literal_at_boundary(self):
        assert bob_info_symmetric(0.7854) == pytest.approx(0.0, abs=1e-7)

    def test_rejects_far_out_of_range(self):
        with pytest.raises(ValueError):
            bob_info_symmetric(1.0)


class TestSecurityMargin:
    def test_zero_detection(self):
        assert security_margin(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_near_threshold(self):
        assert security_margin(0.11) == pytest.approx(0.0, abs=2e-3)

    def test_sign_on_either_side_of_threshold(self):
        d_star = detection_threshold(1e-6)
        assert security_margin(d_star - 0.01) > 0
        assert security_margin(d_star + 0.01) < 0

    def test_matches_direct_formula(self):
        for d in np.linspace(0.0, 0.5, 30):
            expected = 1.0 - 2.0 * binary_entropy(d)
            assert security_margin(d) == pytest.approx(expected, abs=1e-14)


class TestDetectionThreshold:
    def test_reproduces_published_ceiling(self):
        assert detection_threshold(1e-6) == pytest.approx(0.110028, abs=1e-6)

    def test_against_scipy_root_oracle(self):
        oracle = optimize.brentq(
            lambda d: 1.0 - 2.0 * binary_entropy(d), 0.01, 0.49, xtol=1e-14
        )
        assert detection_threshold(1e-9) == pytest.approx(oracle, abs=1e-8)

    def test_tolerance_controls_accuracy(self):
        coarse = detection_threshold(1e-3)
        fine = detection_threshold(1e-9)
        assert abs(coarse - fine) < 1e-3
        assert detection_threshold(1e-6) == detection_threshold(1e-6)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            detection_threshold(0.0)
        with pytest.raises(ValueError):
            detection_threshold(0.5)


class TestHelstromInfo:
    def test_endpoints(self):
        assert helstrom_info(0.0) == pytest.approx(0.0, abs=1e-12)
        assert helstrom_info(math.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form(self):
        for theta in np.linspace(0.0, math.pi / 2, 25):
            expected = 1.0 - binary_entropy((1.0 - math.sin(theta)) / 2.0)
            assert helstrom_info(theta) == pytest.approx(expected, abs=1e-12)

    def test_dominated_by_detection_bound(self):
        # the realizable decoder never beats the bound derived from the
        # detection probability, and matches it only at the endpoints
        for theta in np.linspace(0.0, math.pi / 2, 100):
            concrete = helstrom_info(theta)
            bound = eve_info_bound(math.sin(theta / 2) ** 2)
            assert concrete <= bound + 1e-12
            gap = bound - concrete
            at_endpoint = theta < 1e-9 or abs(theta - math.pi / 2) < 1e-9
            if at_endpoint:
                assert gap < 1e-9
            else:
                assert gap > 1e-9


class TestEmpiricalMutualInformation:
    def test_perfectly_correlated(self):
        assert empirical_mutual_information([[500, 0], [0, 500]]) == pytest.approx(1.0, abs=1e-12)

    def test_independent(self):
        counts = np.full((2, 2), 250)
        assert empirical_mutual_information(counts) == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric_channel(self):
        counts = np.array([[450, 50], [50, 450]])
        expected = 1.0 - binary_entropy(0.1)
        assert empirical_mutual_information(counts) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.5310044064107189, abs=1e-12)

    def test_nonnegative_on_random_tables(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            c = rng.integers(0, 1000, size=(2, 2))
            if c.sum() == 0:
                continue
            assert empirical_mutual_information(c) >= 0.0

    def test_nested_lists_and_arrays_agree(self):
        # run_session tallies into nested lists
        counts = [[7, 3], [2, 9]]
        assert empirical_mutual_information(counts) == empirical_mutual_information(
            np.array(counts, dtype=np.int64)
        )

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError, match="empty"):
            empirical_mutual_information(np.zeros((2, 2), dtype=int))

    def test_rejects_negative_cell(self):
        with pytest.raises(ValueError, match="negative"):
            empirical_mutual_information([[5, -1], [0, 3]])

    @pytest.mark.parametrize(
        "counts",
        [[1, 2, 3, 4], [[1, 2, 3], [4, 5, 6]], [[[1, 2], [3, 4]]], 5],
        ids=["flat", "2x3", "1x2x2", "scalar"],
    )
    def test_rejects_a_table_that_is_not_2x2(self, counts):
        with pytest.raises(ValueError, match="2x2"):
            empirical_mutual_information(counts)

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = rng.integers(1, 500, size=(2, 2))
            joint = c / c.sum()
            # I(A;B) = H(A) + H(B) - H(A,B), all in bits
            oracle = (
                stats.entropy(joint.sum(axis=1), base=2)
                + stats.entropy(joint.sum(axis=0), base=2)
                - stats.entropy(joint.ravel(), base=2)
            )
            assert empirical_mutual_information(c) == pytest.approx(max(oracle, 0.0), abs=1e-10)

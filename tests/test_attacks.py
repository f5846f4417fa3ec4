"""Tests for the eavesdropping strategies and their state machinery."""

import math

import numpy as np
import pytest

from oracles import bell_probabilities, fidelity, travel_density
from pingpong_qkd.attacks import (
    EveRecord,
    MeasureResend,
    NoEve,
    SymmetricEntangle,
    detection_probability_measurement,
    intercept_resend,
    omega_state,
    resend_state,
    return_discrimination_basis,
)
from pingpong_qkd.cli import format_strategy, parse_strategy
from pingpong_qkd.pingpong import ProtocolConfig, run_round
from pingpong_qkd.quantum_core import (
    TRAVEL,
    BellOutcome,
    apply_pauli_z,
    bell_state,
    measure_in_basis,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestStrategyTypes:
    def test_measure_resend_angle_range(self):
        MeasureResend(0.0)
        MeasureResend(math.pi / 2)
        with pytest.raises(ValueError):
            MeasureResend(2.0)
        with pytest.raises(ValueError):
            MeasureResend(-0.2)

    def test_rounded_literal_is_canonicalized(self):
        # 1.5708 overshoots pi/2 by ~4e-6; accept and snap to the boundary
        attack = MeasureResend(1.5708)
        assert attack.theta == math.pi / 2

    def test_entangle_angle_range(self):
        SymmetricEntangle(0.0)
        SymmetricEntangle(math.pi / 4)
        assert SymmetricEntangle(0.7854).alpha == math.pi / 4
        with pytest.raises(ValueError):
            SymmetricEntangle(1.0)

    def test_eve_record_defaults(self):
        record = EveRecord()
        assert record.intercept_bit is None
        assert record.guess_bit is None


class TestResendState:
    def test_theta_zero_resends_computational(self):
        np.testing.assert_allclose(resend_state(0.0, 0).amps, [1, 0], atol=1e-15)
        np.testing.assert_allclose(resend_state(0.0, 1).amps, [0, 1], atol=1e-15)

    def test_intercepted_one_is_mirror(self):
        for theta in (0.3, 1.0, math.pi / 2):
            np.testing.assert_allclose(
                resend_state(theta, 1).amps,
                resend_state(theta, 0).amps[::-1],
                atol=1e-15,
            )

    def test_theta_half_pi_states_coincide_up_to_order(self):
        s0 = resend_state(math.pi / 2, 0)
        np.testing.assert_allclose(s0.amps, [INV_SQRT2, INV_SQRT2], atol=1e-12)


class TestInterceptResend:
    def test_breaks_entanglement(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            _, after = intercept_resend(
                bell_state(BellOutcome.PSI_MINUS), 1.0, rng
            )
            # travel marginal must be pure once the eavesdropper measured
            rho = travel_density(after)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_outcome_uniform_on_entangled_input(self):
        rng = np.random.default_rng(3)
        n = 4000
        ones = 0
        for _ in range(n):
            record, _ = intercept_resend(bell_state(BellOutcome.PSI_MINUS), 0.5, rng)
            ones += record.intercept_bit
        assert abs(ones - n / 2) < 3 * math.sqrt(n * 0.25)

    def test_travel_carries_resend_state(self):
        rng = np.random.default_rng(4)
        theta = 0.8
        record, after = intercept_resend(bell_state(BellOutcome.PSI_MINUS), theta, rng)
        rho = travel_density(after)
        target = resend_state(theta, record.intercept_bit).amps
        np.testing.assert_allclose(rho, np.outer(target, target.conj()), atol=1e-12)

    def test_home_collapses_opposite(self):
        # anticorrelation of the source pair shows up in the home marginal
        rng = np.random.default_rng(5)
        for _ in range(50):
            record, after = intercept_resend(
                bell_state(BellOutcome.PSI_MINUS), 0.0, rng
            )
            probs = np.abs(after.amps) ** 2
            home = probs.reshape(2, 2).sum(axis=1)
            assert home[1 - record.intercept_bit] == pytest.approx(1.0, abs=1e-12)


class TestReturnDiscrimination:
    def test_degenerate_angle_has_no_basis(self):
        assert return_discrimination_basis(0.0, 0) is None
        assert return_discrimination_basis(0.0, 1) is None

    def test_basis_is_orthonormal(self):
        for theta in (0.4, 1.0, math.pi / 2):
            for bit in (0, 1):
                basis = return_discrimination_basis(theta, bit)
                b0, b1 = basis
                assert abs(np.vdot(b0.amps, b1.amps)) < 1e-10

    def test_achieves_helstrom_success(self):
        # decision rule must hit the optimal (1+sin theta)/2 on average
        rng = np.random.default_rng(6)
        theta = 1.1
        s_plain = resend_state(theta, 0)
        s_flipped = apply_pauli_z(s_plain, 0)
        target = (1 + math.sin(theta)) / 2
        basis = return_discrimination_basis(theta, 0)
        n = 20000
        correct = 0
        for _ in range(n):
            truth = int(rng.integers(2))
            received = s_flipped if truth else s_plain
            guess, _ = measure_in_basis(received, 0, basis, rng)
            correct += guess == truth
        sigma = math.sqrt(target * (1 - target) * n)
        assert abs(correct - target * n) < 3 * sigma

    def test_decode_at_degenerate_angle_is_coin_flip(self):
        # with no basis to measure in, the engine's guess is a fair coin
        rng = np.random.default_rng(7)
        config = ProtocolConfig(rounds=1, control_prob=0.0, eve=MeasureResend(0.0))
        n = 2000
        ones = sum(run_round(config, rng).eve.guess_bit for _ in range(n))
        assert abs(ones - n / 2) < 3 * math.sqrt(n * 0.25)


class TestOmegaState:
    def test_alpha_zero_is_source_pair(self):
        assert fidelity(omega_state(0.0), bell_state(BellOutcome.PSI_MINUS)) == pytest.approx(1.0, abs=1e-12)

    def test_amplitudes(self):
        alpha = 0.6
        s, c = math.sin(alpha), math.cos(alpha)
        np.testing.assert_allclose(
            omega_state(alpha).amps,
            np.array([s, c, -c, s]) / math.sqrt(2),
            atol=1e-15,
        )

    def test_bell_decomposition(self):
        # the substituted pair splits between the source state and one
        # orthogonal component with weight sin^2 alpha
        for alpha in (0.2, math.asin(math.sqrt(0.11)), math.pi / 4):
            probs = bell_probabilities(omega_state(alpha))
            assert probs[BellOutcome.PSI_MINUS] == pytest.approx(
                math.cos(alpha) ** 2, abs=1e-12
            )
            assert probs[BellOutcome.PHI_PLUS] == pytest.approx(
                math.sin(alpha) ** 2, abs=1e-12
            )
            assert probs[BellOutcome.PSI_PLUS] == pytest.approx(0.0, abs=1e-12)
            assert probs[BellOutcome.PHI_MINUS] == pytest.approx(0.0, abs=1e-12)

    def test_encoding_swaps_outcome_pattern(self):
        for alpha in (0.2, 0.5, math.pi / 4):
            probs = bell_probabilities(apply_pauli_z(omega_state(alpha), TRAVEL))
            assert probs[BellOutcome.PSI_PLUS] == pytest.approx(
                math.cos(alpha) ** 2, abs=1e-12
            )
            assert probs[BellOutcome.PHI_MINUS] == pytest.approx(
                math.sin(alpha) ** 2, abs=1e-12
            )

    def test_encoding_zero_is_identity(self):
        # unencoded rounds of a session only show the substituted pair's
        # own pattern; encoded rounds only show the swapped one
        rng = np.random.default_rng(8)
        config = ProtocolConfig(rounds=1, control_prob=0.0, eve=SymmetricEntangle(0.3))
        patterns = {
            0: {BellOutcome.PSI_MINUS, BellOutcome.PHI_PLUS},
            1: {BellOutcome.PSI_PLUS, BellOutcome.PHI_MINUS},
        }
        seen = {0: set(), 1: set()}
        for _ in range(400):
            outcome = run_round(config, rng)
            seen[outcome.alice_bit].add(outcome.bob_bell)
        assert seen == patterns

    def test_encoding_matches_explicit_phase_flip(self):
        # the phase flip carries cos|psi-> + sin|phi+> to the orthogonal
        # -cos|psi+> + sin|phi->
        alpha = 0.7
        flipped = apply_pauli_z(omega_state(alpha), TRAVEL)
        expected = (
            -math.cos(alpha) * bell_state(BellOutcome.PSI_PLUS).amps
            + math.sin(alpha) * bell_state(BellOutcome.PHI_MINUS).amps
        )
        np.testing.assert_allclose(flipped.amps, expected, atol=1e-12)
        assert fidelity(flipped, omega_state(alpha)) == pytest.approx(0.0, abs=1e-12)


class TestDetectionFormulas:
    def test_measurement_detection_curve(self):
        assert detection_probability_measurement(0.0) == 0.0
        assert detection_probability_measurement(math.pi / 2) == pytest.approx(0.5, abs=1e-12)
        for theta in np.linspace(0.0, math.pi, 20):
            assert detection_probability_measurement(theta) == pytest.approx(
                math.sin(theta / 2) ** 2, abs=1e-12
            )

    def test_measurement_detection_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            detection_probability_measurement(3.5)


class TestStrategyGrammar:
    def test_parse_none(self):
        assert isinstance(parse_strategy("none"), NoEve)

    def test_parse_measure(self):
        attack = parse_strategy("measure:theta=0.7")
        assert isinstance(attack, MeasureResend)
        assert attack.theta == pytest.approx(0.7)

    def test_parse_entangle(self):
        attack = parse_strategy("entangle:alpha=0.3398")
        assert isinstance(attack, SymmetricEntangle)
        assert attack.alpha == pytest.approx(0.3398)

    def test_ancilla_is_not_a_spec(self):
        with pytest.raises(ValueError, match="unrecognized attack spec"):
            parse_strategy("ancilla:beta2=0.25")

    def test_round_trip_through_format(self):
        specs = ["none", "measure:theta=0.7", "entangle:alpha=0.25"]
        for text in specs:
            attack = parse_strategy(text)
            again = parse_strategy(format_strategy(attack))
            assert type(again) is type(attack)

    def test_rounded_boundary_literal_accepted(self):
        attack = parse_strategy("measure:theta=1.5708")
        assert attack.theta == math.pi / 2

    def test_errors_name_the_bad_token(self):
        with pytest.raises(ValueError, match="bogus"):
            parse_strategy("bogus")
        with pytest.raises(ValueError, match="phi"):
            parse_strategy("measure:phi=1")
        with pytest.raises(ValueError, match="abc"):
            parse_strategy("measure:theta=abc")

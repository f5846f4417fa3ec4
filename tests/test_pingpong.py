"""Tests for the ping-pong protocol rounds, sessions, and theory rates."""

import math

import numpy as np
import pytest

from pingpong_qkd.attacks import (
    MeasureResend,
    NoEve,
    SymmetricEntangle,
)
from pingpong_qkd.pingpong import (
    DECODE_MAP,
    Mode,
    ProtocolConfig,
    SessionReport,
    TheoryRates,
    expected_report,
    run_round,
    run_session,
)
from pingpong_qkd.quantum_core import (
    BellOutcome,
    BitFlip,
    Depolarizing,
    NoNoise,
    PhaseFlip,
)


def binomial_within_3_sigma(observed_rate, expected, n):
    sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
    return abs(observed_rate - expected) <= 3 * sigma + 1e-9


class TestDecodeMap:
    def test_source_state_decodes_to_zero(self):
        assert DECODE_MAP[BellOutcome.PSI_MINUS] == 0
        assert DECODE_MAP[BellOutcome.PHI_MINUS] == 0

    def test_phase_flipped_states_decode_to_one(self):
        assert DECODE_MAP[BellOutcome.PSI_PLUS] == 1
        assert DECODE_MAP[BellOutcome.PHI_PLUS] == 1


class TestProtocolConfig:
    def test_defaults(self):
        config = ProtocolConfig(rounds=10)
        assert isinstance(config.eve, NoEve)
        assert isinstance(config.noise, NoNoise)
        assert config.control_prob == 0.5
        assert config.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(rounds=0)
        with pytest.raises(ValueError):
            ProtocolConfig(rounds=10, control_prob=1.5)
        with pytest.raises(ValueError):
            ProtocolConfig(rounds=10, seed=-1)

    def test_rejects_non_strategy_eve_and_non_model_noise(self):
        # a spec string is not a strategy, and the unions do not mix
        with pytest.raises(TypeError, match="EveStrategy"):
            ProtocolConfig(rounds=2000, eve="measure:theta=1.57")
        with pytest.raises(TypeError, match="EveStrategy"):
            ProtocolConfig(rounds=10, eve=BitFlip(0.1))
        with pytest.raises(TypeError, match="NoiseModel"):
            ProtocolConfig(rounds=10, noise=0.05)
        with pytest.raises(TypeError, match="NoiseModel"):
            ProtocolConfig(rounds=10, noise=MeasureResend(1.0))


class TestRunRound:
    def test_clean_control_round_never_coincides(self):
        rng = np.random.default_rng(1)
        config = ProtocolConfig(rounds=1, control_prob=1.0)
        for _ in range(100):
            outcome = run_round(config, rng)
            assert outcome.mode is Mode.CONTROL
            assert outcome.coincidence is False
            assert outcome.alice_bit is None
            assert outcome.bob_bell is None

    def test_clean_message_round_decodes_faithfully(self):
        rng = np.random.default_rng(2)
        config = ProtocolConfig(rounds=1, control_prob=0.0)
        for _ in range(100):
            outcome = run_round(config, rng)
            assert outcome.mode is Mode.MESSAGE
            assert outcome.bob_decoded == outcome.alice_bit
            expected_bell = (
                BellOutcome.PSI_PLUS if outcome.alice_bit else BellOutcome.PSI_MINUS
            )
            assert outcome.bob_bell is expected_bell

    def test_no_eve_leaves_record_empty(self):
        rng = np.random.default_rng(3)
        outcome = run_round(ProtocolConfig(rounds=1, control_prob=0.0), rng)
        assert outcome.eve.intercept_bit is None
        assert outcome.eve.guess_bit is None

    def test_interceptor_records_both_bits(self):
        rng = np.random.default_rng(4)
        config = ProtocolConfig(
            rounds=1, control_prob=0.0, eve=MeasureResend(math.pi / 2)
        )
        outcome = run_round(config, rng)
        assert outcome.eve.intercept_bit in (0, 1)
        assert outcome.eve.guess_bit in (0, 1)

    def test_orthogonal_interception_reads_perfectly(self):
        # at theta = pi/2 the two resent states differ by an orthogonal
        # flip, so the return-leg discrimination never errs
        rng = np.random.default_rng(5)
        config = ProtocolConfig(
            rounds=1, control_prob=0.0, eve=MeasureResend(math.pi / 2)
        )
        for _ in range(300):
            outcome = run_round(config, rng)
            assert outcome.eve.guess_bit == outcome.alice_bit


class TestExpectedReport:
    def test_clean_channel(self):
        rates = expected_report(ProtocolConfig(rounds=1))
        assert rates == TheoryRates(0.0, 0.0)

    def test_bit_flip_noise(self):
        rates = expected_report(ProtocolConfig(rounds=1, noise=BitFlip(0.2)))
        assert rates.detection_rate == pytest.approx(0.2)
        assert rates.bob_error_rate == pytest.approx(0.0)

    def test_phase_flip_noise(self):
        # one flip per leg, two legs: an error needs an odd flip count
        rates = expected_report(ProtocolConfig(rounds=1, noise=PhaseFlip(0.15)))
        assert rates.detection_rate == pytest.approx(0.0)
        assert rates.bob_error_rate == pytest.approx(2 * 0.15 * 0.85)

    def test_depolarizing_noise(self):
        p = 0.3
        rates = expected_report(ProtocolConfig(rounds=1, noise=Depolarizing(p)))
        leg = 2 * p / 3
        assert rates.detection_rate == pytest.approx(leg)
        assert rates.bob_error_rate == pytest.approx(2 * leg * (1 - leg))

    def test_interception_rates(self):
        theta = math.pi / 3
        rates = expected_report(
            ProtocolConfig(rounds=1, eve=MeasureResend(theta))
        )
        assert rates.detection_rate == pytest.approx(math.sin(theta / 2) ** 2)
        assert rates.bob_error_rate == pytest.approx(0.5)

    def test_entangling_rates(self):
        alpha = 0.3398
        rates = expected_report(
            ProtocolConfig(rounds=1, eve=SymmetricEntangle(alpha))
        )
        assert rates.detection_rate == pytest.approx(math.sin(alpha) ** 2)
        assert rates.bob_error_rate == pytest.approx(math.sin(alpha) ** 2)

    def test_attack_plus_noise_has_no_closed_form(self):
        config = ProtocolConfig(
            rounds=1, eve=MeasureResend(0.5), noise=BitFlip(0.1)
        )
        assert expected_report(config) is None


class TestRunSession:
    def test_deterministic_given_seed(self):
        config = ProtocolConfig(
            rounds=2000, eve=MeasureResend(1.0), noise=NoNoise(), seed=42
        )
        assert run_session(config) == run_session(config)

    def test_different_seeds_differ(self):
        a = run_session(ProtocolConfig(rounds=2000, eve=MeasureResend(1.0), seed=1))
        b = run_session(ProtocolConfig(rounds=2000, eve=MeasureResend(1.0), seed=2))
        assert a != b

    def test_round_accounting(self):
        report = run_session(ProtocolConfig(rounds=5000, seed=9))
        assert report.n_control + report.n_message == 5000
        assert 0 < report.n_control < 5000

    def test_clean_channel_report(self):
        report = run_session(ProtocolConfig(rounds=20000, seed=3))
        assert report.detection_rate == 0.0
        assert report.bob_error_rate == 0.0
        assert report.eve_accuracy is None
        assert report.i_ae_hat is None
        # plug-in estimate is capped by the empirical marginal entropy,
        # so exact 1.0 needs an exactly balanced sample; near-1 is the
        # honest expectation
        assert report.i_ab_hat >= 0.999

    def test_control_only_session(self):
        report = run_session(ProtocolConfig(rounds=500, control_prob=1.0, seed=4))
        assert report.n_message == 0
        assert report.i_ab_hat is None
        assert report.bob_error_rate is None

    def test_message_only_session(self):
        report = run_session(ProtocolConfig(rounds=500, control_prob=0.0, seed=5))
        assert report.n_control == 0
        assert report.detection_rate is None

    def test_theory_attached(self):
        report = run_session(
            ProtocolConfig(rounds=100, eve=SymmetricEntangle(0.2), seed=6)
        )
        assert report.theory == expected_report(
            ProtocolConfig(rounds=100, eve=SymmetricEntangle(0.2), seed=6)
        )

    def test_report_is_frozen(self):
        report = run_session(ProtocolConfig(rounds=10, seed=0))
        assert isinstance(report, SessionReport)
        with pytest.raises(AttributeError):
            report.n_control = 0


class TestMonteCarloAgainstTheory:
    def test_bit_flip_detection(self):
        config = ProtocolConfig(rounds=20000, noise=BitFlip(0.2), seed=11)
        report = run_session(config)
        assert binomial_within_3_sigma(report.detection_rate, 0.2, report.n_control)
        assert report.bob_error_rate == 0.0

    def test_phase_flip_error_rate(self):
        config = ProtocolConfig(rounds=20000, noise=PhaseFlip(0.15), seed=12)
        report = run_session(config)
        assert report.detection_rate == 0.0
        assert binomial_within_3_sigma(
            report.bob_error_rate, 2 * 0.15 * 0.85, report.n_message
        )

    def test_depolarizing_rates(self):
        config = ProtocolConfig(rounds=30000, noise=Depolarizing(0.3), seed=13)
        report = run_session(config)
        theory = report.theory
        assert binomial_within_3_sigma(
            report.detection_rate, theory.detection_rate, report.n_control
        )
        assert binomial_within_3_sigma(
            report.bob_error_rate, theory.bob_error_rate, report.n_message
        )

    def test_interception_rates(self):
        config = ProtocolConfig(
            rounds=20000, eve=MeasureResend(math.pi / 3), seed=14
        )
        report = run_session(config)
        assert binomial_within_3_sigma(report.detection_rate, 0.25, report.n_control)
        assert binomial_within_3_sigma(report.bob_error_rate, 0.5, report.n_message)

    def test_entangling_rates(self):
        alpha = 0.5
        d = math.sin(alpha) ** 2
        config = ProtocolConfig(
            rounds=20000, eve=SymmetricEntangle(alpha), seed=15
        )
        report = run_session(config)
        assert binomial_within_3_sigma(report.detection_rate, d, report.n_control)
        assert binomial_within_3_sigma(report.bob_error_rate, d, report.n_message)

    def test_entangling_leaves_no_eve_guess(self):
        report = run_session(
            ProtocolConfig(rounds=1000, eve=SymmetricEntangle(0.3), seed=16)
        )
        assert report.eve_accuracy is None
        assert report.i_ae_hat is None

"""Unit and oracle tests for the statevector core."""

import numpy as np
import pytest

from oracles import bell_probabilities, fidelity, travel_density
from pingpong_qkd.attacks import NoEve
from pingpong_qkd.pingpong import DECODE_MAP, return_stage, send_stage
from pingpong_qkd.quantum_core import (
    HOME,
    PAULI_I,
    PAULI_Z,
    TRAVEL,
    BellOutcome,
    BELL_ORDER,
    BitFlip,
    Depolarizing,
    NoNoise,
    PhaseFlip,
    PureState,
    _bell_weights,
    apply_noise,
    apply_pauli_x,
    apply_pauli_y,
    apply_pauli_pairs,
    apply_pauli_z,
    apply_paulis,
    bell_measure,
    bell_sample_rows,
    bell_state,
    discrimination_basis,
    measure_computational,
    measure_in_basis,
    measure_rows,
    measure_rows_both,
    measure_rows_in_basis,
    noise_paulis,
    prepare_polarized,
    product_state,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# the decoded bit of each Bell outcome, by index in BELL_ORDER
DECODE_BITS = np.array([DECODE_MAP[kind] for kind in BELL_ORDER])

# Bell kets written out independently of the implementation, used as the
# brute-force change-of-basis oracle
ORACLE_BELL_KETS = {
    BellOutcome.PSI_MINUS: np.array([0, INV_SQRT2, -INV_SQRT2, 0], dtype=complex),
    BellOutcome.PSI_PLUS: np.array([0, INV_SQRT2, INV_SQRT2, 0], dtype=complex),
    BellOutcome.PHI_PLUS: np.array([INV_SQRT2, 0, 0, INV_SQRT2], dtype=complex),
    BellOutcome.PHI_MINUS: np.array([INV_SQRT2, 0, 0, -INV_SQRT2], dtype=complex),
}


def random_state(rng, n_qubits=2):
    raw = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return PureState(raw / np.linalg.norm(raw))


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState([1.0, 1.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            PureState([1.0, 0.0, 0.0])

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError):
            PureState([np.nan, 0.0])

    def test_rejects_oversized_register(self):
        amps = np.zeros(1 << 13)
        amps[0] = 1.0
        with pytest.raises(ValueError):
            PureState(amps)

    def test_amplitudes_are_read_only(self):
        state = PureState([1.0, 0.0])
        with pytest.raises(ValueError):
            state.amps[0] = 0.5

    def test_accepts_any_global_phase(self):
        state = PureState(np.exp(1j * 0.37) * np.array([INV_SQRT2, INV_SQRT2]))
        assert state.n_qubits == 1


class TestBellStates:
    def test_psi_minus_amplitudes(self):
        np.testing.assert_allclose(
            bell_state(BellOutcome.PSI_MINUS).amps,
            [0, INV_SQRT2, -INV_SQRT2, 0],
            atol=1e-15,
        )

    def test_phi_plus_amplitudes(self):
        np.testing.assert_allclose(
            bell_state(BellOutcome.PHI_PLUS).amps,
            [INV_SQRT2, 0, 0, INV_SQRT2],
            atol=1e-15,
        )

    def test_orthonormality(self):
        for a in BELL_ORDER:
            for b in BELL_ORDER:
                overlap = np.vdot(bell_state(a).amps, bell_state(b).amps)
                assert overlap == pytest.approx(1.0 if a is b else 0.0, abs=1e-14)

    def test_reduced_travel_is_maximally_mixed(self):
        for kind in BELL_ORDER:
            rho = travel_density(bell_state(kind))
            np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


class TestPreparePolarized:
    def test_theta_zero_is_ket_zero(self):
        np.testing.assert_allclose(prepare_polarized(0.0).amps, [1, 0], atol=1e-15)

    def test_theta_pi_is_ket_one(self):
        np.testing.assert_allclose(prepare_polarized(np.pi).amps, [0, 1], atol=1e-12)

    def test_theta_half_pi_is_plus(self):
        np.testing.assert_allclose(
            prepare_polarized(np.pi / 2).amps, [INV_SQRT2, INV_SQRT2], atol=1e-12
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            prepare_polarized(3.5)


class TestPauliOperations:
    def test_z_fixes_zero(self):
        zero = PureState([1.0, 0.0])
        np.testing.assert_allclose(apply_pauli_z(zero, 0).amps, [1, 0])

    def test_z_turns_plus_into_minus(self):
        plus = PureState([INV_SQRT2, INV_SQRT2])
        np.testing.assert_allclose(
            apply_pauli_z(plus, 0).amps, [INV_SQRT2, -INV_SQRT2], atol=1e-15
        )

    def test_z_involution_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            state = random_state(rng)
            twice = apply_pauli_z(apply_pauli_z(state, TRAVEL), TRAVEL)
            np.testing.assert_allclose(twice.amps, state.amps, atol=1e-14)

    def test_x_and_y_involutions(self):
        rng = np.random.default_rng(12)
        state = random_state(rng)
        np.testing.assert_allclose(
            apply_pauli_x(apply_pauli_x(state, HOME), HOME).amps, state.amps, atol=1e-14
        )
        np.testing.assert_allclose(
            apply_pauli_y(apply_pauli_y(state, HOME), HOME).amps, state.amps, atol=1e-14
        )

    def test_z_on_travel_maps_psi_minus_to_psi_plus(self):
        flipped = apply_pauli_z(bell_state(BellOutcome.PSI_MINUS), TRAVEL)
        assert fidelity(flipped, bell_state(BellOutcome.PSI_PLUS)) == pytest.approx(1.0)

    def test_x_on_travel_maps_psi_minus_to_phi_minus(self):
        # hand expansion: X on the second qubit sends (|01>-|10>)/sqrt2
        # to (|00>-|11>)/sqrt2
        flipped = apply_pauli_x(bell_state(BellOutcome.PSI_MINUS), TRAVEL)
        probs = bell_probabilities(flipped)
        assert probs[BellOutcome.PHI_MINUS] == pytest.approx(1.0, abs=1e-12)

    def test_y_on_travel_maps_psi_minus_to_phi_plus(self):
        flipped = apply_pauli_y(bell_state(BellOutcome.PSI_MINUS), TRAVEL)
        probs = bell_probabilities(flipped)
        assert probs[BellOutcome.PHI_PLUS] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_qubit_index(self):
        with pytest.raises(ValueError):
            apply_pauli_x(bell_state(BellOutcome.PSI_MINUS), 2)

    def test_single_qubit_y_phases(self):
        # Y|0> = i|1>, Y|1> = -i|0>
        np.testing.assert_allclose(apply_pauli_y(PureState([1, 0]), 0).amps, [0, 1j])
        np.testing.assert_allclose(apply_pauli_y(PureState([0, 1]), 0).amps, [-1j, 0])


class TestMeasureComputational:
    def test_deterministic_on_basis_state(self):
        rng = np.random.default_rng(0)
        zero = PureState([1.0, 0.0])
        for _ in range(10):
            bit, post = measure_computational(zero, 0, rng)
            assert bit == 0
            np.testing.assert_allclose(post.amps, zero.amps)

    def test_psi_minus_anticorrelated(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            travel_bit, collapsed = measure_computational(
                bell_state(BellOutcome.PSI_MINUS), TRAVEL, rng
            )
            home_bit, _ = measure_computational(collapsed, HOME, rng)
            assert home_bit == 1 - travel_bit

    def test_collapse_of_home_after_travel_zero(self):
        # forcing the travel outcome by rejection keeps the test exact
        rng = np.random.default_rng(9)
        seen = False
        for _ in range(50):
            bit, collapsed = measure_computational(
                bell_state(BellOutcome.PSI_MINUS), TRAVEL, rng
            )
            if bit == 0:
                seen = True
                home_one = product_state(PureState([0.0, 1.0]), PureState([1.0, 0.0]))
                assert fidelity(collapsed, home_one) == pytest.approx(1.0, abs=1e-12)
        assert seen

    def test_plus_state_frequencies(self):
        rng = np.random.default_rng(21)
        plus = PureState([INV_SQRT2, INV_SQRT2])
        n = 20000
        ones = sum(measure_computational(plus, 0, rng)[0] for _ in range(n))
        sigma = np.sqrt(0.25 * n)
        assert abs(ones - n / 2) < 3 * sigma

    def test_collapsed_state_is_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = random_state(rng)
            _, post = measure_computational(state, int(rng.integers(2)), rng)
            assert np.sum(np.abs(post.amps) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestMeasureInBasis:
    def test_computational_basis_matches_specialized_op(self):
        basis = (PureState([1.0, 0.0]), PureState([0.0, 1.0]))
        for seed in range(10):
            state = random_state(np.random.default_rng(100 + seed))
            r1 = np.random.default_rng(seed)
            r2 = np.random.default_rng(seed)
            bit_a, post_a = measure_computational(state, TRAVEL, r1)
            bit_b, post_b = measure_in_basis(state, TRAVEL, basis, r2)
            assert bit_a == bit_b
            assert fidelity(post_a, post_b) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_orthogonal_basis(self):
        plus = PureState([INV_SQRT2, INV_SQRT2])
        with pytest.raises(ValueError):
            measure_in_basis(bell_state(BellOutcome.PSI_MINUS), 0, (plus, plus), np.random.default_rng(0))

    def test_collapse_lands_on_basis_state(self):
        rng = np.random.default_rng(17)
        plus = PureState([INV_SQRT2, INV_SQRT2])
        minus = PureState([INV_SQRT2, -INV_SQRT2])
        state = random_state(rng)
        outcome, post = measure_in_basis(state, TRAVEL, (plus, minus), rng)
        rho = travel_density(post)
        target = (plus if outcome == 0 else minus).amps
        np.testing.assert_allclose(rho, np.outer(target, target.conj()), atol=1e-12)


class TestBellProbabilities:
    def test_each_bell_state_is_an_indicator(self):
        for kind in BELL_ORDER:
            probs = bell_probabilities(bell_state(kind))
            for other, p in probs.items():
                assert p == pytest.approx(1.0 if other is kind else 0.0, abs=1e-14)

    def test_one_cross_polarized_product(self):
        # |1> (x) (cos(t/2)|0> + sin(t/2)|1>) spreads as
        # (c^2/2, c^2/2, s^2/2, s^2/2) over (psi-, psi+, phi+, phi-)
        for theta in (0.3, np.pi / 3, np.pi / 2):
            state = product_state(PureState([0.0, 1.0]), prepare_polarized(theta))
            probs = bell_probabilities(state)
            c2, s2 = np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2
            assert probs[BellOutcome.PSI_MINUS] == pytest.approx(c2 / 2, abs=1e-12)
            assert probs[BellOutcome.PSI_PLUS] == pytest.approx(c2 / 2, abs=1e-12)
            assert probs[BellOutcome.PHI_PLUS] == pytest.approx(s2 / 2, abs=1e-12)
            assert probs[BellOutcome.PHI_MINUS] == pytest.approx(s2 / 2, abs=1e-12)

    def test_against_bruteforce_overlap_oracle(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(300):
            state = random_state(rng)
            probs = bell_probabilities(state)
            for kind, ket in ORACLE_BELL_KETS.items():
                oracle = abs(np.vdot(ket, state.amps)) ** 2
                worst = max(worst, abs(probs[kind] - oracle))
        assert worst < 1e-10

    def test_sums_to_one_and_phase_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            state = random_state(rng)
            probs = bell_probabilities(state)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
            rotated = PureState(state.amps * np.exp(1j * 1.234))
            for kind, p in bell_probabilities(rotated).items():
                assert p == pytest.approx(probs[kind], abs=1e-12)


class TestBellMeasure:
    def test_deterministic_on_bell_state(self):
        rng = np.random.default_rng(0)
        for kind in BELL_ORDER:
            assert bell_measure(bell_state(kind), rng) is kind

    def test_rejects_single_qubit_state(self):
        with pytest.raises(ValueError):
            bell_measure(PureState([1.0, 0.0]), np.random.default_rng(0))

    def test_frequencies_match_probabilities(self):
        rng = np.random.default_rng(77)
        state = PureState(
            (bell_state(BellOutcome.PSI_MINUS).amps + bell_state(BellOutcome.PHI_PLUS).amps)
            / np.sqrt(2)
        )
        n = 20000
        hits = {kind: 0 for kind in BELL_ORDER}
        for _ in range(n):
            hits[bell_measure(state, rng)] += 1
        probs = bell_probabilities(state)
        for kind in BELL_ORDER:
            expected = probs[kind]
            sigma = np.sqrt(max(expected * (1 - expected), 1e-12) * n)
            assert abs(hits[kind] - expected * n) < 3 * sigma + 1


class TestReducedDensity:
    def test_product_state_is_pure(self):
        # product_state puts its second factor on the travel qubit
        plus = PureState([INV_SQRT2, INV_SQRT2])
        rho = travel_density(product_state(PureState([1.0, 0.0]), plus))
        np.testing.assert_allclose(rho, np.outer(plus.amps, plus.amps.conj()), atol=1e-12)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_partial_trace_against_einsum_oracle(self):
        # the travel marginal that measure_rows samples is the partial trace's diagonal
        rng = np.random.default_rng(15)
        for _ in range(50):
            state = random_state(rng)
            a = state.amps.reshape(2, 2)
            oracle = np.einsum("ht,hu->tu", a, a.conj())
            np.testing.assert_allclose(travel_density(state), oracle, atol=1e-12)
            p_one = oracle[1, 1].real
            u = np.array([p_one - 1e-9, p_one + 1e-9])
            ones, _ = measure_rows(np.stack([state.amps, state.amps]), TRAVEL, u)
            assert ones.tolist() == [1, 0]


class TestNoise:
    def test_no_noise_returns_state_and_draws_nothing(self):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        state = bell_state(BellOutcome.PSI_MINUS)
        assert apply_noise(state, NoNoise(), TRAVEL, rng) is state
        assert rng.bit_generator.state == before

    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(2)
        state = bell_state(BellOutcome.PSI_MINUS)
        for model in (BitFlip(0.0), PhaseFlip(0.0), Depolarizing(0.0)):
            out = apply_noise(state, model, TRAVEL, rng)
            np.testing.assert_allclose(out.amps, state.amps)

    def test_certain_bitflip_is_pauli_x(self):
        rng = np.random.default_rng(3)
        state = bell_state(BellOutcome.PSI_MINUS)
        out = apply_noise(state, BitFlip(1.0), TRAVEL, rng)
        assert fidelity(out, apply_pauli_x(state, TRAVEL)) == pytest.approx(1.0)

    def test_certain_phaseflip_is_pauli_z(self):
        rng = np.random.default_rng(4)
        state = bell_state(BellOutcome.PSI_MINUS)
        out = apply_noise(state, PhaseFlip(1.0), TRAVEL, rng)
        assert fidelity(out, apply_pauli_z(state, TRAVEL)) == pytest.approx(1.0)

    def test_depolarizing_branch_frequencies(self):
        rng = np.random.default_rng(6)
        state = bell_state(BellOutcome.PSI_MINUS)
        images = {
            "identity": state,
            "x": apply_pauli_x(state, TRAVEL),
            "y": apply_pauli_y(state, TRAVEL),
            "z": apply_pauli_z(state, TRAVEL),
        }
        p = 0.6
        n = 30000
        counts = dict.fromkeys(images, 0)
        for _ in range(n):
            out = apply_noise(state, Depolarizing(p), TRAVEL, rng)
            for name, image in images.items():
                if fidelity(out, image) > 1 - 1e-9:
                    counts[name] += 1
                    break
        expected = {"identity": 1 - p, "x": p / 3, "y": p / 3, "z": p / 3}
        for name, q in expected.items():
            sigma = np.sqrt(q * (1 - q) * n)
            assert abs(counts[name] - q * n) < 3 * sigma

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(ValueError):
            BitFlip(1.5)
        with pytest.raises(ValueError):
            Depolarizing(-0.1)


class TestHelstrom:
    def test_orthogonal_states_decided_perfectly(self):
        rng = np.random.default_rng(7)
        zero, one = PureState([1.0, 0.0]), PureState([0.0, 1.0])
        basis = discrimination_basis(zero, one)
        for _ in range(50):
            assert measure_in_basis(zero, 0, basis, rng)[0] == 0
            assert measure_in_basis(one, 0, basis, rng)[0] == 1

    def test_indistinguishable_states_have_no_basis(self):
        # identical up to a global phase, so only a coin can guess
        zero = PureState([1.0, 0.0])
        assert discrimination_basis(zero, zero) is None
        assert discrimination_basis(zero, apply_pauli_z(zero, 0)) is None

    def test_success_probability_formula(self):
        # distinguishing a polarized state from its z-flipped image:
        # overlap cos(theta), so the optimal basis succeeds with (1 + sin(theta)) / 2
        for theta in (0.2, np.pi / 3, np.pi / 2):
            s0 = prepare_polarized(theta)
            s1 = apply_pauli_z(s0, 0)
            plus, minus = discrimination_basis(s0, s1)
            success = (fidelity(plus, s0) + fidelity(minus, s1)) / 2
            assert success == pytest.approx((1 + np.sin(theta)) / 2, abs=1e-12)

    def test_empirical_success_matches_bound(self):
        rng = np.random.default_rng(9)
        theta = np.pi / 3
        s0 = prepare_polarized(theta)
        s1 = apply_pauli_z(s0, 0)
        basis = discrimination_basis(s0, s1)
        n = 20000
        correct = 0
        for _ in range(n):
            truth = int(rng.integers(2))
            received = s1 if truth else s0
            correct += measure_in_basis(received, 0, basis, rng)[0] == truth
        expected = (1 + np.sin(theta)) / 2
        sigma = np.sqrt(expected * (1 - expected) * n)
        assert abs(correct - expected * n) < 3 * sigma

    def test_measurement_collapses_to_basis_vector(self):
        rng = np.random.default_rng(10)
        s0 = prepare_polarized(0.9)
        s1 = PureState(s0.amps[::-1].copy())
        basis = discrimination_basis(s0, s1)
        guess, post = measure_in_basis(s0, 0, basis, rng)
        assert fidelity(post, basis[guess]) == pytest.approx(1.0, abs=1e-12)


class TestNormPreservation:
    def test_random_operation_chains_stay_normalized(self):
        rng = np.random.default_rng(123)
        ops = [
            lambda s, r: apply_pauli_x(s, int(r.integers(2))),
            lambda s, r: apply_pauli_y(s, int(r.integers(2))),
            lambda s, r: apply_pauli_z(s, int(r.integers(2))),
            lambda s, r: measure_computational(s, int(r.integers(2)), r)[1],
            lambda s, r: apply_noise(s, Depolarizing(0.5), int(r.integers(2)), r),
        ]
        for _ in range(30):
            state = random_state(rng)
            for _ in range(15):
                state = ops[int(rng.integers(len(ops)))](state, rng)
                assert np.sum(np.abs(state.amps) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestRowKernels:
    # each row kernel against its single-state kernel, which draws the
    # same uniforms one at a time; amplitudes agree to a few ulps
    ROWS = 300
    ATOL = 4 * np.finfo(float).eps

    def pairs(self, seed):
        rng = np.random.default_rng(seed)
        states = [random_state(rng) for _ in range(self.ROWS)]
        return states, np.array([s.amps for s in states])

    def test_apply_paulis_matches_single_paulis(self):
        states, rows = self.pairs(1)
        paulis = np.random.default_rng(2).integers(4, size=self.ROWS)
        ops = (lambda s, q: s, apply_pauli_x, apply_pauli_y, apply_pauli_z)
        for qubit in (HOME, TRAVEL):
            out = apply_paulis(rows, paulis, qubit)
            for state, g, got in zip(states, paulis, out):
                np.testing.assert_allclose(got, ops[g](state, qubit).amps, rtol=0, atol=self.ATOL)

    @pytest.mark.parametrize(
        "model",
        [BitFlip(0.3), PhaseFlip(0.3), Depolarizing(0.0), Depolarizing(0.6), Depolarizing(1.0)],
        ids=repr,
    )
    def test_noise_paulis_match_apply_noise(self, model):
        states, rows = self.pairs(3)
        out = apply_paulis(rows, noise_paulis(model, np.random.default_rng(4).random(self.ROWS)), TRAVEL)
        rng = np.random.default_rng(4)
        for state, got in zip(states, out):
            expected = apply_noise(state, model, TRAVEL, rng).amps
            np.testing.assert_allclose(got, expected, rtol=0, atol=self.ATOL)

    @pytest.mark.parametrize("qubit", [HOME, TRAVEL])
    def test_measure_rows_matches_measure_computational(self, qubit):
        states, rows = self.pairs(5)
        outcomes, collapsed = measure_rows(rows, qubit, np.random.default_rng(6).random(self.ROWS))
        rng = np.random.default_rng(6)
        for state, bit, got in zip(states, outcomes, collapsed):
            expected_bit, expected = measure_computational(state, qubit, rng)
            assert bit == expected_bit
            np.testing.assert_allclose(got, expected.amps, rtol=0, atol=self.ATOL)

    @pytest.mark.parametrize("qubit", [HOME, TRAVEL])
    def test_measure_rows_in_basis_matches_measure_in_basis(self, qubit):
        states, rows = self.pairs(7)
        basis = discrimination_basis(prepare_polarized(0.7), prepare_polarized(2.1))
        u = np.random.default_rng(8).random(self.ROWS)
        outcomes, collapsed = measure_rows_in_basis(rows, qubit, basis, u)
        rng = np.random.default_rng(8)
        for state, found, got in zip(states, outcomes, collapsed):
            expected_found, expected = measure_in_basis(state, qubit, basis, rng)
            assert found == expected_found
            np.testing.assert_allclose(got, expected.amps, rtol=0, atol=self.ATOL)

    def test_bell_sample_rows_matches_bell_measure(self):
        states, rows = self.pairs(9)
        outcomes = bell_sample_rows(rows, np.random.default_rng(10).random(self.ROWS))
        rng = np.random.default_rng(10)
        assert [BELL_ORDER[k] for k in outcomes] == [bell_measure(s, rng) for s in states]
        # both samplers compare against bitwise the same weights
        assert np.array_equal(_bell_weights(rows), [_bell_weights(s.amps) for s in states])

    def test_apply_pauli_pairs_matches_two_apply_paulis(self):
        # every phase is 1, -1, i or -i, so the one gather is exact
        _, rows = self.pairs(11)
        first, second = np.random.default_rng(12).integers(4, size=(2, self.ROWS))
        for qubit in (HOME, TRAVEL):
            expected = apply_paulis(apply_paulis(rows, first, qubit), second, qubit)
            np.testing.assert_array_equal(apply_pauli_pairs(rows, first, second, qubit), expected)

    def test_measure_rows_both_matches_measure_rows_twice(self):
        _, rows = self.pairs(13)
        u = np.random.default_rng(14).random((self.ROWS, 2))
        travel, home = measure_rows_both(rows, u)
        expected_travel, collapsed = measure_rows(rows, TRAVEL, u[:, 0])
        expected_home, _ = measure_rows(collapsed, HOME, u[:, 1])
        np.testing.assert_array_equal(travel, expected_travel)
        np.testing.assert_array_equal(home, expected_home)

    @pytest.mark.parametrize(
        "model",
        [NoNoise(), BitFlip(0.3), PhaseFlip(0.3), Depolarizing(0.6), Depolarizing(1.0)],
        ids=repr,
    )
    def test_stages_match_the_kernel_compositions(self, model):
        # send_stage gathers |psi-> under each Pauli from a table, and
        # return_stage applies the encoding Z and the noise as one gather;
        # fed the same uniforms, both match the per-Pauli compositions
        noisy = not isinstance(model, NoNoise)
        psi = np.repeat(bell_state(BellOutcome.PSI_MINUS).amps[None, :], self.ROWS, axis=0)
        u = np.random.default_rng(15).random((self.ROWS, int(noisy)))
        paulis = noise_paulis(model, u[:, 0]) if noisy else np.zeros(self.ROWS, dtype=int)
        sent, _ = send_stage(self.ROWS, NoEve(), model, np.random.default_rng(15))
        np.testing.assert_array_equal(sent, apply_paulis(psi, paulis, TRAVEL))

        _, rows = self.pairs(16)
        bits = np.random.default_rng(17).integers(2, size=self.ROWS).astype(np.uint8)
        u = np.random.default_rng(18).random((self.ROWS, int(noisy) + 1))
        encoded = apply_paulis(rows, np.where(bits == 1, PAULI_Z, PAULI_I), TRAVEL)
        if noisy:
            encoded = apply_paulis(encoded, noise_paulis(model, u[:, 0]), TRAVEL)
        expected = DECODE_BITS[bell_sample_rows(encoded, u[:, -1])]
        zeros = np.zeros(self.ROWS, dtype=int)
        got = return_stage(rows, bits, zeros, NoEve(), model, np.random.default_rng(18))
        np.testing.assert_array_equal(got, expected)

    def test_zero_probability_branch_raises(self):
        # a uniform of 1.0 selects outcome 0 of a travel qubit that is surely 1
        rows = np.array([[0.0, 1.0, 0.0, 0.0]], dtype=complex)
        with pytest.raises(RuntimeError, match="zero-probability"):
            measure_rows(rows, TRAVEL, np.array([1.0]))
        basis = (prepare_polarized(0.0), prepare_polarized(np.pi))
        with pytest.raises(RuntimeError, match="zero-probability"):
            measure_rows_in_basis(rows, TRAVEL, basis, np.array([1.0]))
        with pytest.raises(RuntimeError, match="zero-probability"):
            measure_rows_both(rows, np.array([[1.0, 0.5]]))
        # the travel qubit is surely 0 and the home qubit surely 1
        rows = np.array([[0.0, 0.0, 1.0, 0.0]], dtype=complex)
        with pytest.raises(RuntimeError, match="zero-probability"):
            measure_rows_both(rows, np.array([[0.5, 1.0]]))

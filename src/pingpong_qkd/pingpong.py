"""Round-by-round simulation of the two-way entanglement protocol.

One round: Bob prepares |psi->, keeps the home qubit and sends the
travel qubit.  With probability ``control_prob`` the round is a control
round: Alice measures the travel qubit in the computational basis, Bob
measures his home qubit, and a coincidence of results exposes an
eavesdropper (the honest pair is perfectly anticorrelated).  Otherwise
the round carries a message bit: Alice applies the phase flip for 1 or
nothing for 0 and returns the qubit, and Bob reads the bit with a Bell
measurement.

Channel noise acts once per transit leg, before the eavesdropper on the
outgoing leg and before Bob's measurement on the return leg.  The round
is built from three legs: ``send_leg``, ``control_check`` and
``return_leg``.  The coded protocol in ``css_qkd`` runs the same legs
on a whole block of pairs at once, as ``send_stage``, ``control_stage``
and ``return_stage``.  Every random draw comes from one Generator, in
this fixed order, so a run is bit-for-bit reproducible from its seed:

* ``send_leg``: outgoing noise (one uniform, none under ``NoNoise``;
  drawn under the entangling attack too, although the substitution
  discards the noisy pair), then the eavesdropper's interception.
* ``control_check``: Alice's measurement, then Bob's.
* ``return_leg``: return noise, the eavesdropper's discrimination (at
  theta = 0, where the two possible returns coincide, a fair coin
  ``rng.random() < 0.5``), then Bob's Bell measurement.

Each of these draws is one ``rng.random()`` uniform.  The other draws
are a session round's mode (a uniform) and message bit
(``rng.integers(2)``), and a coded block's labeling, string and
codeword.

A session round draws ``send_leg``, then the mode, then either
``control_check`` or the message bit and ``return_leg``.  A coded block
(``css_qkd.run_qkd_block``) first draws its position labeling, string
and codeword, then ``send_leg`` for every position in order,
``control_check`` for the control positions in ascending order, and
``return_leg`` for the message and decoy positions in ascending order.
Each stage draws those uniforms in one ``rng.random((rows, k))`` call,
k being the fixed number of draws per pair, which yields the same
doubles in the same order as rows * k single calls.

Before the stages, the theta = 0 coin was ``rng.integers(2)``, so
seeded runs under ``MeasureResend(0)`` differ from earlier versions; no
other seeded run changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attacks import (
    EveRecord,
    EveStrategy,
    MeasureResend,
    NoEve,
    SymmetricEntangle,
    detection_probability_measurement,
    intercept_resend,
    omega_state,
    resend_state,
    return_discrimination_basis,
)
from .quantum_core import (
    BELL_ORDER,
    HOME,
    PAULI_I,
    PAULI_Z,
    TRAVEL,
    BellOutcome,
    BitFlip,
    Depolarizing,
    NoiseModel,
    NoNoise,
    PhaseFlip,
    TwoQubitState,
    apply_noise,
    apply_pauli_pairs,
    apply_pauli_z,
    apply_paulis,
    bell_measure,
    bell_sample_rows,
    bell_state,
    measure_computational,
    measure_in_basis,
    measure_rows,
    measure_rows_both,
    measure_rows_in_basis,
    noise_paulis,
)
from .infotheory import JointCounts2x2, empirical_mutual_information

# Bell outcome -> message bit.  The phi outcomes only occur under attack
# or noise and are assigned to the opposite bit of their psi partner, so
# the symmetric entangling attack yields a binary symmetric channel.
DECODE_MAP: dict[BellOutcome, int] = {
    BellOutcome.PSI_MINUS: 0,
    BellOutcome.PSI_PLUS: 1,
    BellOutcome.PHI_PLUS: 1,
    BellOutcome.PHI_MINUS: 0,
}
_DECODE_BITS = np.array([DECODE_MAP[kind] for kind in BELL_ORDER], dtype=np.uint8)


# |psi-> with each Pauli applied to its travel qubit, in Pauli-index order:
# the outgoing pair as it leaves a Pauli-noise channel
_SENT = apply_paulis(
    np.repeat(bell_state(BellOutcome.PSI_MINUS).amps[None, :], 4, axis=0),
    np.arange(4),
    TRAVEL,
)
_SENT.flags.writeable = False

# the record of a round in which the eavesdropper learned nothing;
# records are frozen, so every such round shares this one
_NO_RECORD = EveRecord()


def _check_channel(eve: EveStrategy, noise: NoiseModel) -> None:
    if not isinstance(eve, EveStrategy):
        raise TypeError(f"eve must be an EveStrategy, got {eve!r}")
    if not isinstance(noise, NoiseModel):
        raise TypeError(f"noise must be a NoiseModel, got {noise!r}")


class Mode(Enum):
    CONTROL = "control"
    MESSAGE = "message"


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of a simulated session.

    ``control_prob`` is the per-round probability of a control round.
    ``seed`` feeds a fresh numpy Generator per session.  ``eve`` must be
    an ``EveStrategy`` and ``noise`` a ``NoiseModel``, else TypeError.
    """

    rounds: int
    control_prob: float = 0.5
    eve: EveStrategy = NoEve()
    noise: NoiseModel = NoNoise()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"round count must be positive, got {self.rounds!r}")
        if not 0.0 <= self.control_prob <= 1.0:
            raise ValueError(f"control probability {self.control_prob!r} outside [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        _check_channel(self.eve, self.noise)


@dataclass(frozen=True)
class RoundOutcome:
    """Everything observable from one protocol round."""

    mode: Mode
    alice_bit: int | None
    coincidence: bool | None
    bob_bell: BellOutcome | None
    bob_decoded: int | None
    eve: EveRecord


@dataclass(frozen=True)
class TheoryRates:
    """Closed-form detection and error rates for a supported config."""

    detection_rate: float
    bob_error_rate: float


@dataclass(frozen=True)
class SessionReport:
    """Aggregated Monte Carlo estimates for one session.

    ``eve_accuracy`` and ``i_ae_hat`` are None unless the strategy makes
    per-round guesses; ``detection_rate`` is None when no control rounds
    ran, and ``bob_error_rate`` and ``i_ab_hat`` when no message rounds
    ran.
    ``theory`` is None for configs without a closed form.
    """

    n_control: int
    n_coincidence: int
    detection_rate: float | None
    n_message: int
    bob_error_rate: float | None
    eve_accuracy: float | None
    i_ab_hat: float | None
    i_ae_hat: float | None
    theory: TheoryRates | None


def _noise_draws(noise: NoiseModel) -> int:
    return 0 if isinstance(noise, NoNoise) else 1


def send_leg(
    eve: EveStrategy, noise: NoiseModel, rng: np.random.Generator
) -> tuple[EveRecord, TwoQubitState]:
    """Prepare |psi->, send the travel qubit through noise and the eavesdropper.

    Returns the eavesdropper's record and the pair as it reaches Alice.
    """
    if isinstance(eve, SymmetricEntangle):
        if not isinstance(noise, NoNoise):
            rng.random()  # the noise draw; the substitution discards the noisy pair
        return _NO_RECORD, omega_state(eve.alpha)
    joint = apply_noise(bell_state(BellOutcome.PSI_MINUS), noise, TRAVEL, rng)
    if isinstance(eve, MeasureResend):
        return intercept_resend(joint, eve.theta, rng)
    return _NO_RECORD, joint


def control_check(joint: TwoQubitState, rng: np.random.Generator) -> bool:
    """Alice measures the travel qubit, then Bob the home qubit; True on a coincidence."""
    alice_result, joint = measure_computational(joint, TRAVEL, rng)
    bob_result, _ = measure_computational(joint, HOME, rng)
    return alice_result == bob_result


def return_leg(
    joint: TwoQubitState,
    bit: int,
    record: EveRecord,
    eve: EveStrategy,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> tuple[BellOutcome, EveRecord]:
    """Encode ``bit``, return the travel qubit and let Bob Bell-measure the pair.

    Returns Bob's outcome and the record completed with the
    eavesdropper's guess of ``bit``.
    """
    if bit == 1:
        joint = apply_pauli_z(joint, TRAVEL)
    joint = apply_noise(joint, noise, TRAVEL, rng)
    if isinstance(eve, MeasureResend):
        basis = return_discrimination_basis(eve.theta, record.intercept_bit)
        if basis is None:
            guess = int(rng.random() < 0.5)
        else:
            guess, joint = measure_in_basis(joint, TRAVEL, basis, rng)
        record = EveRecord(record.intercept_bit, guess)
    return bell_measure(joint, rng), record


def send_stage(
    rows: int, eve: EveStrategy, noise: NoiseModel, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``send_leg`` for ``rows`` pairs at once.

    Returns the (rows, 4) pairs as they reach Alice and the
    eavesdropper's intercept bit for each (0 where she does not
    intercept).
    """
    intercepting = isinstance(eve, MeasureResend)
    u = rng.random((rows, _noise_draws(noise) + intercepting))
    intercept = np.zeros(rows, dtype=np.intp)
    if isinstance(eve, SymmetricEntangle):
        # the noise column is drawn, but the substitution discards the pair
        return np.repeat(omega_state(eve.alpha).amps[None, :], rows, axis=0), intercept
    paulis = np.full(rows, PAULI_I) if isinstance(noise, NoNoise) else noise_paulis(noise, u[:, 0])
    states = _SENT[paulis]
    if intercepting:
        intercept, collapsed = measure_rows(states, TRAVEL, u[:, -1])
        # the collapsed home qubit, times the resent qubit
        home = collapsed.reshape(rows, 2, 2)[np.arange(rows), :, intercept]
        resent = np.array([resend_state(eve.theta, bit).amps for bit in (0, 1)])[intercept]
        states = (home[:, :, None] * resent[:, None, :]).reshape(rows, 4)
    return states, intercept


def control_stage(states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``control_check`` for every row: True where the two results coincide."""
    alice, bob = measure_rows_both(states, rng.random((states.shape[0], 2)))
    return alice == bob


def return_stage(
    states: np.ndarray,
    bits: np.ndarray,
    intercept: np.ndarray,
    eve: EveStrategy,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """``return_leg`` for every row, encoding ``bits`` (0 or 1); returns Bob's decoded bits."""
    rows = states.shape[0]
    intercepting = isinstance(eve, MeasureResend)
    u = rng.random((rows, _noise_draws(noise) + intercepting + 1))
    # the encoding Z and then the return noise, as one gather
    noise_pauli = PAULI_I if isinstance(noise, NoNoise) else noise_paulis(noise, u[:, 0])
    states = apply_pauli_pairs(states, PAULI_Z * bits, noise_pauli, TRAVEL)
    if intercepting:
        # without a basis (theta = 0) the column is the coin, which
        # leaves the pair alone
        for bit in (0, 1):
            basis = return_discrimination_basis(eve.theta, bit)
            hit = intercept == bit
            if basis is not None and hit.any():
                _, states[hit] = measure_rows_in_basis(states[hit], TRAVEL, basis, u[hit, -2])
    return _DECODE_BITS[bell_sample_rows(states, u[:, -1])]


def run_round(config: ProtocolConfig, rng: np.random.Generator) -> RoundOutcome:
    """Simulate one round, drawing in the order given in the module docstring."""
    record, joint = send_leg(config.eve, config.noise, rng)
    if rng.random() < config.control_prob:
        return RoundOutcome(
            mode=Mode.CONTROL,
            alice_bit=None,
            coincidence=control_check(joint, rng),
            bob_bell=None,
            bob_decoded=None,
            eve=record,
        )
    alice_bit = int(rng.integers(2))
    outcome, record = return_leg(joint, alice_bit, record, config.eve, config.noise, rng)
    return RoundOutcome(
        mode=Mode.MESSAGE,
        alice_bit=alice_bit,
        coincidence=None,
        bob_bell=outcome,
        bob_decoded=DECODE_MAP[outcome],
        eve=record,
    )


def _pauli_leg_profile(noise: NoiseModel) -> tuple[float, float]:
    # per-leg probability that the sampled Pauli has an X component
    # (flips computational correlation) or a Z component (flips the
    # decoded bit); Y counts in both
    if isinstance(noise, NoNoise):
        return 0.0, 0.0
    if isinstance(noise, BitFlip):
        return noise.p, 0.0
    if isinstance(noise, PhaseFlip):
        return 0.0, noise.p
    if isinstance(noise, Depolarizing):
        return 2.0 * noise.p / 3.0, 2.0 * noise.p / 3.0
    raise ValueError(f"unknown noise model {noise!r}")


def expected_report(config: ProtocolConfig) -> TheoryRates | None:
    """Closed-form rates where known, None otherwise.

    Supported: any Pauli noise model with no eavesdropper (detection is
    the outgoing-leg X-component probability; an error needs an odd
    number of Z components across the two legs), and either intercept
    strategy on a noiseless channel.
    """
    eve, noise = config.eve, config.noise
    if isinstance(eve, NoEve):
        x_prob, z_prob = _pauli_leg_profile(noise)
        return TheoryRates(
            detection_rate=x_prob,
            bob_error_rate=2.0 * z_prob * (1.0 - z_prob),
        )
    if not isinstance(noise, NoNoise):
        return None
    if isinstance(eve, MeasureResend):
        return TheoryRates(
            detection_rate=detection_probability_measurement(eve.theta),
            bob_error_rate=0.5,
        )
    if isinstance(eve, SymmetricEntangle):
        d = float(np.sin(eve.alpha) ** 2)
        return TheoryRates(detection_rate=d, bob_error_rate=d)
    return None


def run_session(config: ProtocolConfig) -> SessionReport:
    """Run ``config.rounds`` rounds and aggregate the observable rates.

    Memory stays constant in the round count; only counters and the two
    2x2 contingency tables (sender/receiver and sender/eavesdropper) are
    kept.
    """
    rng = np.random.default_rng(config.seed)
    n_control = n_coincidence = 0
    n_message = n_bob_errors = 0
    n_guesses = n_guesses_right = 0
    counts_ab = JointCounts2x2()
    counts_ae = JointCounts2x2()

    for _ in range(config.rounds):
        outcome = run_round(config, rng)
        if outcome.mode is Mode.CONTROL:
            n_control += 1
            if outcome.coincidence:
                n_coincidence += 1
            continue
        n_message += 1
        if outcome.bob_decoded != outcome.alice_bit:
            n_bob_errors += 1
        counts_ab.add(outcome.alice_bit, outcome.bob_decoded)
        guess = outcome.eve.guess_bit
        if guess is not None:
            n_guesses += 1
            if guess == outcome.alice_bit:
                n_guesses_right += 1
            counts_ae.add(outcome.alice_bit, guess)

    return SessionReport(
        n_control=n_control,
        n_coincidence=n_coincidence,
        detection_rate=n_coincidence / n_control if n_control else None,
        n_message=n_message,
        bob_error_rate=n_bob_errors / n_message if n_message else None,
        eve_accuracy=n_guesses_right / n_guesses if n_guesses else None,
        i_ab_hat=empirical_mutual_information(counts_ab) if n_message else None,
        i_ae_hat=empirical_mutual_information(counts_ae) if n_guesses else None,
        theory=expected_report(config),
    )

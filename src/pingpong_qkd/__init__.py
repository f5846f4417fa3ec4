"""Simulator and analysis toolkit for the two-way entanglement protocol.

The package covers the full attack/defense story of ping-pong style
quantum communication: statevector simulation of the protocol rounds,
the measure-resend and symmetric entangling attacks, the information
trade-off formulas with the 0.11 detection threshold, and the
nested-code QKD variant that survives noisy channels.
"""

from .quantum_core import (
    HOME,
    TRAVEL,
    BellOutcome,
    BitFlip,
    Depolarizing,
    NoiseModel,
    NoNoise,
    PhaseFlip,
    PureState,
    TwoQubitState,
    apply_noise,
    apply_pauli_x,
    apply_pauli_y,
    apply_pauli_z,
    bell_measure,
    bell_state,
    discrimination_basis,
    measure_computational,
    measure_in_basis,
    prepare_polarized,
    product_state,
)
from .infotheory import (
    JointCounts2x2,
    binary_entropy,
    bob_info_symmetric,
    detection_threshold,
    empirical_mutual_information,
    eve_info_bound,
    helstrom_info,
    security_margin,
)
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
)
from .pingpong import (
    DECODE_MAP,
    Mode,
    ProtocolConfig,
    RoundOutcome,
    SessionReport,
    TheoryRates,
    expected_report,
    run_round,
    run_session,
)
from .css_qkd import (
    AbortedControl,
    AbortedDecoy,
    BinaryCode,
    BinaryWord,
    Completed,
    NestedCodePair,
    QkdConfig,
    QkdResult,
    QkdSessionReport,
    bundled_code_path,
    contains,
    coset_key,
    encode,
    load_code,
    min_distance,
    run_qkd_block,
    run_qkd_session,
    syndrome_decode,
)

__version__ = "0.1.0"

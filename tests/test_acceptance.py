"""Acceptance gate: one test per release criterion, one verdict line each.

Each criterion reproduces a closed-form result by Monte Carlo or checks
an implementation against an independent brute-force oracle, at the
tolerance stated inline.  The verdict lines are echoed after the run.
"""

import itertools
import math
import time

import numpy as np
from scipy import stats

import conftest
from oracles import coset_state, fidelity
from pingpong_qkd.attacks import MeasureResend, SymmetricEntangle
from pingpong_qkd.css_qkd import (
    BinaryCode,
    BinaryWord,
    Completed,
    NestedCodePair,
    QkdConfig,
    contains,
    encode,
    run_qkd_block,
    run_qkd_session,
    syndrome_decode,
)
from pingpong_qkd.infotheory import (
    binary_entropy,
    bob_info_symmetric,
    detection_threshold,
    eve_info_bound,
    helstrom_info,
    security_margin,
)
from pingpong_qkd.pingpong import ProtocolConfig, run_session
from pingpong_qkd.quantum_core import PureState, _bell_weights

HAMMING_ROWS = ["1000110", "0100101", "0010011", "0001111"]
DUAL_ROWS = ["1101100", "1011010", "0111001"]

THETAS = {
    "pi/6": math.pi / 6,
    "pi/4": math.pi / 4,
    "pi/3": math.pi / 3,
    "pi/2": math.pi / 2,
}


def _verdict(number: int, text: str, failures: list[str]) -> None:
    ok = not failures
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}"
    conftest.acceptance_results.append(line)
    print(line)
    assert ok, f"{line}\n" + "\n".join(failures)


def test_criterion_1_threshold_reproduction():
    start = time.perf_counter()
    failures = []
    value = detection_threshold(1e-6)
    if abs(value - 0.110028) > 1e-6:
        failures.append(f"threshold {value} deviates from 0.110028 by more than 1e-6")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _verdict(1, f"detection threshold = {value:.6f} (tol 1e-6)", failures)


def test_criterion_2_interception_detection_curve():
    start = time.perf_counter()
    failures = []
    rounds = 100_000
    for label, theta in THETAS.items():
        config = ProtocolConfig(
            rounds=rounds, control_prob=1.0, eve=MeasureResend(theta), seed=20
        )
        report = run_session(config)
        expected = math.sin(theta / 2) ** 2
        sigma = math.sqrt(expected * (1 - expected) / rounds)
        dev = abs(report.detection_rate - expected)
        if dev > 3 * sigma:
            failures.append(
                f"theta={label}: detection {report.detection_rate:.5f} is "
                f"{dev / sigma:.1f} sigma from {expected:.5f}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _verdict(
        2,
        "interception coincidence rate matches sin^2(theta/2) at 1e5 rounds "
        "(3 sigma, 4 angles)",
        failures,
    )


def test_criterion_3_interception_conveys_nothing_to_bob():
    start = time.perf_counter()
    failures = []
    rounds = 100_000
    for label, theta in THETAS.items():
        config = ProtocolConfig(
            rounds=rounds, control_prob=0.0, eve=MeasureResend(theta), seed=21
        )
        report = run_session(config)
        if report.i_ab_hat > 0.01:
            failures.append(
                f"theta={label}: sender-receiver information {report.i_ab_hat:.5f} "
                "exceeds 0.01 bits"
            )
        if theta == math.pi / 2 and report.eve_accuracy != 1.0:
            failures.append(
                f"orthogonal interception accuracy {report.eve_accuracy} is not exactly 1.0"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _verdict(
        3,
        "intercepted channel carries <= 0.01 bits to the receiver while the "
        "orthogonal attack reads perfectly",
        failures,
    )


def test_criterion_4_entangling_attack_consistency():
    failures = []
    alphas = [0.2, math.asin(math.sqrt(0.11)), math.pi / 4]
    rounds = 100_000
    for alpha in alphas:
        d = math.sin(alpha) ** 2
        config = ProtocolConfig(
            rounds=rounds, control_prob=0.5, eve=SymmetricEntangle(alpha), seed=22
        )
        report = run_session(config)
        sigma_c = math.sqrt(d * (1 - d) / report.n_control)
        if abs(report.detection_rate - d) > 3 * sigma_c:
            failures.append(
                f"alpha={alpha:.4f}: detection {report.detection_rate:.5f} outside "
                f"3 sigma of {d:.5f}"
            )
        sigma_m = math.sqrt(d * (1 - d) / report.n_message)
        if abs(report.bob_error_rate - d) > 3 * sigma_m:
            failures.append(
                f"alpha={alpha:.4f}: error rate {report.bob_error_rate:.5f} outside "
                f"3 sigma of {d:.5f}"
            )
        closed_form = 1.0 - binary_entropy(d)
        if abs(bob_info_symmetric(alpha) - closed_form) > 1e-12:
            failures.append(f"alpha={alpha:.4f}: receiver information formula mismatch")
    grid = np.linspace(0.10, 0.12, 2001)
    signs = [security_margin(d) > 0 for d in grid]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if changes != 1:
        failures.append(f"margin changes sign {changes} times in (0.10, 0.12), wanted 1")
    _verdict(
        4,
        "entangling attack: detection = error = sin^2(alpha) (3 sigma), closed "
        "forms to 1e-12, one sign change near 0.11",
        failures,
    )


def test_criterion_5_coset_state_fidelity():
    start = time.perf_counter()
    failures = []
    pair = NestedCodePair(
        c1=BinaryCode.from_rows(HAMMING_ROWS), c2=BinaryCode.from_rows(DUAL_ROWS)
    )
    codewords = [
        encode(pair.c1, BinaryWord(bits))
        for bits in itertools.product((0, 1), repeat=pair.c1.k)
    ]
    states = {str(w): coset_state(pair, w) for w in codewords}
    for a in codewords:
        for b in codewords:
            overlap = fidelity(states[str(a)], states[str(b)])
            same_coset = contains(pair.c2, a ^ b)
            target = 1.0 if same_coset else 0.0
            if abs(overlap - target) > 1e-12:
                failures.append(
                    f"|{a}+C2> vs |{b}+C2>: fidelity {overlap!r}, expected {target}"
                )
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _verdict(
        5,
        "all 256 codeword-superposition pairs: fidelity 1 within a coset, 0 "
        "across cosets (tol 1e-12)",
        failures,
    )


def test_criterion_6_coded_protocol_end_to_end():
    start = time.perf_counter()
    failures = []
    pair = NestedCodePair(
        c1=BinaryCode.from_rows(HAMMING_ROWS), c2=BinaryCode.from_rows(DUAL_ROWS)
    )

    clean = run_qkd_session(QkdConfig(pair=pair, m=50, l=50, blocks=200, seed=23))
    if clean.n_completed != 200 or clean.abort_rate != 0.0:
        failures.append(
            f"clean channel: {clean.n_completed}/200 completed, "
            f"abort rate {clean.abort_rate}"
        )
    if clean.n_agreed != 200:
        failures.append(f"clean channel: only {clean.n_agreed}/200 keys agree")

    flip_config = QkdConfig(pair=pair, m=50, l=50, seed=24)
    flip_agreed = 0
    for i in range(200):
        result = run_qkd_block(
            flip_config, np.random.default_rng([24, i]), inject_message_flips=1
        )
        if isinstance(result, Completed) and result.alice_key == result.bob_key:
            flip_agreed += 1
    if flip_agreed != 200:
        failures.append(f"single injected flip: only {flip_agreed}/200 keys agree")

    attack = QkdConfig(
        pair=pair, m=200, l=50, t=22, blocks=1000,
        eve=MeasureResend(math.pi / 2), seed=25,
    )
    report = run_qkd_session(attack)
    aborted = report.n_aborted_control + report.n_aborted_decoy
    if aborted / 1000 < 0.999:
        failures.append(f"interception: abort rate {aborted / 1000} below 0.999")
    # independent oracle: each control position coincides with chance 1/2,
    # so passing the t=22 check is the lower tail of Binomial(200, 1/2)
    p_pass_control = stats.binom.cdf(22, 200, 0.5)
    if not p_pass_control < 1e-20:
        failures.append(f"binomial oracle: control pass probability {p_pass_control}")
    expected_aborts = 1000 * (1 - p_pass_control)
    if aborted < math.floor(expected_aborts):
        failures.append(f"aborts {aborted} below the oracle expectation {expected_aborts}")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _verdict(
        6,
        "coded protocol: 200/200 clean agreements, 200/200 one-flip corrections, "
        ">= 99.9% interception aborts (binomial oracle)",
        failures,
    )


def test_criterion_7_oracle_equivalence():
    failures = []

    inv = 1.0 / math.sqrt(2.0)
    oracle_kets = [
        np.array([0, inv, -inv, 0], dtype=complex),
        np.array([0, inv, inv, 0], dtype=complex),
        np.array([inv, 0, 0, inv], dtype=complex),
        np.array([inv, 0, 0, -inv], dtype=complex),
    ]
    rng = np.random.default_rng(26)
    worst = 0.0
    for _ in range(1000):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = PureState(raw / np.linalg.norm(raw))
        probs = _bell_weights(state.amps)
        for p, ket in zip(probs, oracle_kets):
            worst = max(worst, abs(p - abs(np.vdot(ket, state.amps)) ** 2))
    if worst >= 1e-10:
        failures.append(f"Bell probabilities deviate from the overlap oracle by {worst}")

    code = BinaryCode.from_rows(HAMMING_ROWS)
    codewords = [
        encode(code, BinaryWord(bits)) for bits in itertools.product((0, 1), repeat=4)
    ]
    for value in range(128):
        word = BinaryWord.from_string(format(value, "07b"))
        distances = [(word ^ c).weight() for c in codewords]
        best = min(distances)
        decoded = syndrome_decode(code, word)
        if best <= 1:
            nearest = codewords[distances.index(best)]
            if decoded != nearest:
                failures.append(f"{word}: decoded {decoded}, nearest codeword {nearest}")
        elif decoded is not None:
            failures.append(f"{word}: decoded {decoded} despite distance {best}")
    _verdict(
        7,
        "Bell probabilities match the change-of-basis oracle (1000 states, "
        "<1e-10); syndrome decoding matches nearest-codeword search (128 words)",
        failures,
    )


def test_criterion_8_decoder_never_beats_the_bound():
    failures = []
    grid = np.linspace(0.0, math.pi / 2, 100)
    for theta in grid:
        concrete = helstrom_info(theta)
        bound = eve_info_bound(math.sin(theta / 2) ** 2)
        if concrete > bound + 1e-12:
            failures.append(f"theta={theta:.4f}: decoder {concrete} beats bound {bound}")
        gap = bound - concrete
        at_endpoint = theta < 1e-12 or abs(theta - math.pi / 2) < 1e-12
        if at_endpoint and gap > 1e-9:
            failures.append(f"theta={theta:.4f}: endpoint gap {gap} exceeds 1e-9")
        if not at_endpoint and gap <= 1e-9:
            failures.append(f"theta={theta:.4f}: interior gap {gap} vanishes")
    _verdict(
        8,
        "concrete discrimination info stays below the detection-entropy bound, "
        "equal only at the endpoints (100-point grid)",
        failures,
    )

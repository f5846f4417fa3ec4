"""The benchmark's own checks: each accepts ideal counts and rejects a perturbed report.

Reports are synthesised with every count at its expected value, pooled
over enough repeats that a small perturbation is many standard errors
out.  The last tests run the real program briefly, through the tracer.
"""

import math
from types import SimpleNamespace

import pytest

from checks import (
    QkdPool,
    QkdSpec,
    SessionPool,
    SessionSpec,
    binomial_cdf,
    entropy,
    key_agreement_probability,
    pauli_rates,
    qkd_repeat_errors,
    session_repeat_errors,
    HAMMING74_DUAL_ROWS,
    HAMMING74_ROWS,
)

INTERCEPT = SessionSpec(rounds=2000, control_prob=0.5, theta=math.pi / 3.0)
DEPOLARIZING = SessionSpec(rounds=2000, control_prob=0.5, depolarizing=0.05)
# about the repeats one 20-second run pools on a 2-vCPU Xeon VM
REPEATS = {INTERCEPT: 150, DEPOLARIZING: 400}
QKD = QkdSpec(blocks=20, m=50, l=50, depolarizing=0.03)


def ideal_session(spec: SessionSpec) -> SimpleNamespace:
    n_control = round(spec.rounds * spec.control_prob)
    n_message = spec.rounds - n_control
    if spec.theta is not None:
        detection, error = math.sin(spec.theta / 2.0) ** 2, 0.5
        accuracy = round(n_message * (1.0 + math.sin(spec.theta)) / 2.0) / n_message
        # one chi-square(1) mean per repeat under independence
        info = 1.0 / (2.0 * n_message * math.log(2.0))
        eve = (accuracy, 0.0)
    else:
        detection, error = pauli_rates(spec.depolarizing)
        info = 1.0 - entropy(error) + 1.0 / (2.0 * n_message * math.log(2.0))
        eve = (None, None)
    return SimpleNamespace(
        n_control=n_control,
        n_coincidence=round(n_control * detection),
        n_message=n_message,
        bob_error_rate=round(n_message * error) / n_message,
        eve_accuracy=eve[0],
        i_ab_hat=info,
        i_ae_hat=eve[1],
    )


def session_errors(spec: SessionSpec, report) -> list[str]:
    pool = SessionPool(spec)
    errors = []
    for _ in range(REPEATS[spec]):
        errors += session_repeat_errors(spec, report)
        pool.add(report)
    return errors + pool.errors()


def shifted(report, field: str, by: float):
    """The report with a rate field moved by ``by``, or a count by ``by`` of its base."""
    value = getattr(report, field)
    if field == "n_coincidence":
        value += round(by * report.n_control)
    else:
        value += by
    return SimpleNamespace(**{**vars(report), field: value})


@pytest.mark.parametrize("spec", [INTERCEPT, DEPOLARIZING], ids=["intercept", "depolarizing"])
def test_ideal_session_passes(spec):
    assert session_errors(spec, ideal_session(spec)) == []


@pytest.mark.parametrize(
    "spec, field, by",
    [
        (INTERCEPT, "n_coincidence", 0.01),
        (INTERCEPT, "n_coincidence", -0.01),
        (INTERCEPT, "bob_error_rate", 0.01),
        (INTERCEPT, "eve_accuracy", -0.01),
        (INTERCEPT, "i_ab_hat", 0.01),
        (DEPOLARIZING, "n_coincidence", 0.01),
        (DEPOLARIZING, "bob_error_rate", 0.01),
        (DEPOLARIZING, "i_ab_hat", -0.01),
    ],
)
def test_session_rate_shift_is_rejected(spec, field, by):
    assert session_errors(spec, shifted(ideal_session(spec), field, by))


def test_intercept_information_too_small_is_rejected():
    # exactly zero every time is as unlikely under chi-square(1) as too much
    report = SimpleNamespace(**{**vars(ideal_session(INTERCEPT)), "i_ab_hat": 0.0})
    assert session_errors(INTERCEPT, report)


@pytest.mark.parametrize("spec", [INTERCEPT, DEPOLARIZING], ids=["intercept", "depolarizing"])
def test_missing_round_is_rejected(spec):
    report = ideal_session(spec)
    report.n_message -= 1
    assert session_repeat_errors(spec, report)


def test_control_fraction_shift_is_rejected():
    report = ideal_session(DEPOLARIZING)
    report.n_control += 20
    report.n_message -= 20
    assert session_repeat_errors(DEPOLARIZING, report) == []
    assert session_errors(DEPOLARIZING, report)


def test_eve_fields_are_checked():
    with_eve = SimpleNamespace(**{**vars(ideal_session(DEPOLARIZING)), "eve_accuracy": 0.5})
    assert session_repeat_errors(DEPOLARIZING, with_eve)
    without = SimpleNamespace(**{**vars(ideal_session(INTERCEPT)), "eve_accuracy": None})
    assert session_repeat_errors(INTERCEPT, without)


def ideal_qkd(blocks: int, **changes) -> SimpleNamespace:
    """Block outcomes of ``blocks`` blocks at their expected counts, then ``changes``."""
    pool = QkdPool(QKD)
    completed = round(blocks * pool.p_complete)
    aborted_control = round(blocks * (1.0 - pool.p_control))
    agreed = round(completed * pool.p_agree)
    report = dict(
        n_blocks=blocks,
        n_aborted_control=aborted_control,
        n_aborted_decoy=blocks - completed - aborted_control,
        n_completed=completed,
        n_agreed=agreed,
        agreement_rate=agreed / completed,
        total_key_bits=completed * QKD.key_bits,
        total_decode_failures=0,
    )
    return SimpleNamespace(**{**report, **changes})


def qkd_pool_errors(report) -> list[str]:
    pool = QkdPool(QKD)
    pool.add(report)
    return pool.errors()


def test_ideal_qkd_passes():
    assert qkd_pool_errors(ideal_qkd(10_000)) == []


def test_qkd_agreement_lowered_by_two_percent_is_rejected():
    ideal = ideal_qkd(10_000)
    lowered = ideal.n_agreed - round(0.02 * ideal.n_completed)
    assert qkd_pool_errors(ideal_qkd(10_000, n_agreed=lowered))


def test_qkd_completion_shift_is_rejected():
    ideal = ideal_qkd(10_000)
    moved = round(0.01 * ideal.n_blocks)
    assert qkd_pool_errors(ideal_qkd(
        10_000,
        n_completed=ideal.n_completed - moved,
        n_aborted_decoy=ideal.n_aborted_decoy + moved,
    ))


def test_qkd_control_abort_shift_is_rejected():
    ideal = ideal_qkd(10_000)
    moved = round(0.005 * ideal.n_blocks)
    assert qkd_pool_errors(ideal_qkd(
        10_000,
        n_aborted_control=ideal.n_aborted_control + moved,
        n_aborted_decoy=ideal.n_aborted_decoy - moved,
    ))


@pytest.mark.parametrize(
    "changes",
    [
        {"n_aborted_decoy": 1},  # aborted + completed != blocks
        {"total_key_bits": 18},
        {"total_decode_failures": 1},
    ],
)
def test_qkd_identities_are_checked(changes):
    report = SimpleNamespace(
        n_blocks=20, n_aborted_control=0, n_aborted_decoy=0, n_completed=20,
        n_agreed=20, agreement_rate=1.0, total_key_bits=20, total_decode_failures=0,
    )
    assert qkd_repeat_errors(QKD, report) == []
    assert qkd_repeat_errors(QKD, SimpleNamespace(**{**vars(report), **changes}))


def test_agreement_oracle_matches_the_hamming_closed_form():
    # [7,3] is the even-weight part of [7,4]; Bob lands on an even codeword
    # iff the error is an even codeword or an odd word outside the code
    eps = pauli_rates(0.03)[1]
    q = 1.0 - eps
    closed = q**7 + 7 * eps**4 * q**3 + (1.0 - (1.0 - 2.0 * eps) ** 7) / 2.0 - 7 * eps**3 * q**4 - eps**7
    value = key_agreement_probability(HAMMING74_ROWS, HAMMING74_DUAL_ROWS, eps)
    assert value == pytest.approx(closed, abs=1e-12)
    assert key_agreement_probability(HAMMING74_ROWS, HAMMING74_DUAL_ROWS, 0.0) == 1.0


def test_binomial_cdf():
    assert binomial_cdf(50, 50, 0.3) == pytest.approx(1.0)
    assert binomial_cdf(0, 50, 0.02) == pytest.approx(0.98**50)


def test_real_runs_pass_the_checks_and_the_tracer_counts_them():
    from tracer import CallTracer
    from workloads import WORKLOADS, repeat_seed
    import pingpong_qkd as pq

    original = pq.run_session
    tracer = CallTracer()
    for name, workload in WORKLOADS.items():
        pool = workload.pool()
        with tracer:
            report = workload.run(workload.config(repeat_seed(1, 0)))
        assert workload.repeat_errors(report) == [], name
        pool.add(report)
        assert pool.errors() == [], name
    assert pq.run_session is original
    sessions = 2 * WORKLOADS["session-intercept"].spec.rounds
    assert tracer.calls["pingpong.run_round"] == sessions
    assert tracer.calls["attacks.intercept_resend"] == sessions // 2
    assert tracer.calls["css_qkd.run_qkd_block"] == WORKLOADS["qkd-depolarizing"].spec.blocks
    assert tracer.calls["attacks.omega_state"] == 0


def test_command_line_names_every_workload():
    from run import WORKLOAD_NAMES
    from workloads import WORKLOADS

    assert WORKLOAD_NAMES == tuple(WORKLOADS)

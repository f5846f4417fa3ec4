"""Golden counts that pin the draw order of seeded runs.

The first three configs are the benchmark workloads at seed 1.  Their
counts were recorded before the session round and the coded block were
built from the same three legs.  The last two, an entangling attack
over a noisy channel and an attacked noisy coded run with loose
thresholds, were recorded before the coded block ran as whole-array
stages.  Any change to the order or number of draws moves them.
"""

import math

from pingpong_qkd.attacks import MeasureResend, SymmetricEntangle
from pingpong_qkd.css_qkd import (
    NestedCodePair,
    QkdConfig,
    bundled_code_path,
    load_code,
    run_qkd_session,
)
from pingpong_qkd.pingpong import ProtocolConfig, run_session
from pingpong_qkd.quantum_core import BitFlip, Depolarizing


def session_counts(config):
    report = run_session(config)
    bob_errors = round(report.bob_error_rate * report.n_message)
    return report.n_control, report.n_coincidence, report.n_message, bob_errors


def test_intercept_session():
    config = ProtocolConfig(
        rounds=2000, control_prob=0.5, eve=MeasureResend(math.pi / 3), seed=1
    )
    assert session_counts(config) == (1030, 239, 970, 505)


def test_depolarizing_session():
    config = ProtocolConfig(
        rounds=2000, control_prob=0.5, noise=Depolarizing(0.05), seed=1
    )
    assert session_counts(config) == (1030, 28, 970, 54)


def test_depolarizing_qkd():
    pair = NestedCodePair(
        load_code(bundled_code_path("hamming74")),
        load_code(bundled_code_path("hamming74dual")),
    )
    config = QkdConfig(pair=pair, m=50, l=50, blocks=20, noise=Depolarizing(0.03), seed=1)
    report = run_qkd_session(config)
    assert (report.n_completed, report.n_agreed) == (20, 18)


def test_entangling_noisy_session():
    # the substitution discards the noisy pair, but the noise draw stays
    config = ProtocolConfig(
        rounds=2000,
        control_prob=0.5,
        eve=SymmetricEntangle(0.3),
        noise=Depolarizing(0.05),
        seed=1,
    )
    assert session_counts(config) == (1030, 102, 970, 88)


def test_intercepted_noisy_qkd():
    pair = NestedCodePair(
        load_code(bundled_code_path("hamming74")),
        load_code(bundled_code_path("hamming74dual")),
    )
    config = QkdConfig(
        pair=pair,
        m=50,
        l=50,
        t=50,
        t_prime=50,
        blocks=20,
        eve=MeasureResend(math.pi / 3),
        noise=BitFlip(0.05),
        seed=1,
    )
    report = run_qkd_session(config)
    assert (report.n_completed, report.n_agreed) == (20, 12)

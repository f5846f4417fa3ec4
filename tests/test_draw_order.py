"""Golden counts that pin the draw order of seeded runs.

Each config is one of the benchmark workloads at seed 1.  The counts
were recorded before the session round and the coded block were built
from the same three legs, and any change to the order or number of
draws moves them.
"""

import math

from pingpong_qkd.attacks import MeasureResend
from pingpong_qkd.css_qkd import (
    NestedCodePair,
    QkdConfig,
    bundled_code_path,
    load_code,
    run_qkd_session,
)
from pingpong_qkd.pingpong import ProtocolConfig, run_session
from pingpong_qkd.quantum_core import Depolarizing


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

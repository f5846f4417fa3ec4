"""The benchmark's workloads: one repeat of each, built on the public API.

A workload is a fixed parameter set; a run times many short repeats of
it.  Repeat ``k`` of a run with workload seed ``s`` gets the program
seed ``s * 2**20 + k``, so the same seed gives the same inputs and the
repeats of one run are independent draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import pingpong_qkd as pq

from checks import (
    HAMMING74_DUAL_ROWS,
    HAMMING74_ROWS,
    QkdPool,
    QkdSpec,
    SessionPool,
    SessionSpec,
    qkd_repeat_errors,
    session_repeat_errors,
)

SEED_STRIDE = 2**20


def repeat_seed(seed: int, k: int) -> int:
    return seed * SEED_STRIDE + k


@cache
def bundled_pair() -> pq.NestedCodePair:
    """The bundled [7,4] > [7,3] pair, loaded once per process as a user would."""
    pair = pq.NestedCodePair(
        c1=pq.load_code(pq.bundled_code_path("hamming74")),
        c2=pq.load_code(pq.bundled_code_path("hamming74dual")),
    )
    rows = (
        tuple(str(g) for g in pair.c1.generators),
        tuple(str(g) for g in pair.c2.generators),
    )
    if rows != (HAMMING74_ROWS, HAMMING74_DUAL_ROWS):
        raise RuntimeError(f"bundled codes {rows} differ from the ones the oracle enumerates")
    return pair


def warm_up() -> None:
    """Fill every lazy cache the workloads touch, identically for all of them.

    One small session passes through measure-resend, all depolarizing
    branches and both measurement modes (discrimination bases, index
    tables); one noiseless block completes, which builds the syndrome
    table and the coset solver of the bundled pair.
    """
    pq.run_session(
        pq.ProtocolConfig(
            rounds=64,
            control_prob=0.5,
            eve=pq.MeasureResend(math.pi / 3.0),
            noise=pq.Depolarizing(0.5),
            seed=0,
        )
    )
    pq.run_qkd_session(pq.QkdConfig(pair=bundled_pair(), m=2, l=2, blocks=1, seed=0))


@dataclass(frozen=True)
class SessionWorkload:
    spec: SessionSpec

    def config(self, seed: int) -> pq.ProtocolConfig:
        spec = self.spec
        return pq.ProtocolConfig(
            rounds=spec.rounds,
            control_prob=spec.control_prob,
            eve=pq.NoEve() if spec.theta is None else pq.MeasureResend(spec.theta),
            noise=pq.NoNoise() if spec.depolarizing is None else pq.Depolarizing(spec.depolarizing),
            seed=seed,
        )

    def run(self, config: pq.ProtocolConfig) -> pq.SessionReport:
        # looked up per call, so the tracer's wrapper is seen when installed
        return pq.run_session(config)

    def repeat_errors(self, report) -> list[str]:
        return session_repeat_errors(self.spec, report)

    def pool(self) -> SessionPool:
        return SessionPool(self.spec)


@dataclass(frozen=True)
class QkdWorkload:
    spec: QkdSpec

    def config(self, seed: int) -> pq.QkdConfig:
        spec = self.spec
        return pq.QkdConfig(
            pair=bundled_pair(),
            m=spec.m,
            l=spec.l,
            blocks=spec.blocks,
            noise=pq.Depolarizing(spec.depolarizing),
            seed=seed,
        )

    def run(self, config: pq.QkdConfig) -> pq.QkdSessionReport:
        return pq.run_qkd_session(config)

    def repeat_errors(self, report) -> list[str]:
        return qkd_repeat_errors(self.spec, report)

    def pool(self) -> QkdPool:
        return QkdPool(self.spec)


WORKLOADS = {
    "session-intercept": SessionWorkload(
        SessionSpec(rounds=2000, control_prob=0.5, theta=math.pi / 3.0)
    ),
    "session-depolarizing": SessionWorkload(
        SessionSpec(rounds=2000, control_prob=0.5, depolarizing=0.05)
    ),
    "qkd-depolarizing": QkdWorkload(QkdSpec(blocks=20, m=50, l=50, depolarizing=0.03)),
}

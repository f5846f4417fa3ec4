"""The whole-block stages of ``run_qkd_block`` against the per-pair legs.

``scalar_block`` runs a block position by position through ``send_leg``,
``control_check`` and ``return_leg``, the way the block ran before the
stages existed.  Both draw the same uniforms in the same order, so every
seeded block must give an equal result.
"""

import math

import numpy as np
import pytest

from pingpong_qkd.attacks import MeasureResend, NoEve, SymmetricEntangle
from pingpong_qkd.css_qkd import (
    AbortedControl,
    AbortedDecoy,
    BinaryWord,
    Completed,
    NestedCodePair,
    QkdConfig,
    _label_map,
    bundled_code_path,
    coset_key,
    encode,
    load_code,
    run_qkd_block,
    syndrome_decode,
    _CONTROL,
    _DECOY,
    _MESSAGE,
    _position_kinds,
)
from pingpong_qkd.pingpong import DECODE_MAP, control_check, return_leg, send_leg
from pingpong_qkd.quantum_core import BitFlip, Depolarizing, NoNoise, PhaseFlip


def word(bits):
    return BinaryWord(tuple(int(b) for b in bits))


def scalar_block(config, rng, inject_message_flips=0):
    pair, eve, noise = config.pair, config.eve, config.noise
    n = pair.c1.n
    kinds = _position_kinds(n, config.m, config.l, rng)
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    v = encode(pair.c1, word(rng.integers(0, 2, size=pair.c1.k, dtype=np.uint8)))
    legs = [send_leg(eve, noise, rng) for _ in kinds]
    where = {kind: np.flatnonzero(kinds == kind).tolist() for kind in (_MESSAGE, _CONTROL, _DECOY)}
    coincidences = sum(control_check(legs[i][1], rng) for i in where[_CONTROL])
    if coincidences > config.t:
        return AbortedControl(coincidences)
    bits = dict.fromkeys(where[_DECOY], 0)
    bits.update(zip(where[_MESSAGE], x.tolist()))
    decoded = {}
    for i in sorted(bits):
        record, joint = legs[i]
        decoded[i] = DECODE_MAP[return_leg(joint, bits[i], record, eve, noise, rng)[0]]
    decoy_ones = sum(decoded[i] for i in where[_DECOY])
    if decoy_ones > config.t_prime:
        return AbortedDecoy(decoy_ones)
    r = np.array([decoded[i] for i in where[_MESSAGE]], dtype=np.uint8)
    if inject_message_flips:
        r[rng.choice(n, size=inject_message_flips, replace=False)] ^= 1
    w = word(r ^ x ^ np.array(v.bits, dtype=np.uint8))
    v_hat = syndrome_decode(pair.c1, w)
    bob = (np.array((w if v_hat is None else v_hat).bits, dtype=np.uint8) @ _label_map(pair)) & 1
    return Completed(coset_key(pair, v), word(bob), int(v_hat is None))


ATTACKS = [
    NoEve(),
    MeasureResend(math.pi / 3),
    MeasureResend(math.pi / 2),
    MeasureResend(0.2),
    MeasureResend(0.0),
    SymmetricEntangle(0.3),
]
NOISES = [
    NoNoise(),
    BitFlip(0.1),
    PhaseFlip(0.1),
    Depolarizing(0.0),
    Depolarizing(0.05),
    Depolarizing(0.5),
    Depolarizing(1.0),
]


@pytest.fixture(scope="module")
def pair():
    return NestedCodePair(
        load_code(bundled_code_path("hamming74")),
        load_code(bundled_code_path("hamming74dual")),
    )


@pytest.mark.parametrize("noise", NOISES, ids=repr)
@pytest.mark.parametrize("eve", ATTACKS, ids=repr)
def test_stages_equal_the_scalar_legs(pair, eve, noise):
    kinds = set()
    for thresholds in ({}, {"t": 10, "t_prime": 10}):
        config = QkdConfig(pair=pair, m=10, l=10, eve=eve, noise=noise, **thresholds)
        for flips in (0, 1):
            for seed in range(20):
                expected = scalar_block(config, np.random.default_rng([seed, flips]), flips)
                got = run_qkd_block(config, np.random.default_rng([seed, flips]), flips)
                assert got == expected, (thresholds, flips, seed)
                kinds.add(type(got))
    # loose thresholds let every block reach the return stage
    assert Completed in kinds

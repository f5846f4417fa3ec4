"""Reference quantities the tests check the package against.

The simulator never needs these: they read a state rather than sample
it, or build registers wider than a protocol pair.
"""

import itertools

import numpy as np

from pingpong_qkd.css_qkd import BinaryWord, NestedCodePair, encode
from pingpong_qkd.quantum_core import BELL_ORDER, PureState, _bell_weights


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def travel_density(state: PureState) -> np.ndarray:
    """Density matrix of the travel qubit: the partial trace over the home qubit."""
    a = state.amps.reshape(2, 2)  # rows home, columns travel
    return a.T @ a.conj()


def coset_state(pair: NestedCodePair, x: BinaryWord) -> PureState:
    """|x + C2>: equal amplitude on x XOR y for every y = encode(C2, message)."""
    amps = np.zeros(1 << pair.c2.n)
    for bits in itertools.product((0, 1), repeat=pair.c2.k):
        amps[int(str(x ^ encode(pair.c2, BinaryWord(bits))), 2)] = 1.0
    return PureState(amps / np.sqrt(amps.sum()))


def bell_probabilities(state: PureState) -> dict:
    """The weights both Bell samplers draw from, keyed by outcome."""
    return dict(zip(BELL_ORDER, _bell_weights(state.amps)))


def nearest_codewords(codewords: list[BinaryWord]) -> list[BinaryWord | None]:
    """For every word y of GF(2)^n, the codeword within the packing radius, or None.

    Entry ``int(str(y), 2)`` compares y with every codeword by Hamming
    distance.  The radius is floor((d - 1) / 2), d being the least
    weight of a nonzero codeword, so at most one codeword is that near.
    """
    n = len(codewords[0])
    ints = np.array([int(str(c), 2) for c in codewords], dtype=np.int64)
    byte_weights = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)

    def weight(x):
        return sum(byte_weights[(x >> shift) & 255] for shift in range(0, n, 8))

    radius = (int(weight(ints[ints != 0]).min()) - 1) // 2
    nearest = []
    for start in range(0, 1 << n, 256):
        words = np.arange(start, min(start + 256, 1 << n), dtype=np.int64)
        near = weight(words[:, None] ^ ints[None, :]) <= radius
        counts = near.sum(axis=1)
        assert counts.max() <= 1, "two codewords inside one packing radius"
        nearest += [
            codewords[i] if count else None
            for i, count in zip(near.argmax(axis=1).tolist(), counts.tolist())
        ]
    return nearest

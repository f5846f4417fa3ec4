"""Reference quantities the tests check the package against.

The simulator never needs these: they read a state rather than sample
it, or build registers wider than a protocol pair.
"""

from functools import reduce

import numpy as np

from pingpong_qkd.css_qkd import NestedCodePair, encode
from pingpong_qkd.quantum_core import BELL_ORDER, BellOutcome, PureState, _bell_weights

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# one-qubit Pauli matrices, in the row kernels' index order I, X, Y, Z
PAULI_MATRICES = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Bell kets written out independently of the implementation
BELL_KETS = {
    BellOutcome.PSI_MINUS: np.array([0, _INV_SQRT2, -_INV_SQRT2, 0], dtype=complex),
    BellOutcome.PSI_PLUS: np.array([0, _INV_SQRT2, _INV_SQRT2, 0], dtype=complex),
    BellOutcome.PHI_PLUS: np.array([_INV_SQRT2, 0, 0, _INV_SQRT2], dtype=complex),
    BellOutcome.PHI_MINUS: np.array([_INV_SQRT2, 0, 0, -_INV_SQRT2], dtype=complex),
}


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def travel_density(state: PureState) -> np.ndarray:
    """Density matrix of the travel qubit: the partial trace over the home qubit."""
    a = state.amps.reshape(2, 2)  # rows home, columns travel
    return a.T @ a.conj()


def xor(a: str, b: str) -> str:
    """Bitwise XOR of two words in 01 of the same length."""
    assert len(a) == len(b), "XOR of words with different lengths"
    return "".join("01"[x != y] for x, y in zip(a, b))


def all_words(length: int) -> list[str]:
    """Every word in 01 of the given length, in counting order."""
    return [format(value, f"0{length}b") for value in range(1 << length)]


def coset_state(pair: NestedCodePair, x: str) -> PureState:
    """|x + C2>: equal amplitude on x XOR y for every y = encode(C2, message)."""
    amps = np.zeros(1 << pair.c2.n)
    for message in all_words(pair.c2.k):
        amps[int(xor(x, encode(pair.c2, message)), 2)] = 1.0
    return PureState(amps / np.sqrt(amps.sum()))


def on_qubit(matrix: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """The 2**n matrix of ``matrix`` on one qubit (qubit 0 leftmost), by np.kron."""
    factors = [np.eye(2)] * n_qubits
    factors[qubit] = matrix
    return reduce(np.kron, factors)


def projector_collapse(amps: np.ndarray, qubit: int, ket: np.ndarray) -> tuple[float, np.ndarray]:
    """The weight p of |ket> on ``qubit`` and the collapsed register P|psi>/sqrt(p).

    P is the dense projector |ket><ket| on ``qubit``, identity elsewhere.
    """
    n_qubits = amps.shape[0].bit_length() - 1
    projected = on_qubit(np.outer(ket, ket.conj()), qubit, n_qubits) @ amps
    p = float(np.vdot(projected, projected).real)
    return p, projected / np.sqrt(p)


def bell_overlaps(amps: np.ndarray) -> np.ndarray:
    """|<b|psi>|^2 for each of the written-out Bell kets b, in BELL_ORDER."""
    return np.array([abs(np.vdot(BELL_KETS[kind], amps)) ** 2 for kind in BELL_ORDER])


def bell_probabilities(state: PureState) -> dict:
    """The weights both Bell samplers draw from, keyed by outcome."""
    return dict(zip(BELL_ORDER, _bell_weights(state.amps)))


def nearest_codewords(codewords: list[str]) -> list[str | None]:
    """For every word y of GF(2)^n, the codeword within the packing radius, or None.

    Entry ``int(y, 2)`` compares y with every codeword by Hamming
    distance.  The radius is floor((d - 1) / 2), d being the least
    weight of a nonzero codeword, so at most one codeword is that near.
    """
    n = len(codewords[0])
    ints = np.array([int(c, 2) for c in codewords], dtype=np.int64)
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

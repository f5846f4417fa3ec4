"""Small-register pure-state simulation for two-qubit protocol analysis.

States are dense complex statevectors over n qubits with qubit 0 as the
most significant index bit: for two qubits the basis order is
|00>, |01>, |10>, |11> with the first (home) qubit leftmost.  All
operations return new states; amplitude arrays are frozen read-only so a
state can be shared safely between threads once constructed.

Randomness always comes from an explicit numpy Generator passed by the
caller, never from module-level state.

The row kernels (``apply_paulis``, ``apply_pauli_pairs``,
``measure_rows``, ``measure_rows_both``, ``measure_rows_in_basis``,
``bell_sample_rows``) act on a (rows, 4) complex array holding one
two-qubit pair per row, in the same basis order.  They take one uniform
per row and measurement from the caller and compare it with the Born
weight exactly as the single-state kernels compare their own draw, so
the same uniforms give the same outcomes.  The one exception is the
second outcome of ``measure_rows_both``: its conditional weight is a
quotient of Born weights rather than the weight of a renormalized row,
which can differ in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

HOME = 0
TRAVEL = 1

MAX_QUBITS = 12

# |sum of |amp|^2 - 1| must stay below this for a state to be accepted
NORM_TOL = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class PureState:
    """Immutable normalized statevector on ``n_qubits`` qubits."""

    __slots__ = ("amps", "n_qubits")

    def __init__(self, amps) -> None:
        arr = np.array(amps, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("amplitudes must be a flat vector")
        size = arr.shape[0]
        if size < 2 or size & (size - 1):
            raise ValueError(f"amplitude count {size} is not a power of two")
        n = size.bit_length() - 1
        if n > MAX_QUBITS:
            raise ValueError(f"register of {n} qubits exceeds the {MAX_QUBITS}-qubit cap")
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"state is not normalized: sum of squares is {norm_sq!r}")
        arr.flags.writeable = False
        self.amps = arr
        self.n_qubits = n

    def __repr__(self) -> str:
        return f"PureState({np.array2string(self.amps, precision=6)})"


# A PureState with n_qubits == 2; operations that need the home/travel
# pair check the width at runtime.
TwoQubitState = PureState


def _trusted_state(amps: np.ndarray, n_qubits: int) -> PureState:
    # internal constructor for amplitudes already known to be normalized
    state = object.__new__(PureState)
    amps.flags.writeable = False
    state.amps = amps
    state.n_qubits = n_qubits
    return state


def _require_two_qubits(state: PureState) -> None:
    if state.n_qubits != 2:
        raise ValueError(f"expected a two-qubit state, got {state.n_qubits} qubits")


class BellOutcome(Enum):
    """The four Bell states, in the canonical order used everywhere here."""

    PSI_MINUS = 0  # (|01> - |10>)/sqrt(2)
    PSI_PLUS = 1   # (|01> + |10>)/sqrt(2)
    PHI_PLUS = 2   # (|00> + |11>)/sqrt(2)
    PHI_MINUS = 3  # (|00> - |11>)/sqrt(2)


BELL_ORDER: tuple[BellOutcome, ...] = (
    BellOutcome.PSI_MINUS,
    BellOutcome.PSI_PLUS,
    BellOutcome.PHI_PLUS,
    BellOutcome.PHI_MINUS,
)

# rows are Bell bras in BELL_ORDER acting on (a00, a01, a10, a11)
_BELL_MATRIX = np.array(
    [
        [0.0, _INV_SQRT2, -_INV_SQRT2, 0.0],
        [0.0, _INV_SQRT2, _INV_SQRT2, 0.0],
        [_INV_SQRT2, 0.0, 0.0, _INV_SQRT2],
        [_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2],
    ]
)

_BELL_STATES: dict[BellOutcome, PureState] = {
    kind: _trusted_state(_BELL_MATRIX[kind.value].astype(np.complex128), 2)
    for kind in BELL_ORDER
}


def bell_state(kind: BellOutcome) -> TwoQubitState:
    """Return the requested Bell state on (home, travel)."""
    return _BELL_STATES[kind]


def prepare_polarized(theta: float) -> PureState:
    """Single qubit cos(theta/2)|0> + sin(theta/2)|1> for theta in [0, pi]."""
    if not 0.0 <= theta <= np.pi + NORM_TOL:
        raise ValueError(f"polar angle {theta!r} outside [0, pi]")
    half = 0.5 * theta
    amps = np.array([np.cos(half), np.sin(half)], dtype=np.complex128)
    return _trusted_state(amps, 1)


def product_state(first: PureState, second: PureState) -> PureState:
    """Tensor product with ``first`` occupying the more significant qubits."""
    n = first.n_qubits + second.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"product register of {n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    # outer + ravel is kron for flat vectors, without kron's reshaping overhead
    return _trusted_state(np.outer(first.amps, second.amps).ravel(), n)


def _bit_mask(n_qubits: int, qubit: int) -> int:
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit {qubit} outside register of {n_qubits}")
    return 1 << (n_qubits - 1 - qubit)


@lru_cache(maxsize=None)
def _flip_index(n_qubits: int, qubit: int) -> np.ndarray:
    mask = _bit_mask(n_qubits, qubit)
    idx = np.arange(1 << n_qubits) ^ mask
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=None)
def _bit_values(n_qubits: int, qubit: int) -> np.ndarray:
    shift = n_qubits - 1 - qubit
    bits = (np.arange(1 << n_qubits) >> shift) & 1
    bits.flags.writeable = False
    return bits


def apply_pauli_x(state: PureState, qubit: int) -> PureState:
    """Bit flip X on one qubit."""
    new = state.amps[_flip_index(state.n_qubits, qubit)].copy()
    return _trusted_state(new, state.n_qubits)


def apply_pauli_y(state: PureState, qubit: int) -> PureState:
    """Pauli Y on one qubit: Y|0> = i|1>, Y|1> = -i|0>."""
    bits = _bit_values(state.n_qubits, qubit)
    phase = np.where(bits == 1, 1j, -1j)
    new = state.amps[_flip_index(state.n_qubits, qubit)] * phase
    return _trusted_state(new, state.n_qubits)


def apply_pauli_z(state: PureState, qubit: int) -> PureState:
    """Phase flip Z on one qubit: negates amplitudes where the qubit is 1."""
    bits = _bit_values(state.n_qubits, qubit)
    new = np.where(bits == 1, -state.amps, state.amps)
    return _trusted_state(new, state.n_qubits)


def measure_computational(
    state: PureState, qubit: int, rng: np.random.Generator
) -> tuple[int, PureState]:
    """Projective Z-basis measurement of one qubit.

    Returns the sampled outcome bit and the renormalized collapsed state.
    """
    bits = _bit_values(state.n_qubits, qubit)
    probs = np.abs(state.amps) ** 2
    p_one = float(probs[bits == 1].sum())
    outcome = 1 if rng.random() < p_one else 0
    p_outcome = p_one if outcome == 1 else 1.0 - p_one
    if p_outcome <= 0.0:
        raise RuntimeError("sampled a zero-probability branch")
    keep = bits == outcome
    new = np.where(keep, state.amps, 0.0) / np.sqrt(p_outcome)
    return outcome, _trusted_state(new, state.n_qubits)


def measure_in_basis(
    state: PureState,
    qubit: int,
    basis: tuple[PureState, PureState],
    rng: np.random.Generator,
) -> tuple[int, PureState]:
    """Projective measurement of one qubit in an arbitrary orthonormal basis.

    ``basis`` is a pair of single-qubit states with mutual overlap below
    1e-10.  Returns (index of the basis state found, collapsed register).
    """
    b0, b1 = basis
    if b0.n_qubits != 1 or b1.n_qubits != 1:
        raise ValueError("basis states must be single qubits")
    if abs(np.vdot(b0.amps, b1.amps)) > 1e-10:
        raise ValueError("basis states are not orthogonal")
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} outside register of {n}")
    # group amplitudes as (prefix, measured qubit, suffix) so the projection
    # is two slice contractions instead of a full tensor transpose
    inner = 1 << (n - 1 - qubit)
    view = state.amps.reshape(-1, 2, inner)
    lo, hi = view[:, 0, :], view[:, 1, :]
    coeff0 = b0.amps[0].conjugate() * lo + b0.amps[1].conjugate() * hi
    coeff1 = b1.amps[0].conjugate() * lo + b1.amps[1].conjugate() * hi
    p_one = float(np.sum(np.abs(coeff1) ** 2))
    outcome = 1 if rng.random() < p_one else 0
    coeff, b = (coeff1, b1) if outcome == 1 else (coeff0, b0)
    p_outcome = p_one if outcome == 1 else 1.0 - p_one
    if p_outcome <= 0.0:
        raise RuntimeError("sampled a zero-probability branch")
    scaled = coeff / np.sqrt(p_outcome)
    collapsed = np.empty(view.shape, dtype=np.complex128)
    collapsed[:, 0, :] = b.amps[0] * scaled
    collapsed[:, 1, :] = b.amps[1] * scaled
    return outcome, _trusted_state(collapsed.reshape(1 << n), n)


def _bell_weights(amps: np.ndarray) -> np.ndarray:
    # Born weight of each Bell state, in BELL_ORDER, for (..., 4) amplitudes
    return np.abs(amps @ _BELL_MATRIX.T) ** 2


def bell_measure(state: TwoQubitState, rng: np.random.Generator) -> BellOutcome:
    """Sample a full Bell-basis measurement of a two-qubit register."""
    _require_two_qubits(state)
    probs = _bell_weights(state.amps)
    r = rng.random()
    acc = 0.0
    for kind in BELL_ORDER:
        acc += probs[kind.value]
        if r < acc:
            return kind
    return BELL_ORDER[-1]


# Pauli indices for the row kernels
PAULI_I, PAULI_X, PAULI_Y, PAULI_Z = range(4)


@lru_cache(maxsize=None)
def _pauli_tables(qubit: int) -> tuple[np.ndarray, np.ndarray]:
    # row g: the index gather and the phase of Pauli g on one qubit of a
    # pair, as apply_pauli_x/y/z compute them
    same = np.arange(4)
    flip = _flip_index(2, qubit)
    one = _bit_values(2, qubit) == 1
    perm = np.stack([same, flip, flip, same])
    phase = np.stack(
        [np.ones(4), np.ones(4), np.where(one, 1j, -1j), np.where(one, -1.0, 1.0)]
    ).astype(np.complex128)
    perm.flags.writeable = False
    phase.flags.writeable = False
    return perm, phase


def apply_paulis(states: np.ndarray, paulis: np.ndarray, qubit: int) -> np.ndarray:
    """Apply Pauli ``paulis[r]`` (``PAULI_I`` .. ``PAULI_Z``) to ``qubit`` of row r."""
    perm, phase = _pauli_tables(qubit)
    rows = np.arange(states.shape[0])[:, None]
    return states[rows, perm[paulis]] * phase[paulis]


@lru_cache(maxsize=None)
def _pauli_pair_tables(qubit: int) -> tuple[np.ndarray, np.ndarray]:
    # entry [a, b]: Pauli a and then Pauli b on one qubit of a pair, as
    # one index gather and one phase; the phases are all 1, -1, i or -i,
    # so folding them into one product rounds nothing
    perm, phase = _pauli_tables(qubit)
    both_perm = perm[:, perm]
    both_phase = phase[:, perm] * phase[None]
    both_perm.flags.writeable = False
    both_phase.flags.writeable = False
    return both_perm, both_phase


def apply_pauli_pairs(
    states: np.ndarray, first: np.ndarray, second: np.ndarray | int, qubit: int
) -> np.ndarray:
    """Apply Pauli ``first[r]`` and then ``second[r]`` to ``qubit`` of row r.

    The same amplitudes as two ``apply_paulis`` calls, from one gather.
    """
    perm, phase = _pauli_pair_tables(qubit)
    rows = np.arange(states.shape[0])[:, None]
    return states[rows, perm[first, second]] * phase[first, second]


@lru_cache(maxsize=None)
def _one_columns(qubit: int) -> tuple[np.ndarray, int, int]:
    # the mask of the indices where the qubit is 1, and those two indices
    one = _bit_values(2, qubit) == 1
    one.flags.writeable = False
    low, high = (int(i) for i in np.flatnonzero(one))
    return one, low, high


def _check_branches(p_outcome: np.ndarray) -> None:
    if np.count_nonzero(p_outcome <= 0.0):
        raise RuntimeError("sampled a zero-probability branch")


def measure_rows(
    states: np.ndarray, qubit: int, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``measure_computational`` of ``qubit`` in every row, outcome 1 where u < P(1).

    Returns the outcome bits and the renormalized collapsed rows.
    """
    one, low, high = _one_columns(qubit)
    probs = np.abs(states) ** 2
    # added in index order, as measure_computational's sum adds them
    p_one = probs[:, low] + probs[:, high]
    ones = u < p_one
    p_outcome = np.where(ones, p_one, 1.0 - p_one)
    _check_branches(p_outcome)
    collapsed = np.where(one == ones[:, None], states, 0.0) / np.sqrt(p_outcome)[:, None]
    return ones.astype(np.intp), collapsed


def measure_rows_both(states: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``measure_rows`` of the travel qubit, then of the home qubit, in every row.

    The travel outcome is 1 where ``u[:, 0]`` < P(1), as in
    ``measure_rows``; the home outcome is 1 where ``u[:, 1]`` is below
    the home qubit's P(1) given that travel outcome.  Both come from the
    one array of Born weights, with no collapsed rows built.  Returns
    the (travel, home) outcome bits.
    """
    _, low, high = _one_columns(TRAVEL)
    probs = np.abs(states) ** 2
    p_one = probs[:, low] + probs[:, high]
    travel = u[:, 0] < p_one
    p_travel = np.where(travel, p_one, 1.0 - p_one)
    _check_branches(p_travel)
    # the home qubit is 1 at index home_low with the travel qubit 0 and
    # at home_high with it 1
    _, home_low, home_high = _one_columns(HOME)
    p_home = np.where(travel, probs[:, home_high], probs[:, home_low]) / p_travel
    home = u[:, 1] < p_home
    _check_branches(np.where(home, p_home, 1.0 - p_home))
    return travel.astype(np.intp), home.astype(np.intp)


def measure_rows_in_basis(
    states: np.ndarray,
    qubit: int,
    basis: tuple[PureState, PureState],
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``measure_in_basis`` of ``qubit`` in every row, all rows in one basis.

    Returns the index of the basis state found in each row and the
    collapsed rows.
    """
    b0, b1 = basis
    rows = states.shape[0]
    inner = 1 << (1 - qubit)
    view = states.reshape(rows, -1, 2, inner)
    lo, hi = view[:, :, 0, :], view[:, :, 1, :]
    coeff0 = b0.amps[0].conjugate() * lo + b0.amps[1].conjugate() * hi
    coeff1 = b1.amps[0].conjugate() * lo + b1.amps[1].conjugate() * hi
    p_one = (np.abs(coeff1) ** 2).reshape(rows, -1).sum(axis=1)
    ones = u < p_one
    p_outcome = np.where(ones, p_one, 1.0 - p_one)
    _check_branches(p_outcome)
    found = ones[:, None, None]
    scaled = np.where(found, coeff1, coeff0) / np.sqrt(p_outcome)[:, None, None]
    collapsed = np.empty(view.shape, dtype=np.complex128)
    collapsed[:, :, 0, :] = np.where(found, b1.amps[0], b0.amps[0]) * scaled
    collapsed[:, :, 1, :] = np.where(found, b1.amps[1], b0.amps[1]) * scaled
    return ones.astype(np.intp), collapsed.reshape(rows, 4)


def bell_sample_rows(states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Bell outcome of every row, as its index in ``BELL_ORDER``.

    The first outcome whose cumulative weight exceeds u, as in
    ``bell_measure``.
    """
    weights = _bell_weights(states)
    acc = weights[:, 0]
    outcomes = (acc <= u).astype(np.intp)
    for k in (1, 2):
        acc = acc + weights[:, k]
        outcomes += acc <= u
    return outcomes


def discrimination_basis(
    s0: PureState, s1: PureState
) -> tuple[PureState, PureState] | None:
    """Optimal two-outcome basis for telling single-qubit s0 from s1.

    Diagonalizes |s0><s0| - |s1><s1|; the eigenvector with positive
    eigenvalue votes for s0.  Returns None when the operator vanishes
    (indistinguishable pair), in which case guessing is a fair coin.
    """
    if s0.n_qubits != 1 or s1.n_qubits != 1:
        raise ValueError("discrimination operates on single qubits")
    gap = np.outer(s0.amps, s0.amps.conj()) - np.outer(s1.amps, s1.amps.conj())
    eigvals, eigvecs = np.linalg.eigh(gap)
    if np.abs(eigvals).max() < 1e-9:
        return None
    # eigh sorts ascending, so column 1 carries the positive eigenvalue
    plus = _trusted_state(np.ascontiguousarray(eigvecs[:, 1]), 1)
    minus = _trusted_state(np.ascontiguousarray(eigvecs[:, 0]), 1)
    return plus, minus


@dataclass(frozen=True)
class NoNoise:
    """Identity channel."""


@dataclass(frozen=True)
class BitFlip:
    """Applies X with probability p."""

    p: float

    def __post_init__(self) -> None:
        _check_probability(self.p)


@dataclass(frozen=True)
class PhaseFlip:
    """Applies Z with probability p."""

    p: float

    def __post_init__(self) -> None:
        _check_probability(self.p)


@dataclass(frozen=True)
class Depolarizing:
    """Leaves the qubit alone with probability 1-p, else X, Y or Z equiprobably."""

    p: float

    def __post_init__(self) -> None:
        _check_probability(self.p)


NoiseModel = NoNoise | BitFlip | PhaseFlip | Depolarizing


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")


def apply_noise(
    state: PureState, model: NoiseModel, qubit: int, rng: np.random.Generator
) -> PureState:
    """Sample one Pauli-channel trajectory on the given qubit.

    NoNoise consumes no randomness; the flip channels consume one draw.
    """
    if isinstance(model, NoNoise):
        return state
    if isinstance(model, BitFlip):
        if rng.random() < model.p:
            return apply_pauli_x(state, qubit)
        return state
    if isinstance(model, PhaseFlip):
        if rng.random() < model.p:
            return apply_pauli_z(state, qubit)
        return state
    if isinstance(model, Depolarizing):
        u = rng.random()
        keep = 1.0 - model.p
        if u < keep:
            return state
        branch = min(2, int(3.0 * (u - keep) / model.p))
        if branch == 0:
            return apply_pauli_x(state, qubit)
        if branch == 1:
            return apply_pauli_y(state, qubit)
        return apply_pauli_z(state, qubit)
    raise ValueError(f"unknown noise model {model!r}")


def noise_paulis(model: NoiseModel, u: np.ndarray) -> np.ndarray:
    """The Pauli that ``apply_noise`` picks from each uniform in ``u``.

    ``model`` is one of the flip channels; ``NoNoise`` draws nothing.
    """
    if isinstance(model, BitFlip):
        return np.where(u < model.p, PAULI_X, PAULI_I)
    if isinstance(model, PhaseFlip):
        return np.where(u < model.p, PAULI_Z, PAULI_I)
    if isinstance(model, Depolarizing):
        if model.p == 0.0:  # every uniform keeps the qubit; the branch divides by p
            return np.full(u.shape, PAULI_I)
        keep = 1.0 - model.p
        branch = np.minimum(2, (3.0 * (u - keep) / model.p).astype(np.intp))
        return np.where(u < keep, PAULI_I, PAULI_X + branch)
    raise ValueError(f"unknown noise model {model!r}")

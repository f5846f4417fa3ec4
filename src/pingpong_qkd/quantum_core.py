"""Small-register pure-state simulation for two-qubit protocol analysis.

States are dense complex statevectors over n qubits with qubit 0 as the
most significant index bit: for two qubits the basis order is
|00>, |01>, |10>, |11> with the first (home) qubit leftmost.  States
are immutable: amplitude arrays are frozen read-only, and a kernel never
changes the state it is given.  Randomness always comes from an explicit
numpy Generator passed by the caller, never from module-level state.

The physics is written once, in the row kernels (``apply_paulis``,
``apply_pauli_pairs``, ``measure_rows``, ``measure_rows_both``,
``measure_rows_in_basis``, ``bell_sample_rows``).  They act on a
(rows, 2**n) complex array holding one register per row, in the same
basis order, read the register width from the array, and take one
uniform per row and measurement from the caller: outcome 1 where the
uniform is below its Born weight.  Sessions and coded blocks share them.

The single-state kernels (``apply_pauli_x``/``_y``/``_z``,
``apply_noise``, ``measure_computational``, ``measure_in_basis``,
``bell_measure``) are a bounded memo over the row kernels.  Each state
keeps, in a private memo, what they derived from it, filled on first
use by a row kernel, or a piece of one, applied to the state as a
one-row array:

* the Pauli images, keyed by Pauli index and qubit;
* ``measure_computational``: P(1), keyed by qubit, and each collapsed
  state, built the first time its outcome is drawn;
* ``measure_in_basis``: P(1) and the collapsed states for the last basis
  used on that qubit (a call in another basis replaces them);
* ``bell_measure``: the cumulative Bell weights.

A kernel may therefore return a shared state rather than a new one.
Every call draws its own uniform and compares it with the cached weight,
so a call gives the outcome and amplitudes its row kernel gives for the
same uniform, whatever was cached.  The zero-probability and width
checks run on every call, and invalid qubits and bases are never
cached, so they raise on every call.  The memo is bounded: it holds a
fixed set of keys, and a state more than ``_MEMO_DEPTH`` kernel steps
from one built directly keeps no successor states, so a loop that feeds
each result back into a kernel cannot chain an unbounded number of
states to a long-lived one.  A state lives as long as whatever refers
to it; the attack states of each angle sit under fixed-size caches in
``attacks``.  Sharing between threads stays safe: a memo entry is a
pure function of the immutable amplitudes (and, for
``measure_in_basis``, of the basis stored in the same entry, with its
collapsed states), stored by one assignment, so two threads that fill
the same entry at once store equal values and either one is correct.
"""

from __future__ import annotations

from bisect import bisect_right
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

# Pauli indices for the row kernels and the memo keys of the Pauli images
PAULI_I, PAULI_X, PAULI_Y, PAULI_Z = range(4)

# a state this many kernel steps from one built directly keeps no
# successor states; a session round takes at most three steps from
# |psi-> or from a forged pair
_MEMO_DEPTH = 3


class PureState:
    """Immutable normalized statevector on ``n_qubits`` qubits."""

    __slots__ = ("amps", "n_qubits", "_memo", "_depth")

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
        self._memo = {}
        self._depth = 0

    def __repr__(self) -> str:
        return f"PureState({np.array2string(self.amps, precision=6)})"


# A PureState with n_qubits == 2; operations that need the home/travel
# pair check the width at runtime.
TwoQubitState = PureState


def _trusted_state(amps: np.ndarray, n_qubits: int, depth: int = 0) -> PureState:
    # internal constructor for amplitudes already known to be normalized
    state = object.__new__(PureState)
    amps.flags.writeable = False
    state.amps = amps
    state.n_qubits = n_qubits
    state._memo = {}
    state._depth = depth
    return state


def _successor(state: PureState, store, key, amps: np.ndarray) -> PureState:
    # the state a kernel derived from ``state``, kept in ``store`` (its
    # memo or a part of it) under ``key`` unless ``state`` lies too deep
    new = _trusted_state(amps, state.n_qubits, state._depth + 1)
    if state._depth < _MEMO_DEPTH:
        store[key] = new
    return new


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


def _bit_mask(width: int, qubit: int) -> int:
    # the index bit of ``qubit`` in a register of ``width`` amplitudes
    n = width.bit_length() - 1
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} outside register of {n}")
    return 1 << (n - 1 - qubit)


@lru_cache(maxsize=None)
def _ones(width: int, qubit: int) -> np.ndarray:
    # True at the indices where ``qubit`` is 1
    one = (np.arange(width) & _bit_mask(width, qubit)) != 0
    one.flags.writeable = False
    return one


def _pauli_image(state: PureState, pauli: int, qubit: int) -> PureState:
    # fills the memo entry (pauli, qubit) from apply_paulis; the kernels
    # read the entry with ``memo.get(...) or``, as a state is never falsy
    new = apply_paulis(state.amps[None], pauli, qubit)[0]
    return _successor(state, state._memo, (pauli, qubit), new)


def apply_pauli_x(state: PureState, qubit: int) -> PureState:
    """Bit flip X on one qubit."""
    return state._memo.get((PAULI_X, qubit)) or _pauli_image(state, PAULI_X, qubit)


def apply_pauli_y(state: PureState, qubit: int) -> PureState:
    """Pauli Y on one qubit: Y|0> = i|1>, Y|1> = -i|0>."""
    return state._memo.get((PAULI_Y, qubit)) or _pauli_image(state, PAULI_Y, qubit)


def apply_pauli_z(state: PureState, qubit: int) -> PureState:
    """Phase flip Z on one qubit: negates amplitudes where the qubit is 1."""
    return state._memo.get((PAULI_Z, qubit)) or _pauli_image(state, PAULI_Z, qubit)


def measure_computational(
    state: PureState, qubit: int, rng: np.random.Generator
) -> tuple[int, PureState]:
    """Projective Z-basis measurement of one qubit.

    Returns the sampled outcome bit and the renormalized collapsed state.
    """
    memo = state._memo
    p_one = memo.get(("p1", qubit))
    if p_one is None:
        p_one = memo[("p1", qubit)] = float(_p_one(state.amps[None], qubit)[0])
    u = rng.random()
    outcome = 1 if u < p_one else 0
    p_outcome = p_one if outcome == 1 else 1.0 - p_one
    if p_outcome <= 0.0:
        raise RuntimeError("sampled a zero-probability branch")
    key = ("collapsed", qubit, outcome)
    collapsed = memo.get(key)
    if collapsed is None:
        # the same uniform draws the same outcome from the same weight
        _, rows = measure_rows(state.amps[None], qubit, np.array([u]))
        collapsed = _successor(state, memo, key, rows[0])
    return outcome, collapsed


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
    memo = state._memo
    key = ("basis", qubit)
    cached = memo.get(key)
    if cached is None or cached[0] != basis:
        b0, b1 = basis
        if b0.n_qubits != 1 or b1.n_qubits != 1:
            raise ValueError("basis states must be single qubits")
        if abs(np.vdot(b0.amps, b1.amps)) > 1e-10:
            raise ValueError("basis states are not orthogonal")
        _, p_one = _basis_weights(state.amps[None], qubit, (b0, b1))
        # the collapsed states live inside the basis's own entry, so one
        # found under another basis is never returned
        cached = memo[key] = ((b0, b1), float(p_one[0]), [None, None])
    basis, p_one, collapsed_by_outcome = cached
    u = rng.random()
    outcome = 1 if u < p_one else 0
    p_outcome = p_one if outcome == 1 else 1.0 - p_one
    if p_outcome <= 0.0:
        raise RuntimeError("sampled a zero-probability branch")
    collapsed = collapsed_by_outcome[outcome]
    if collapsed is None:
        _, rows = measure_rows_in_basis(state.amps[None], qubit, basis, np.array([u]))
        collapsed = _successor(state, collapsed_by_outcome, outcome, rows[0])
    return outcome, collapsed


def bell_measure(state: TwoQubitState, rng: np.random.Generator) -> BellOutcome:
    """Sample a full Bell-basis measurement of a two-qubit register.

    The outcome is the first in ``BELL_ORDER`` whose cumulative weight
    exceeds the uniform drawn, and the last if none does.
    """
    _require_two_qubits(state)
    cumulative = state._memo.get("bell")
    if cumulative is None:
        cumulative = tuple(float(acc[0]) for acc in _bell_cumulative(state.amps[None]))
        state._memo["bell"] = cumulative
    return BELL_ORDER[bisect_right(cumulative, rng.random())]


@lru_cache(maxsize=None)
def _pauli_tables(width: int, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    # row g: the index gather and the phase of Pauli g on ``qubit``
    same = np.arange(width)
    flip = same ^ _bit_mask(width, qubit)
    one = _ones(width, qubit)
    perm = np.stack([same, flip, flip, same])
    phase = np.stack(
        [np.ones(width), np.ones(width), np.where(one, 1j, -1j), np.where(one, -1.0, 1.0)]
    ).astype(np.complex128)
    perm.flags.writeable = False
    phase.flags.writeable = False
    return perm, phase


def apply_paulis(states: np.ndarray, paulis: np.ndarray | int, qubit: int) -> np.ndarray:
    """Apply Pauli ``paulis[r]`` (``PAULI_I`` .. ``PAULI_Z``) to ``qubit`` of row r."""
    perm, phase = _pauli_tables(states.shape[1], qubit)
    rows = np.arange(states.shape[0])[:, None]
    return states[rows, perm[paulis]] * phase[paulis]


@lru_cache(maxsize=None)
def _pauli_pair_tables(width: int, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    # entry [a, b]: Pauli a and then Pauli b on ``qubit``, as one index
    # gather and one phase; the phases are all 1, -1, i or -i, so
    # folding them into one product rounds nothing
    perm, phase = _pauli_tables(width, qubit)
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
    perm, phase = _pauli_pair_tables(states.shape[1], qubit)
    rows = np.arange(states.shape[0])[:, None]
    return states[rows, perm[first, second]] * phase[first, second]


def _p_one(states: np.ndarray, qubit: int) -> np.ndarray:
    # the Born weight of outcome 1 of ``qubit`` in every row
    return (np.abs(states[:, _ones(states.shape[1], qubit)]) ** 2).sum(axis=1)


def _draw(p_one: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # outcome 1 where u < P(1), and the weight of the outcome drawn
    ones = u < p_one
    p_outcome = np.where(ones, p_one, 1.0 - p_one)
    if np.count_nonzero(p_outcome <= 0.0):
        raise RuntimeError("sampled a zero-probability branch")
    return ones, p_outcome


def measure_rows(
    states: np.ndarray, qubit: int, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Z-basis measurement of ``qubit`` in every row, outcome 1 where u < P(1).

    Returns the outcome bits and the renormalized collapsed rows.
    """
    ones, p_outcome = _draw(_p_one(states, qubit), u)
    keep = _ones(states.shape[1], qubit) == ones[:, None]
    collapsed = np.where(keep, states, 0.0) / np.sqrt(p_outcome)[:, None]
    return ones.astype(np.intp), collapsed


@lru_cache(maxsize=None)
def _control_masks(width: int) -> np.ndarray:
    # columns: the masks where the travel qubit is 1, and where the home
    # qubit is 1 with the travel qubit 1 and with it 0, as 0/1 floats
    travel, home = _ones(width, TRAVEL), _ones(width, HOME)
    masks = np.stack([travel, home & travel, home & ~travel], axis=1).astype(np.float64)
    masks.flags.writeable = False
    return masks


def measure_rows_both(states: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``measure_rows`` of the travel qubit, then of the home qubit, in every pair.

    The travel outcome is 1 where ``u[:, 0]`` < P(1), as in
    ``measure_rows``; the home outcome is 1 where ``u[:, 1]`` is below
    the home qubit's P(1) given that travel outcome.  Both come from the
    one array of Born weights, with no collapsed rows built, so the
    conditional weight is a quotient of Born weights rather than the
    weight of a renormalized row, which can differ in the last bit.
    Returns the (travel, home) outcome bits.
    """
    # a pair's mask columns hold at most two ones, so each product adds
    # at most two weights and rounds as their sum in measure_rows does
    weights = (np.abs(states) ** 2) @ _control_masks(states.shape[1])
    travel, p_travel = _draw(weights[:, 0], u[:, 0])
    home, _ = _draw(np.where(travel, weights[:, 1], weights[:, 2]) / p_travel, u[:, 1])
    return travel.astype(np.intp), home.astype(np.intp)


def _basis_weights(
    states: np.ndarray, qubit: int, basis: tuple[PureState, PureState]
) -> tuple[list[np.ndarray], np.ndarray]:
    # each row's coefficients on the two basis states of ``qubit``, as
    # (rows, prefix, suffix) arrays, and the Born weight of basis state 1
    rows = states.shape[0]
    view = states.reshape(rows, -1, 2, _bit_mask(states.shape[1], qubit))
    lo, hi = view[:, :, 0, :], view[:, :, 1, :]
    coeffs = [b.amps[0].conjugate() * lo + b.amps[1].conjugate() * hi for b in basis]
    return coeffs, (np.abs(coeffs[1]) ** 2).reshape(rows, -1).sum(axis=1)


def measure_rows_in_basis(
    states: np.ndarray,
    qubit: int,
    basis: tuple[PureState, PureState],
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement of ``qubit`` in every row, all rows in one orthonormal basis.

    Returns the index of the basis state found in each row and the
    collapsed rows.
    """
    coeffs, p_one = _basis_weights(states, qubit, basis)
    ones, p_outcome = _draw(p_one, u)
    scaled = np.where(ones[:, None, None], coeffs[1], coeffs[0]) / np.sqrt(p_outcome)[:, None, None]
    found = np.where(ones[:, None], basis[1].amps, basis[0].amps)
    collapsed = found[:, None, :, None] * scaled[:, :, None, :]
    return ones.astype(np.intp), collapsed.reshape(states.shape[0], -1)


def _bell_weights(amps: np.ndarray) -> np.ndarray:
    # Born weight of each Bell state, in BELL_ORDER, for (..., 4) amplitudes
    return np.abs(amps @ _BELL_MATRIX.T) ** 2


def _bell_cumulative(states: np.ndarray) -> list[np.ndarray]:
    # the running sums of the Bell weights of every row, over the first
    # one, two and three outcomes in BELL_ORDER
    weights = _bell_weights(states)
    sums = [weights[:, 0]]
    for k in (1, 2):
        sums.append(sums[-1] + weights[:, k])
    return sums


def bell_sample_rows(states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Bell outcome of every row, as its index in ``BELL_ORDER``.

    The first outcome whose cumulative weight exceeds u, and the last if
    none does.
    """
    first, second, third = _bell_cumulative(states)
    return (first <= u).astype(np.intp) + (second <= u) + (third <= u)


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
        object.__setattr__(self, "p", _checked_probability(self.p))


@dataclass(frozen=True)
class PhaseFlip:
    """Applies Z with probability p."""

    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _checked_probability(self.p))


@dataclass(frozen=True)
class Depolarizing:
    """Leaves the qubit alone with probability 1-p, else X, Y or Z equiprobably."""

    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _checked_probability(self.p))


NoiseModel = NoNoise | BitFlip | PhaseFlip | Depolarizing


def _checked_probability(p: float) -> float:
    # kept as a Python float, so the spec a model formats parses back
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    return float(p)


def apply_noise(
    state: PureState, model: NoiseModel, qubit: int, rng: np.random.Generator
) -> PureState:
    """Sample one Pauli-channel trajectory on the given qubit.

    NoNoise consumes no randomness; the flip channels consume one draw.
    """
    if isinstance(model, NoNoise):
        return state
    if isinstance(model, BitFlip):
        pauli = PAULI_X if rng.random() < model.p else PAULI_I
    elif isinstance(model, PhaseFlip):
        pauli = PAULI_Z if rng.random() < model.p else PAULI_I
    elif isinstance(model, Depolarizing):
        u = rng.random()
        keep = 1.0 - model.p
        pauli = PAULI_I if u < keep else PAULI_X + min(2, int(3.0 * (u - keep) / model.p))
    else:
        raise ValueError(f"unknown noise model {model!r}")
    if pauli == PAULI_I:
        return state
    return state._memo.get((pauli, qubit)) or _pauli_image(state, pauli, qubit)


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

"""GF(2) linear codes, nested code pairs, and the coded QKD protocol.

The key-distribution variant of the two-way protocol transmits blocks
of n + m + l pairs: n carry a random string x, m are sacrificed to the
outgoing-leg control check, and l decoys (always encoding 0) estimate
the return-leg error rate.  A nested pair of classical codes
C2 inside C1 turns the surviving noisy string into a shared secret: the
key is the coset label of a random codeword v in C1/C2, and single-bit
channel errors are absorbed by syndrome decoding with C1.

Codes are row-space objects over GF(2).  Words and codes are immutable
and hashable, and every row reduction goes through ``_gf2_eliminate``.
Each code object builds its tables once, on first use, and keeps them
as attributes: the generator and parity-check matrices, and the dense
syndrome table of its decoder (``_SyndromeTable``), a coset leader for
every syndrome.  A nested pair keeps its coset label map the same way.
``run_qkd_block`` works on these tables with uint8 arrays, and the
public ``encode``, ``syndrome_decode`` and ``coset_key`` are thin
wrappers over the same tables, converting ``BinaryWord`` at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .attacks import EveStrategy, NoEve
from .pingpong import _check_channel, control_stage, return_stage, send_stage
from .quantum_core import NoiseModel, NoNoise

# exhaustive enumeration and syndrome tables are capped at this length; a
# syndrome table has 2^(n - k) packed uint32 leaders and as many mask
# bytes, at most 40 MB
MAX_CODE_BITS = 24

# cap on the n + m + l pairs of one block; a block peaks near 300 bytes
# per pair, so this bounds it at about 300 MB
MAX_BLOCK_PAIRS = 10**6


@dataclass(frozen=True)
class BinaryWord:
    """Fixed-length bit string; addition is bitwise XOR."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0:
            raise ValueError("empty word")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"word bits must be 0 or 1: {self.bits!r}")

    @classmethod
    def from_string(cls, text: str) -> "BinaryWord":
        clean = text.strip()
        if not clean or set(clean) - {"0", "1"}:
            raise ValueError(f"word must be nonempty characters in 01, got {text!r}")
        return cls(tuple(int(ch) for ch in clean))

    @classmethod
    def zero(cls, n: int) -> "BinaryWord":
        return cls((0,) * n)

    def __len__(self) -> int:
        return len(self.bits)

    def __xor__(self, other: "BinaryWord") -> "BinaryWord":
        if len(other) != len(self):
            raise ValueError("XOR of words with different lengths")
        return BinaryWord(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def weight(self) -> int:
        return sum(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def _word_array(word: BinaryWord) -> np.ndarray:
    return np.array(word.bits, dtype=np.uint8)


def _array_word(arr: np.ndarray) -> BinaryWord:
    return BinaryWord(tuple(arr.tolist()))


@dataclass(frozen=True)
class BinaryCode:
    """Linear code over GF(2) given by linearly independent generator rows."""

    n: int
    k: int
    generators: tuple[BinaryWord, ...]

    def __post_init__(self) -> None:
        if self.k < 1 or self.k > self.n:
            raise ValueError(f"dimension {self.k} invalid for length {self.n}")
        if len(self.generators) != self.k:
            raise ValueError(f"expected {self.k} generators, got {len(self.generators)}")
        if any(len(g) != self.n for g in self.generators):
            raise ValueError("generator length differs from block length")
        if len(_gf2_eliminate(self._generator)[1]) != self.k:
            raise ValueError("generators are linearly dependent over GF(2)")

    @classmethod
    def from_rows(cls, rows: list[str] | tuple[str, ...]) -> "BinaryCode":
        if not rows:
            raise ValueError("a code needs at least one generator row")
        words = tuple(BinaryWord.from_string(r) for r in rows)
        return cls(n=len(words[0]), k=len(words), generators=words)

    @cached_property
    def _generator(self) -> np.ndarray:
        g = np.array([w.bits for w in self.generators], dtype=np.uint8)
        g.flags.writeable = False
        return g

    @cached_property
    def _check(self) -> np.ndarray:
        return _parity_check(self)

    @cached_property
    def _decoder(self) -> "_SyndromeTable":
        return _SyndromeTable(self)


def _gf2_eliminate(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduce a copy of ``matrix`` over GF(2); returns (rref, pivot columns)."""
    m = (matrix.copy() & 1).astype(np.uint8)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        hit = np.nonzero(m[r:, c])[0]
        if hit.size == 0:
            continue
        lead = r + int(hit[0])
        if lead != r:
            m[[r, lead]] = m[[lead, r]]
        others = np.nonzero(m[:, c])[0]
        for i in others:
            if i != r:
                m[i] ^= m[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def _parity_check(code: BinaryCode) -> np.ndarray:
    """Basis of the dual space, as rows h with G h^T = 0.

    With G reduced to [I | A] on its pivot columns, H is [A^T | I]:
    one row per free column.
    """
    rref, pivots = _gf2_eliminate(code._generator)
    free = [c for c in range(code.n) if c not in pivots]
    check = np.zeros((len(free), code.n), dtype=np.uint8)
    check[:, free] = np.eye(len(free), dtype=np.uint8)
    check[:, pivots] = rref[:, free].T
    check.flags.writeable = False
    return check


def _span(g: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Codewords of messages start..stop-1, message bit i selecting row i of g."""
    msgs = np.arange(start, stop, dtype=np.uint32)
    bits = ((msgs[:, None] >> np.arange(g.shape[0], dtype=np.uint32)) & 1).astype(np.uint8)
    return (bits @ g) & 1


def encode(code: BinaryCode, message: BinaryWord) -> BinaryWord:
    """Generator-matrix encoding: XOR of the generators picked by message bits."""
    if len(message) != code.k:
        raise ValueError(f"message length {len(message)} differs from dimension {code.k}")
    return _array_word((_word_array(message) @ code._generator) & 1)


def contains(code: BinaryCode, word: BinaryWord) -> bool:
    """True iff the word lies in the code's row space over GF(2)."""
    if len(word) != code.n:
        raise ValueError(f"word length {len(word)} differs from block length {code.n}")
    return not ((code._check @ _word_array(word)) & 1).any()


def min_distance(code: BinaryCode) -> int:
    """Minimum Hamming weight over the nonzero codewords, by enumeration."""
    if code.n > MAX_CODE_BITS:
        raise ValueError(f"block length {code.n} exceeds the {MAX_CODE_BITS}-bit enumeration cap")
    g = code._generator
    total = 1 << code.k
    chunk = 1 << 16
    return min(
        int(_span(g, start, min(start + chunk, total)).sum(axis=1).min())
        for start in range(1, total, chunk)
    )


class _SyndromeTable:
    """Syndrome decoding of one code, by a dense table of coset leaders.

    A word's syndrome index is the integer whose bit i is bit i of its
    syndrome H w, H being ``_parity_check``.  For the syndrome index s
    of each error within the packing radius floor((d - 1) / 2),
    ``leaders[s]`` is that error, packed with bit j for position j, and
    ``correctable[s]`` is True; every other entry is 0 and False.
    Inside the radius no two errors share a syndrome, since their sum
    would be a nonzero codeword lighter than d, so the table fills
    without collisions.
    """

    def __init__(self, code: BinaryCode) -> None:
        if code.n > MAX_CODE_BITS:
            raise ValueError(
                f"block length {code.n} exceeds the {MAX_CODE_BITS}-bit enumeration cap"
            )
        # n <= 24, so packed words and syndrome indices fit in uint32
        self.check = np.ascontiguousarray(code._check.T)
        self.place = 1 << np.arange(self.check.shape[1], dtype=np.uint32)
        self.positions = np.arange(code.n, dtype=np.uint32)
        self.leaders = np.zeros(1 << self.check.shape[1], dtype=np.uint32)
        self.correctable = np.zeros(self.leaders.size, dtype=bool)
        # the syndrome index of each single-bit error
        columns = self.check @ self.place
        bits = 1 << self.positions
        errors = syndromes = np.zeros(1, dtype=np.uint32)
        for weight in range(((min_distance(code) - 1) // 2) + 1):
            if weight:
                # each error of the last weight, with one bit set above its highest
                grow = [errors < bit for bit in bits]
                errors = np.concatenate([errors[g] | bit for g, bit in zip(grow, bits)])
                syndromes = np.concatenate([syndromes[g] ^ c for g, c in zip(grow, columns)])
            self.leaders[syndromes] = errors
            self.correctable[syndromes] = True
        for table in (self.check, self.place, self.positions, self.leaders, self.correctable):
            table.flags.writeable = False

    def decode(self, word: np.ndarray) -> np.ndarray | None:
        """The codeword within the packing radius of a uint8 word, or None."""
        syndrome = ((word @ self.check) & 1) @ self.place
        if not self.correctable[syndrome]:
            return None
        return word ^ ((self.leaders[syndrome] >> self.positions) & 1)


def syndrome_decode(c1: BinaryCode, word: BinaryWord) -> BinaryWord | None:
    """Correct ``word`` to the unique codeword within the packing radius.

    Returns None when no codeword lies within floor((d-1)/2) flips; the
    caller decides what a failure means.
    """
    if len(word) != c1.n:
        raise ValueError(f"word length {len(word)} differs from block length {c1.n}")
    corrected = c1._decoder.decode(_word_array(word))
    return None if corrected is None else _array_word(corrected)


@dataclass(frozen=True)
class NestedCodePair:
    """Codes C2 strictly inside C1 on the same block length."""

    c1: BinaryCode
    c2: BinaryCode

    def __post_init__(self) -> None:
        if self.c1.n != self.c2.n:
            raise ValueError("nested code violation: block lengths differ")
        if not self.c2.k < self.c1.k:
            raise ValueError("nested code violation: inner code must have smaller dimension")
        for g in self.c2.generators:
            if not contains(self.c1, g):
                raise ValueError(
                    f"nested code violation: inner generator {g} is outside the outer code"
                )

    @property
    def key_length(self) -> int:
        return self.c1.k - self.c2.k

    @cached_property
    def _labels(self) -> np.ndarray:
        return _label_map(self)


def _label_map(pair: NestedCodePair) -> np.ndarray:
    """The n x (k1 - k2) matrix L whose product (w @ L) & 1 labels any word w.

    The first independent rows of C2, then C1, then the unit vectors
    (the pivot columns of the stack's transpose) form a basis B of
    GF(2)^n whose rows k2..k1-1 complete C2 to C1.  Coordinates in B are w @ B^-1, and L keeps columns k2..k1-1 of
    B^-1.  On C1 that is the coset label.  The unit vectors complete
    the basis because a failed decode still needs a key-length label
    for its uncorrected word, which may lie outside C1.
    """
    n = pair.c1.n
    eye = np.eye(n, dtype=np.uint8)
    stack = np.concatenate([pair.c2._generator, pair.c1._generator, eye])
    basis = stack[_gf2_eliminate(stack.T)[1]]
    inverse = _gf2_eliminate(np.concatenate([basis, eye], axis=1))[0][:, n:]
    labels = inverse[:, pair.c2.k : pair.c1.k].copy()
    labels.flags.writeable = False
    return labels


def coset_key(pair: NestedCodePair, v: BinaryWord) -> BinaryWord:
    """Label of the coset v + C2 inside C1, as dim C1 - dim C2 bits.

    Constant on cosets, injective across them, and all-zero exactly on
    members of C2.
    """
    if not contains(pair.c1, v):
        raise ValueError(f"word {v} is not a codeword of the outer code")
    return _array_word((_word_array(v) @ pair._labels) & 1)


_MESSAGE, _CONTROL, _DECOY = range(3)


def _position_kinds(n: int, m: int, l: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random labeling with exactly n ``_MESSAGE``, m ``_CONTROL``, l ``_DECOY``."""
    if n < 1 or m < 1 or l < 1:
        raise ValueError(f"all position counts must be positive, got {(n, m, l)!r}")
    return np.repeat(np.arange(3), (n, m, l))[rng.permutation(n + m + l)]


@dataclass(frozen=True)
class QkdConfig:
    """Parameters of a coded key-distribution run.

    Abort thresholds default to floor(0.11 * count): the protocol
    tolerates at most an 0.11 observed error ratio on either check.
    A block holds at most ``MAX_BLOCK_PAIRS`` pairs, and ``eve`` and
    ``noise`` are type-checked as in ``pingpong.ProtocolConfig``.
    """

    pair: NestedCodePair
    m: int
    l: int
    t: int | None = None
    t_prime: int | None = None
    blocks: int = 1
    eve: EveStrategy = NoEve()
    noise: NoiseModel = NoNoise()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 1 or self.l < 1:
            raise ValueError(f"control and decoy counts must be positive, got {(self.m, self.l)!r}")
        pairs = self.pair.c1.n + self.m + self.l
        if pairs > MAX_BLOCK_PAIRS:
            raise ValueError(
                f"a block of n + m + l = {pairs} pairs exceeds the {MAX_BLOCK_PAIRS}-pair cap"
            )
        if self.blocks < 1:
            raise ValueError(f"block count must be positive, got {self.blocks!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if self.t is None:
            object.__setattr__(self, "t", int(np.floor(0.11 * self.m)))
        if self.t_prime is None:
            object.__setattr__(self, "t_prime", int(np.floor(0.11 * self.l)))
        if not 0 <= self.t <= self.m:
            raise ValueError(f"control threshold {self.t!r} outside [0, {self.m}]")
        if not 0 <= self.t_prime <= self.l:
            raise ValueError(f"decoy threshold {self.t_prime!r} outside [0, {self.l}]")
        _check_channel(self.eve, self.noise)


@dataclass(frozen=True)
class AbortedControl:
    """Outgoing-leg check failed: more than t control coincidences."""

    coincidences: int


@dataclass(frozen=True)
class AbortedDecoy:
    """Return-leg check failed: more than t' decoys decoded as 1."""

    ones: int


@dataclass(frozen=True)
class Completed:
    """Both checks passed and a key was extracted on each side."""

    alice_key: BinaryWord
    bob_key: BinaryWord
    decode_failures: int


QkdResult = AbortedControl | AbortedDecoy | Completed


def run_qkd_block(
    config: QkdConfig, rng: np.random.Generator, inject_message_flips: int = 0
) -> QkdResult:
    """Execute one block of the coded protocol.

    Sequence: draw the position labeling, Alice's n-bit string x and a
    random outer codeword v; send every pair out; check the control
    positions and abort past t coincidences; return the Message
    positions encoding x and the Decoys encoding 0; abort past t' decoy
    ones; finally Bob corrects r XOR (x XOR v) with the outer code and
    both sides take the coset label as the key.  The block's n + m + l
    pairs are one (n + m + l, 4) array that passes through
    ``pingpong.send_stage``, ``control_stage`` (the control rows) and
    ``return_stage`` (the message and decoy rows), the whole-array forms
    of a session round's legs.  The draw order is set out in the
    ``pingpong`` module docstring.  The words stay uint8 arrays through
    the code tables of ``pair.c1`` and ``pair``; only the two keys are
    built as ``BinaryWord``.

    ``inject_message_flips`` flips that many of Bob's decoded message
    bits at random distinct positions (drawn after decoding), modeling
    adversarial return-leg errors for error-correction tests.

    A failed syndrome decode is not an abort: it increments
    ``decode_failures`` and the uncorrected word's label is used, so the
    mismatch shows up in agreement statistics.
    """
    eve, noise = config.eve, config.noise
    pair = config.pair
    c1 = pair.c1
    n = c1.n
    if not 0 <= inject_message_flips <= n:
        raise ValueError(f"cannot flip {inject_message_flips!r} of {n} message bits")

    kinds = _position_kinds(n, config.m, config.l, rng)
    x = rng.integers(0, 2, size=n, dtype=np.uint8)
    v = (rng.integers(0, 2, size=c1.k, dtype=np.uint8) @ c1._generator) & 1

    states, intercept = send_stage(kinds.size, eve, noise, rng)

    control = kinds == _CONTROL
    coincidences = int(np.count_nonzero(control_stage(states[control], rng)))
    if coincidences > config.t:
        return AbortedControl(coincidences)

    # the returned rows are the message and decoy positions, in order
    returned = ~control
    message = kinds[returned] == _MESSAGE
    bits = np.zeros(message.size, dtype=np.uint8)
    bits[message] = x
    decoded = return_stage(states[returned], bits, intercept[returned], eve, noise, rng)

    r = decoded[message]
    decoy_ones = int(np.count_nonzero(decoded) - np.count_nonzero(r))
    if decoy_ones > config.t_prime:
        return AbortedDecoy(decoy_ones)

    if inject_message_flips:
        flips = rng.choice(n, size=inject_message_flips, replace=False)
        r[flips] ^= 1

    # Bob corrects his string plus the announced x XOR v
    w = r ^ x ^ v
    v_hat = c1._decoder.decode(w)
    labels = pair._labels
    return Completed(
        alice_key=_array_word((v @ labels) & 1),
        bob_key=_array_word(((w if v_hat is None else v_hat) @ labels) & 1),
        decode_failures=int(v_hat is None),
    )


@dataclass(frozen=True)
class QkdSessionReport:
    """Per-block results and aggregates for a multi-block run."""

    results: tuple[QkdResult, ...]
    n_blocks: int
    n_aborted_control: int
    n_aborted_decoy: int
    n_completed: int
    abort_rate: float
    n_agreed: int
    agreement_rate: float | None
    total_key_bits: int
    total_decode_failures: int


def run_qkd_session(config: QkdConfig) -> QkdSessionReport:
    """Run ``config.blocks`` independent blocks.

    Block i uses its own Generator seeded from (seed, i), so blocks are
    reproducible individually and the aggregate is order-independent.
    The aggregates are counted as the blocks run; ``results`` keeps
    every block's result, which the CLI writes out.
    """
    results = []
    aborted_control = aborted_decoy = completed = agreed = decode_failures = 0
    for i in range(config.blocks):
        result = run_qkd_block(config, np.random.default_rng([config.seed, i]))
        results.append(result)
        if isinstance(result, AbortedControl):
            aborted_control += 1
        elif isinstance(result, AbortedDecoy):
            aborted_decoy += 1
        else:
            completed += 1
            agreed += result.alice_key == result.bob_key
            decode_failures += result.decode_failures
    return QkdSessionReport(
        results=tuple(results),
        n_blocks=config.blocks,
        n_aborted_control=aborted_control,
        n_aborted_decoy=aborted_decoy,
        n_completed=completed,
        abort_rate=(aborted_control + aborted_decoy) / config.blocks,
        n_agreed=agreed,
        agreement_rate=agreed / completed if completed else None,
        total_key_bits=completed * config.pair.key_length,
        total_decode_failures=decode_failures,
    )


def load_code(path: str | Path) -> BinaryCode:
    """Read a code file: first line `n k`, then k rows of n characters in 01.

    Blank lines and lines starting with `#` are skipped.  Codes longer
    than ``MAX_CODE_BITS`` are refused here, since decoding one would
    fail only once a block completes.
    """
    text = Path(path).read_text()
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError(f"code file {path} is empty")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"code file {path}: header must be `n k`, got {lines[0]!r}")
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"code file {path}: header must be two integers") from None
    if n > MAX_CODE_BITS:
        raise ValueError(
            f"code file {path}: block length {n} exceeds the {MAX_CODE_BITS}-bit cap"
        )
    if k < 1:
        raise ValueError(f"code file {path}: dimension {k} must be at least 1")
    rows = lines[1:]
    if len(rows) != k:
        raise ValueError(f"code file {path}: expected {k} generator rows, found {len(rows)}")
    for row in rows:
        if len(row) != n or set(row) - {"0", "1"}:
            raise ValueError(f"code file {path}: bad generator row {row!r}")
    try:
        return BinaryCode.from_rows(rows)
    except ValueError as err:
        raise ValueError(f"code file {path}: {err}") from None


def bundled_code_path(name: str) -> Path:
    """Filesystem path of a code file shipped inside the package.

    Accepts the bare name or the full `<name>.code` filename.
    """
    from importlib.resources import files

    filename = name if name.endswith(".code") else name + ".code"
    path = Path(str(files(__package__).joinpath("codes", filename)))
    if not path.is_file():
        known = sorted(p.stem for p in path.parent.glob("*.code"))
        raise ValueError(f"no bundled code named {name!r}; available: {', '.join(known)}")
    return path

"""Tests for GF(2) codes, coset keys, and the coded key-distribution flow."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from oracles import all_words, coset_state, fidelity, nearest_codewords, xor
from pingpong_qkd.attacks import MeasureResend, NoEve, SymmetricEntangle
from pingpong_qkd.css_qkd import (
    AbortedControl,
    AbortedDecoy,
    BinaryCode,
    Completed,
    MAX_BLOCK_PAIRS,
    NestedCodePair,
    QkdConfig,
    bundled_code_path,
    contains,
    coset_key,
    encode,
    load_code,
    min_distance,
    run_qkd_block,
    run_qkd_session,
    syndrome_decode,
    _CONTROL,
    _DECOY,
    _MESSAGE,
    _position_kinds,
)
from pingpong_qkd.quantum_core import BitFlip, Depolarizing, NoNoise, PhaseFlip

HAMMING_ROWS = ("1000110", "0100101", "0010011", "0001111")
DUAL_ROWS = ("1101100", "1011010", "0111001")

# recorded when the keys were still word objects, so it pins values, not types
SEEDED_REPORTS_SHA256 = "3cea53e50295b0bd66d622336a5cd1b73ad7981c16484b1c0ec4c009bf3908e5"


@pytest.fixture(scope="module")
def hamming():
    return BinaryCode(HAMMING_ROWS)


@pytest.fixture(scope="module")
def dual(hamming):
    return BinaryCode(DUAL_ROWS)


@pytest.fixture(scope="module")
def pair(hamming, dual):
    return NestedCodePair(c1=hamming, c2=dual)


def all_codewords(code):
    return [encode(code, message) for message in all_words(code.k)]


def report_values(report):
    """A report as text built from its values alone: counts, then each
    block's kind, its tally and, for a completed block, its keys in 01."""
    blocks = []
    for result in report.results:
        if isinstance(result, AbortedControl):
            blocks.append(f"control {result.coincidences}")
        elif isinstance(result, AbortedDecoy):
            blocks.append(f"decoy {result.ones}")
        else:
            blocks.append(
                f"completed {result.alice_key} {result.bob_key} {result.decode_failures}"
            )
    counts = (
        report.n_blocks, report.n_aborted_control, report.n_aborted_decoy, report.n_completed,
        report.abort_rate, report.n_agreed, report.agreement_rate, report.total_key_bits,
        report.total_decode_failures,
    )
    return " ".join(map(repr, counts)) + "; " + "; ".join(blocks) + "\n"


def reed_muller_rows(order):
    """Rows of RM(order, 4): each monomial of degree <= order in x1..x4,
    evaluated at the 16 points of GF(2)^4 in lexicographic order."""
    points = list(itertools.product((0, 1), repeat=4))
    return tuple(
        "".join(str(int(all(p[i] for i in monomial))) for p in points)
        for degree in range(order + 1)
        for monomial in itertools.combinations(range(4), degree)
    )


@pytest.fixture(scope="module")
def rm_pair():
    return NestedCodePair(
        c1=BinaryCode(reed_muller_rows(2)),
        c2=BinaryCode(reed_muller_rows(1)),
    )


# texts that are not a word of the expected length: empty, a stray
# character, inner whitespace, one bit short
BAD_WORDS = ["", "01012", "0 1", "101"]


@pytest.mark.parametrize("text", BAD_WORDS)
@pytest.mark.parametrize(
    "use",
    [
        lambda pair, text: encode(pair.c1, text),
        lambda pair, text: contains(pair.c1, text),
        lambda pair, text: syndrome_decode(pair.c1, text),
        lambda pair, text: coset_key(pair, text),
        lambda pair, text: BinaryCode(("1000110", text)),
    ],
    ids=["encode", "contains", "syndrome_decode", "coset_key", "BinaryCode"],
)
def test_bad_word_text_is_refused(pair, use, text):
    with pytest.raises(ValueError):
        use(pair, text)


def test_surrounding_whitespace_is_ignored(hamming):
    assert encode(hamming, " 1011\n") == encode(hamming, "1011") == "1011010"
    assert BinaryCode((" 1000110", "0100101\n")).generators == ("1000110", "0100101")


class TestBinaryCode:
    def test_dimensions(self, hamming, dual):
        assert (hamming.n, hamming.k) == (7, 4)
        assert (dual.n, dual.k) == (7, 3)

    def test_rejects_dependent_rows(self):
        with pytest.raises(ValueError):
            BinaryCode(("1100", "0110", "1010"))

    def test_rejects_no_rows(self):
        with pytest.raises(ValueError, match="at least one generator"):
            BinaryCode(())
        with pytest.raises(ValueError, match="nonempty"):
            BinaryCode(("",))

    def test_full_space_contains_every_word(self):
        full = BinaryCode(("100", "010", "001"))
        assert min_distance(full) == 1
        for word in all_words(3):
            assert contains(full, word)
            assert syndrome_decode(full, word) == word

    def test_decoder_refuses_oversized_block(self):
        # construction is fine; only the enumerating decoder is capped
        wide = BinaryCode(("1" + "0" * 24,))
        with pytest.raises(ValueError):
            syndrome_decode(wide, "0" * 25)

    def test_encode_is_generator_combination(self, hamming):
        gens = [np.array([int(c) for c in row]) for row in HAMMING_ROWS]
        for bits in itertools.product((0, 1), repeat=4):
            word = encode(hamming, "".join(map(str, bits)))
            oracle = np.zeros(7, dtype=int)
            for bit, gen in zip(bits, gens):
                if bit:
                    oracle ^= gen
            assert word == "".join(map(str, oracle))

    def test_contains_matches_enumeration(self, hamming):
        codewords = set(all_codewords(hamming))
        assert len(codewords) == 16
        for text in all_words(7):
            assert contains(hamming, text) == (text in codewords)

    def test_min_distance_hamming(self, hamming):
        assert min_distance(hamming) == 3

    def test_min_distance_matches_enumeration(self, hamming, dual):
        for code in (hamming, dual):
            oracle = min(w.count("1") for w in all_codewords(code) if "1" in w)
            assert min_distance(code) == oracle

    def test_dual_is_constant_weight(self, dual):
        weights = {w.count("1") for w in all_codewords(dual)}
        assert weights == {0, 4}
        assert min_distance(dual) == 4


class TestSyndromeDecode:
    def test_codewords_are_fixed_points(self, hamming):
        for word in all_codewords(hamming):
            assert syndrome_decode(hamming, word) == word

    def test_single_errors_corrected(self, hamming):
        for word in all_codewords(hamming):
            for pos in range(7):
                flipped = xor(word, format(1 << pos, "07b"))
                assert syndrome_decode(hamming, flipped) == word

    def test_all_words_against_nearest_codeword_oracle(self):
        # the bundled outer code, as the coded protocol loads it
        bundled = load_code(bundled_code_path("hamming74"))
        codewords = all_codewords(bundled)
        for word in all_words(7):
            best = min(xor(word, c).count("1") for c in codewords)
            decoded = syndrome_decode(bundled, word)
            if best <= 1:
                # unique nearest codeword inside the correction radius
                nearest = [c for c in codewords if xor(word, c).count("1") == best]
                assert len(nearest) == 1
                assert decoded == nearest[0]
            else:
                assert decoded is None

    def test_hamming_is_perfect(self, hamming):
        # radius-1 balls around all 16 codewords tile GF(2)^7, so the
        # decoder never reports failure for this particular code
        hits = sum(syndrome_decode(hamming, word) is not None for word in all_words(7))
        assert hits == 128

    def test_distance_two_code_rejects_any_error(self):
        code = BinaryCode(("1100", "0110", "0011"))
        assert min_distance(code) == 2
        assert syndrome_decode(code, "1000") is None


class TestNestedCodePair:
    def test_valid_pair(self, pair):
        assert pair.key_length == 1

    def test_rejects_length_mismatch(self, hamming):
        short = BinaryCode(("110", "011"))
        with pytest.raises(ValueError, match="nested code violation"):
            NestedCodePair(c1=hamming, c2=short)

    def test_rejects_equal_dimension(self, hamming):
        with pytest.raises(ValueError, match="nested code violation"):
            NestedCodePair(c1=hamming, c2=hamming)

    def test_rejects_non_subset(self, hamming):
        outside = BinaryCode(("1000000", "0100000", "0010000"))
        with pytest.raises(ValueError, match="nested code violation"):
            NestedCodePair(c1=hamming, c2=outside)


class TestCosetKey:
    def test_partition_sizes(self, pair, hamming):
        keys = {}
        for word in all_codewords(hamming):
            keys.setdefault(coset_key(pair, word), []).append(word)
        assert sorted(len(v) for v in keys.values()) == [8, 8]
        assert set(keys) == {"0", "1"}

    def test_invariant_under_inner_code(self, pair, hamming, dual):
        for word in all_codewords(hamming):
            base = coset_key(pair, word)
            for inner in all_codewords(dual):
                assert coset_key(pair, xor(word, inner)) == base

    def test_inner_words_map_to_zero(self, pair, dual):
        for word in all_codewords(dual):
            assert coset_key(pair, word) == "0"

    def test_separates_cosets(self, pair, hamming, dual):
        inner = set(all_codewords(dual))
        for a in all_codewords(hamming):
            for b in all_codewords(hamming):
                same = xor(a, b) in inner
                assert (coset_key(pair, a) == coset_key(pair, b)) == same

    def test_rejects_non_member(self, pair):
        with pytest.raises(ValueError):
            coset_key(pair, "1000000")


class TestReedMullerPair:
    """RM(1,4) inside RM(2,4): [16,5,8] in [16,11,4], 6 key bits."""

    def test_dimensions_and_distances(self, rm_pair):
        assert (rm_pair.c1.n, rm_pair.c1.k, rm_pair.c2.k) == (16, 11, 5)
        assert rm_pair.key_length == 6
        assert min_distance(rm_pair.c2) == 8
        assert min_distance(rm_pair.c1) == 4

    def test_labels_split_outer_code_into_inner_cosets(self, rm_pair):
        classes = {}
        for word in all_codewords(rm_pair.c1):
            classes.setdefault(coset_key(rm_pair, word), []).append(word)
        assert len(classes) == 64
        assert all(len(members) == 32 for members in classes.values())
        # 32 words with one label, all in the coset of the first one:
        # each label class is exactly one coset of RM(1,4)
        for members in classes.values():
            assert all(contains(rm_pair.c2, xor(members[0], w)) for w in members)
        assert coset_key(rm_pair, "0" * 16) == "000000"

    def test_decoder_matches_nearest_codeword_oracle(self, rm_pair):
        # every word of GF(2)^16: the one codeword within distance 1, or a
        # reported failure
        c1 = rm_pair.c1
        for word, nearest in zip(all_words(16), nearest_codewords(all_codewords(c1))):
            assert syndrome_decode(c1, word) == nearest

    @pytest.mark.parametrize(
        "word, key",
        [
            # recorded with the earlier basis-walk solver: they pin which
            # label each coset gets, not only that labels separate cosets
            ("0001000100010001", "000001"),
            ("0000000000001111", "100000"),
            ("0001011101110001", "011111"),
            ("1011011110000100", "010101"),
            ("1000000100010111", "111111"),
            ("0001011101111110", "111111"),
        ],
    )
    def test_recorded_keys(self, rm_pair, word, key):
        assert coset_key(rm_pair, word) == key


class TestCodewordSuperposition:
    def test_uniform_support_on_coset(self, pair, hamming, dual):
        word = all_codewords(hamming)[5]
        probs = np.abs(coset_state(pair, word).amps) ** 2
        support = {i for i, p in enumerate(probs) if p > 1e-12}
        coset = {int(xor(word, inner), 2) for inner in all_codewords(dual)}
        assert support == coset
        np.testing.assert_allclose(
            [probs[i] for i in sorted(support)], [1 / 8] * 8, atol=1e-12
        )

    def test_same_coset_same_state(self, pair, hamming, dual):
        word = all_codewords(hamming)[3]
        shifted = xor(word, all_codewords(dual)[5])
        assert coset_key(pair, word) == coset_key(pair, shifted)
        same = fidelity(coset_state(pair, word), coset_state(pair, shifted))
        assert same == pytest.approx(1.0, abs=1e-12)

    def test_cross_coset_orthogonal(self, pair, hamming):
        words = all_codewords(hamming)
        a = words[0]
        b = next(w for w in words if coset_key(pair, w) != coset_key(pair, a))
        overlap = fidelity(coset_state(pair, a), coset_state(pair, b))
        assert overlap == pytest.approx(0.0, abs=1e-12)


class TestPositionAssignment:
    def test_exact_counts(self):
        kinds = _position_kinds(7, 20, 30, np.random.default_rng(0))
        assert kinds.size == 57
        assert [int((kinds == k).sum()) for k in (_MESSAGE, _CONTROL, _DECOY)] == [7, 20, 30]

    def test_positions_partition_the_block(self):
        kinds = _position_kinds(5, 5, 5, np.random.default_rng(1))
        combined = sorted(
            int(i) for k in (_MESSAGE, _CONTROL, _DECOY) for i in np.flatnonzero(kinds == k)
        )
        assert combined == list(range(15))

    def test_deterministic(self):
        a = _position_kinds(7, 10, 10, np.random.default_rng(5))
        b = _position_kinds(7, 10, 10, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestQkdConfig:
    def test_default_thresholds(self, pair):
        config = QkdConfig(pair=pair, m=200, l=50)
        assert config.t == 22
        assert config.t_prime == 5

    def test_explicit_thresholds(self, pair):
        config = QkdConfig(pair=pair, m=10, l=10, t=10, t_prime=0)
        assert config.t == 10
        assert config.t_prime == 0

    def test_validation(self, pair):
        with pytest.raises(ValueError):
            QkdConfig(pair=pair, m=0, l=10)
        with pytest.raises(ValueError):
            QkdConfig(pair=pair, m=10, l=0)
        with pytest.raises(ValueError):
            QkdConfig(pair=pair, m=10, l=10, t=11)
        with pytest.raises(ValueError):
            QkdConfig(pair=pair, m=10, l=10, blocks=0)

    def test_rejects_non_strategy_eve_and_non_model_noise(self, pair):
        with pytest.raises(TypeError, match="EveStrategy"):
            QkdConfig(pair=pair, m=5, l=5, eve="measure:theta=1.57")
        with pytest.raises(TypeError, match="NoiseModel"):
            QkdConfig(pair=pair, m=5, l=5, noise=MeasureResend(1.0))

    def test_block_size_cap(self, pair):
        # n + m + l pairs per block, with n = 7 for the Hamming pair
        QkdConfig(pair=pair, m=MAX_BLOCK_PAIRS - 8, l=1)
        with pytest.raises(ValueError, match=f"{MAX_BLOCK_PAIRS}-pair cap"):
            QkdConfig(pair=pair, m=MAX_BLOCK_PAIRS - 7, l=1)


class TestRunQkdBlock:
    def test_clean_block_completes_and_agrees(self, pair):
        config = QkdConfig(pair=pair, m=20, l=20, seed=0)
        for seed in range(10):
            result = run_qkd_block(config, np.random.default_rng(seed))
            assert isinstance(result, Completed)
            assert result.alice_key == result.bob_key
            assert result.decode_failures == 0
            assert len(result.alice_key) == 1

    def test_deterministic(self, pair):
        config = QkdConfig(pair=pair, m=20, l=20)
        a = run_qkd_block(config, np.random.default_rng(7))
        b = run_qkd_block(config, np.random.default_rng(7))
        assert a == b

    def test_single_flip_corrected(self, pair):
        config = QkdConfig(pair=pair, m=20, l=20)
        for seed in range(20):
            result = run_qkd_block(
                config, np.random.default_rng(seed), inject_message_flips=1
            )
            assert isinstance(result, Completed)
            assert result.alice_key == result.bob_key
            assert result.decode_failures == 0

    def test_double_flip_defeats_distance_three(self, pair):
        # two flips land in a different coset after decoding, because
        # the correction shifts by a weight-3 outer codeword that never
        # lies in the constant-weight-4 inner code
        config = QkdConfig(pair=pair, m=20, l=20)
        disagreements = 0
        for seed in range(20):
            result = run_qkd_block(
                config, np.random.default_rng(seed), inject_message_flips=2
            )
            assert isinstance(result, Completed)
            disagreements += result.alice_key != result.bob_key
        assert disagreements == 20

    def test_interception_aborts_on_control(self, pair):
        config = QkdConfig(
            pair=pair, m=200, l=50, eve=MeasureResend(math.pi / 2), seed=0
        )
        result = run_qkd_block(config, np.random.default_rng(0))
        assert isinstance(result, AbortedControl)
        assert result.coincidences > config.t

    def test_return_leg_disturbance_rate(self, pair):
        # disable the outgoing check to expose the decoy statistic: the
        # orthogonal interception flips each decoy with probability 1/2
        l = 2000
        config = QkdConfig(
            pair=pair, m=1, l=l, t=1, t_prime=0, eve=MeasureResend(math.pi / 2)
        )
        result = run_qkd_block(config, np.random.default_rng(3))
        assert isinstance(result, AbortedDecoy)
        assert abs(result.ones - l / 2) < 3 * math.sqrt(l * 0.25)

    def test_phase_noise_aborts_on_decoy(self, pair):
        # pure phase noise never disturbs the outgoing correlation but
        # flips decoded bits, so the decoy check is the one that fires
        config = QkdConfig(pair=pair, m=50, l=50, noise=PhaseFlip(0.5), seed=0)
        result = run_qkd_block(config, np.random.default_rng(1))
        assert isinstance(result, AbortedDecoy)

    def test_decode_failure_counted_not_fatal(self):
        # outer code with distance 2 has a bare syndrome table: any
        # single error is an uncorrectable coset and must be tallied
        outer = BinaryCode(("1100", "0110", "0011"))
        inner = BinaryCode(("1111",))
        weak = NestedCodePair(c1=outer, c2=inner)
        config = QkdConfig(pair=weak, m=10, l=10)
        result = run_qkd_block(
            config, np.random.default_rng(2), inject_message_flips=1
        )
        assert isinstance(result, Completed)
        assert result.decode_failures == 1


class TestRunQkdSession:
    def test_clean_session_aggregates(self, pair):
        config = QkdConfig(pair=pair, m=20, l=20, blocks=50, seed=1)
        report = run_qkd_session(config)
        assert report.n_blocks == 50
        assert report.n_completed == 50
        assert report.n_aborted_control == 0
        assert report.n_aborted_decoy == 0
        assert report.abort_rate == 0.0
        assert report.n_agreed == 50
        assert report.agreement_rate == 1.0
        assert report.total_key_bits == 50
        assert report.total_decode_failures == 0

    def test_deterministic(self, pair):
        config = QkdConfig(pair=pair, m=20, l=20, blocks=10, seed=8)
        assert run_qkd_session(config) == run_qkd_session(config)

    def test_all_aborted_has_no_agreement_rate(self, pair):
        config = QkdConfig(
            pair=pair, m=200, l=50, blocks=5, eve=MeasureResend(math.pi / 2), seed=2
        )
        report = run_qkd_session(config)
        assert report.n_completed == 0
        assert report.agreement_rate is None
        assert report.abort_rate == 1.0
        assert report.total_key_bits == 0

    def test_seeded_reports_are_pinned(self, pair, rm_pair):
        # the sha256 of the reports' values over an attack x noise grid, on
        # both code pairs with default and loose thresholds; any change to
        # a draw, an outcome, a decode or a key label moves it
        attacks = [
            NoEve(),
            MeasureResend(math.pi / 3),
            MeasureResend(0.0),
            MeasureResend(math.pi / 2),
            SymmetricEntangle(0.3),
        ]
        noises = [NoNoise(), BitFlip(0.1), PhaseFlip(0.1), Depolarizing(0.05), Depolarizing(0.5)]
        digest = hashlib.sha256()
        for code_pair in (pair, rm_pair):
            for eve in attacks:
                for noise in noises:
                    for thresholds in ({}, {"t": 20, "t_prime": 20}):
                        config = QkdConfig(
                            pair=code_pair, m=20, l=20, blocks=10, eve=eve, noise=noise,
                            seed=3, **thresholds,
                        )
                        digest.update(report_values(run_qkd_session(config)).encode())
        assert digest.hexdigest() == SEEDED_REPORTS_SHA256


class TestCodeFiles:
    def test_bundled_pair_loads(self):
        c1 = load_code(bundled_code_path("hamming74"))
        c2 = load_code(bundled_code_path("hamming74dual"))
        pair = NestedCodePair(c1=c1, c2=c2)
        assert (c1.n, c1.k) == (7, 4)
        assert (c2.n, c2.k) == (7, 3)
        assert pair.key_length == 1

    def test_unknown_bundle_name(self):
        with pytest.raises(ValueError):
            bundled_code_path("nonexistent")

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("7\n1000110\n")
        with pytest.raises(ValueError):
            load_code(path)

    def test_load_rejects_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("7 2\n1000110\n")
        with pytest.raises(ValueError):
            load_code(path)

    def test_load_rejects_wrong_row_length(self, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("7 1\n10001\n")
        with pytest.raises(ValueError):
            load_code(path)

    def test_load_rejects_zero_dimension(self, tmp_path):
        path = tmp_path / "zero.code"
        path.write_text("7 0\n")
        with pytest.raises(ValueError, match="zero.code"):
            load_code(path)

    def test_load_rejects_code_past_the_cap(self, tmp_path):
        path = tmp_path / "wide.code"
        path.write_text("25 1\n" + "1" * 25 + "\n")
        with pytest.raises(ValueError, match="wide.code"):
            load_code(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_code(tmp_path / "absent.code")

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ok.code"
        path.write_text("# outer code\n\n7 1\n# one generator\n1000110\n")
        code = load_code(path)
        assert (code.n, code.k) == (7, 1)

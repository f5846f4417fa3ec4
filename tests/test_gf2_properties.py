"""Property tests of the GF(2) layer on random nested code pairs, n <= 10."""

import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from oracles import all_words, nearest_codewords, xor  # noqa: E402
from pingpong_qkd.css_qkd import (  # noqa: E402
    BinaryCode,
    NestedCodePair,
    _parity_check,
    coset_key,
    encode,
    syndrome_decode,
)

# deterministic and without an example database, so runs are repeatable
PROPERTY = settings(database=None, derandomize=True, deadline=None)

# hypothesis still caches the constants it reads from loaded modules, at
# collection time, under its home directory (./.hypothesis by default);
# a temporary home keeps that out of the working tree
_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HOME.name)


def gf2_rank(matrix):
    """Rank over GF(2) by an XOR basis of row integers with distinct top bits."""
    basis = []
    for row in matrix:
        x = int("".join(str(int(b)) for b in row), 2)
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
            basis.sort(reverse=True)
    return len(basis)


def bits(draw, shape):
    return draw(arrays(np.uint8, shape, elements=st.integers(0, 1)))


def invertible(draw, k):
    """Lower times upper unit-triangular: always invertible over GF(2)."""
    lower = np.tril(bits(draw, (k, k)), -1) + np.eye(k, dtype=np.uint8)
    upper = np.triu(bits(draw, (k, k)), 1) + np.eye(k, dtype=np.uint8)
    return (lower @ upper) & 1


def code(matrix):
    return BinaryCode(tuple("".join(map(str, row)) for row in matrix))


@st.composite
def nested_pairs(draw):
    n = draw(st.integers(2, 10))
    k1 = draw(st.integers(2, n))
    k2 = draw(st.integers(1, k1 - 1))
    order = draw(st.permutations(range(n)))
    systematic = np.concatenate([np.eye(k1, dtype=np.uint8), bits(draw, (k1, n - k1))], axis=1)
    g1 = (invertible(draw, k1) @ systematic[:, order]) & 1
    pick = np.concatenate([np.eye(k2, dtype=np.uint8), bits(draw, (k2, k1 - k2))], axis=1)
    g2 = (pick @ g1) & 1
    return NestedCodePair(c1=code(g1), c2=code(g2))


def codewords(c):
    return [encode(c, message) for message in all_words(c.k)]


@PROPERTY
@given(nested_pairs())
def test_parity_check_is_a_full_dual_basis(pair):
    for c in (pair.c1, pair.c2):
        g = np.array([list(row) for row in c.generators], dtype=np.uint8)
        check = _parity_check(c)
        assert check.shape == (c.n - c.k, c.n)
        assert not ((g @ check.T) & 1).any()
        assert gf2_rank(check) == c.n - c.k


@PROPERTY
@given(nested_pairs())
def test_coset_key_labels_each_coset_once(pair):
    inner = set(codewords(pair.c2))
    classes = {}
    for word in codewords(pair.c1):
        key = coset_key(pair, word)
        assert len(key) == pair.key_length
        classes.setdefault(key, []).append(word)
    # constant on cosets: every class lies in one coset; injective
    # across them: there are as many classes as cosets
    assert len(classes) == 1 << pair.key_length
    for members in classes.values():
        assert all(xor(members[0], w) in inner for w in members)
    assert all(w in inner for w in classes["0" * pair.key_length])


@PROPERTY
@given(nested_pairs())
def test_decoder_matches_nearest_codeword_search_on_every_word(pair):
    # inside the packing radius the decode is the one codeword there;
    # beyond it the table reports failure
    c1 = pair.c1
    for word, nearest in zip(all_words(c1.n), nearest_codewords(codewords(c1))):
        assert syndrome_decode(c1, word) == nearest

"""Property tests of the noise and attack spec grammar."""

import math
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from pingpong_qkd.attacks import _ANGLE_TOL, MeasureResend, NoEve, SymmetricEntangle  # noqa: E402
from pingpong_qkd.cli import (  # noqa: E402
    format_noise,
    format_strategy,
    parse_noise,
    parse_strategy,
)
from pingpong_qkd.quantum_core import BitFlip, Depolarizing, NoNoise, PhaseFlip  # noqa: E402

# deterministic and without an example database, so runs are repeatable
PROPERTY = settings(database=None, derandomize=True, deadline=None)

# a temporary hypothesis home keeps its cache out of the working tree
_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HOME.name)


def values(lo, hi, *exact):
    """Floats in [lo, hi] and the given exact values, as Python or numpy floats."""
    plain = st.one_of(st.sampled_from((lo, hi) + exact), st.floats(lo, hi))
    return st.one_of(plain, plain.map(np.float64), plain.map(np.float32))


PROBABILITIES = values(0.0, 1.0)
NOISE = st.one_of(
    st.just(NoNoise()),
    st.builds(BitFlip, PROBABILITIES),
    st.builds(PhaseFlip, PROBABILITIES),
    st.builds(Depolarizing, PROBABILITIES),
)


def angles(hi):
    """Angles in [0, hi], at pi/4 and in the grace just past either end."""
    return st.one_of(
        values(0.0, hi, math.pi / 4),
        st.floats(-_ANGLE_TOL, 0.0),
        st.floats(hi, hi + _ANGLE_TOL),
    )


ATTACKS = st.one_of(
    st.just(NoEve()),
    st.builds(MeasureResend, angles(math.pi / 2)),
    st.builds(SymmetricEntangle, angles(math.pi / 4)),
)

# text shaped like a spec, with arbitrary parts, and arbitrary text
HEADS = st.sampled_from(["none", "bitflip", "phaseflip", "depolarizing", "measure", "entangle", ""])
KEYS = st.sampled_from(["p", "theta", "alpha", "q", ""])
NUMBERS = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), st.text(max_size=8))
SPEC_TEXT = st.one_of(
    st.text(),
    st.builds(lambda head, key, raw: f"{head}:{key}={raw}", HEADS, KEYS, NUMBERS),
)


@PROPERTY
@given(NOISE)
def test_noise_round_trip(model):
    again = parse_noise(format_noise(model))
    assert again == model
    assert type(again) is type(model)


@PROPERTY
@given(ATTACKS)
def test_attack_round_trip(attack):
    again = parse_strategy(format_strategy(attack))
    assert again == attack
    assert type(again) is type(attack)


@pytest.mark.parametrize(
    ("parse", "format"),
    [(parse_noise, format_noise), (parse_strategy, format_strategy)],
    ids=["noise", "attack"],
)
@PROPERTY
@given(text=SPEC_TEXT)
def test_text_parses_or_raises_value_error(parse, format, text):
    try:
        model = parse(text)
    except ValueError:
        return
    assert parse(format(model)) == model

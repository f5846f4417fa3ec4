"""Entropy, mutual-information and detection-threshold formulas.

All quantities are in bits.  The analytic functions mirror the
trade-off curves of the intercept attacks: an eavesdropper causing
detection probability d on control samples can gain at most H(d) bits
per intercepted message bit, while the legitimate channel under the
symmetric entangling attack carries 1 - H(sin^2 alpha) bits.
"""

from __future__ import annotations

import numpy as np

from .attacks import _canonical_angle

# validation grace for probabilities produced by float trig
_EPS = 1e-12


def _clip_unit(p: float, lo: float, hi: float, what: str) -> float:
    if not lo - _EPS <= p <= hi + _EPS:
        raise ValueError(f"{what} {p!r} outside [{lo}, {hi}]")
    return min(max(p, lo), hi)


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    p = _clip_unit(float(p), 0.0, 1.0, "probability")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def eve_info_bound(d: float) -> float:
    """Maximal eavesdropper information H(d) at detection probability d.

    The optimum over all one-ancilla entangling probes with detection
    probability d <= 1/2 is the binary entropy of d itself.  The
    measure-resend attack at polar angle theta saturates it: it causes
    d = sin^2(theta/2) and gains H(d) bits.
    """
    d = _clip_unit(float(d), 0.0, 0.5, "detection probability")
    return binary_entropy(d)


def bob_info_symmetric(alpha: float) -> float:
    """Receiver information 1 - H(sin^2 alpha) under the symmetric attack.

    The symmetric entangling attack with mixing angle alpha in
    [0, pi/4] turns the protocol into a binary symmetric channel with
    crossover probability sin^2(alpha).
    """
    alpha = _canonical_angle(alpha, np.pi / 4.0, "mixing angle")
    return 1.0 - binary_entropy(float(np.sin(alpha) ** 2))


def helstrom_info(theta: float) -> float:
    """Information through the optimal discriminator of the two resent states.

    The measure-resend attack at angle theta hands the eavesdropper one
    of two pure states with overlap cos(theta).  The best single-shot
    measurement names the state with probability (1 + sin theta)/2, so
    the induced binary symmetric channel carries
    1 - H((1 - sin theta)/2) bits.
    """
    theta = _canonical_angle(theta, np.pi / 2.0, "angle")
    miss = 0.5 * (1.0 - float(np.sin(theta)))
    return 1.0 - binary_entropy(miss)


def security_margin(d: float) -> float:
    """Receiver-minus-eavesdropper information 1 - 2 H(d) at detection level d.

    Positive margin means secure key distillation is possible.
    """
    d = _clip_unit(float(d), 0.0, 0.5, "detection probability")
    return 1.0 - 2.0 * binary_entropy(d)


def detection_threshold(tolerance: float = 1e-6) -> float:
    """Root of the security margin, located by bisection.

    Returns the detection probability where 1 - 2 H(d) changes sign,
    about 0.1100, to within ``tolerance``.
    """
    if not 0.0 < tolerance < 1e-2:
        raise ValueError(f"tolerance {tolerance!r} outside (0, 0.01)")
    lo, hi = 0.01, 0.49
    if security_margin(lo) <= 0.0 or security_margin(hi) >= 0.0:
        raise RuntimeError("bisection bracket does not straddle the root")
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if security_margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def empirical_mutual_information(counts) -> float:
    """Plug-in mutual information of a 2x2 contingency table, in bits.

    ``counts[a][b]`` is the number of observations of the pair (a, b).
    Zero cells contribute zero.  The result is clamped at 0 so float
    rounding never produces a negative estimate.
    """
    counts = np.asarray(counts)
    if counts.shape != (2, 2):
        raise ValueError(f"expected a 2x2 table of counts, got shape {counts.shape}")
    if np.any(counts < 0):
        raise ValueError("negative cell count")
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty contingency table")
    joint = counts.astype(np.float64) / total
    row = joint.sum(axis=1)
    col = joint.sum(axis=0)
    info = 0.0
    for a in (0, 1):
        for b in (0, 1):
            p = joint[a, b]
            if p > 0.0:
                info += p * np.log2(p / (row[a] * col[b]))
    return max(float(info), 0.0)

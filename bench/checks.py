"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``pingpong_qkd``: the expected rates come from
closed forms, exact binomial tails and a brute-force nearest-codeword
search written with the standard library only.  Reports are read by
attribute, so any object with the fields of ``SessionReport`` or
``QkdSessionReport`` can be checked.

Two kinds of check are kept apart.  ``*_repeat_errors`` look at one
report and test identities that hold exactly (counts that must add up,
fields that must be null); a repeat that breaks one is a failed
operation.  The pools add counts over all repeats of a run and test the
rates against their expected values; a rate is rejected only when it is
more than ``Z_TOL`` standard errors away *and* its exact tail
probability is below ``TAIL_TOL``, so small pooled counts are judged by
the exact law rather than the normal one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

# at least five standard errors, as a one-sided normal tail
Z_TOL = 5.0
TAIL_TOL = 2.87e-7

# the bundled nested pair, [7,4] Hamming containing its [7,3] dual
HAMMING74_ROWS = ("1000110", "0100101", "0010011", "0001111")
HAMMING74_DUAL_ROWS = ("1101100", "1011010", "0111001")


def entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P[Bin(n, p) <= k] by direct summation with ``math.comb``."""
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))


def _log_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def _binomial_tail(obs: int, n: int, p: float) -> float:
    # P[X >= obs] above the mean, P[X <= obs] below it; the terms shrink
    # geometrically away from the mode, so summation stops early
    step = 1 if obs > n * p else -1
    total, k = 0.0, obs
    while 0 <= k <= n:
        term = math.exp(_log_pmf(k, n, p))
        total += term
        if term == 0.0 or term < 1e-18 * total:
            break
        k += step
    return total


def binomial_error(what: str, obs: int, n: int, p: float) -> str | None:
    """None if ``obs`` successes in ``n`` trials fit rate ``p``, else why not."""
    if n == 0:
        return None
    if p <= 0.0 or p >= 1.0:
        if obs == round(n * p):
            return None
        return f"{what}: {obs}/{n} where the rate is exactly {p}"
    sd = math.sqrt(n * p * (1.0 - p))
    z = (obs - n * p) / sd
    if abs(z) <= Z_TOL or _binomial_tail(obs, n, p) >= TAIL_TOL:
        return None
    return f"{what}: {obs}/{n} = {obs / n:.6f}, expected {p:.6f} ({z:+.1f} standard errors)"


def chi2_quantile(df: int, z: float) -> float:
    """Wilson-Hilferty quantile of chi-square(df) at standard-normal score z."""
    h = 2.0 / (9.0 * df)
    return df * max(0.0, 1.0 - h + z * math.sqrt(h)) ** 3


# --- Nested-code oracle -----------------------------------------------------


def _span(rows: tuple[str, ...]) -> set[int]:
    gens = [int(r, 2) for r in rows]
    words = set()
    for pick in itertools.product((0, 1), repeat=len(gens)):
        w = 0
        for bit, g in zip(pick, gens):
            if bit:
                w ^= g
        words.add(w)
    return words


def key_agreement_probability(c1_rows: tuple[str, ...], c2_rows: tuple[str, ...], eps: float) -> float:
    """P[Alice's and Bob's coset keys agree] for i.i.d. bit flips of rate eps.

    Bob decodes v + e to v + c, with c the codeword of C1 nearest to the
    error pattern e; the keys agree iff c lies in C2.  Every pattern is
    enumerated and its nearest codeword found by search.
    """
    n = len(c1_rows[0])
    c1, c2 = _span(c1_rows), _span(c2_rows)
    total = 0.0
    for e in range(1 << n):
        nearest = min(c1, key=lambda c: (bin(c ^ e).count("1"), c))
        if nearest in c2:
            w = bin(e).count("1")
            total += eps**w * (1.0 - eps) ** (n - w)
    return total


# --- Workload specifications ------------------------------------------------


@dataclass(frozen=True)
class SessionSpec:
    """One ``run_session`` repeat: measure-resend at ``theta`` or depolarizing ``p``."""

    rounds: int
    control_prob: float
    theta: float | None = None
    depolarizing: float | None = None


@dataclass(frozen=True)
class QkdSpec:
    """One ``run_qkd_session`` repeat over the bundled pair, depolarizing ``p``."""

    blocks: int
    m: int
    l: int
    depolarizing: float
    n = len(HAMMING74_ROWS[0])
    key_bits = len(HAMMING74_ROWS) - len(HAMMING74_DUAL_ROWS)

    @property
    def rounds(self) -> int:
        # every pair of a block is prepared and sent, aborted or not
        return self.blocks * (self.n + self.m + self.l)

    # the protocol's abort thresholds: at most an 0.11 share of each check
    @property
    def t(self) -> int:
        return math.floor(0.11 * self.m)

    @property
    def t_prime(self) -> int:
        return math.floor(0.11 * self.l)


def pauli_rates(p: float) -> tuple[float, float]:
    """(z, eps) for depolarizing p on each leg.

    z is the chance that one leg's Pauli has an X component (equally, a Z
    component); eps the chance of an odd number of Z components over the
    two legs, which is what flips a decoded bit.
    """
    z = 2.0 * p / 3.0
    return z, 2.0 * z * (1.0 - z)


# --- Session checks ---------------------------------------------------------


def session_repeat_errors(spec: SessionSpec, report) -> list[str]:
    errors = []
    if report.n_control + report.n_message != spec.rounds:
        errors.append(
            f"n_control + n_message = {report.n_control + report.n_message}, rounds = {spec.rounds}"
        )
    if not 0 <= report.n_coincidence <= report.n_control:
        errors.append(f"n_coincidence {report.n_coincidence} outside [0, n_control]")
    eve_fields = (report.eve_accuracy, report.i_ae_hat)
    if spec.theta is None and eve_fields != (None, None):
        errors.append(f"eve fields {eve_fields} are not null without an eavesdropper")
    if spec.theta is not None and report.n_message and None in eve_fields:
        errors.append(f"eve fields {eve_fields} are null under measure-resend")
    if report.n_message and report.i_ab_hat is None:
        errors.append("i_ab_hat is null although message rounds ran")
    return errors


class SessionPool:
    """Counts pooled over the repeats of a session workload."""

    def __init__(self, spec: SessionSpec) -> None:
        self.spec = spec
        self.repeats = 0
        self.rounds = self.n_control = self.n_coincidence = 0
        self.n_message = self.n_errors = self.n_eve_right = 0
        # intercept: sum of 2 N ln2 I_hat, chi-square(repeats) under independence
        self.g_sum = 0.0
        # depolarizing: sums of I_hat, its plug-in bias and its variance
        self.info_sum = self.bias_sum = self.var_sum = 0.0

    def add(self, report) -> None:
        spec = self.spec
        self.repeats += 1
        self.rounds += spec.rounds
        self.n_control += report.n_control
        self.n_coincidence += report.n_coincidence
        n = report.n_message
        self.n_message += n
        self.n_errors += round(report.bob_error_rate * n)
        if spec.theta is not None:
            self.n_eve_right += round(report.eve_accuracy * n)
            self.g_sum += 2.0 * n * math.log(2.0) * report.i_ab_hat
        else:
            _, eps = pauli_rates(spec.depolarizing)
            slope = math.log2((1.0 - eps) / eps)
            self.info_sum += report.i_ab_hat
            self.bias_sum += 1.0 / (2.0 * n * math.log(2.0))
            self.var_sum += slope**2 * eps * (1.0 - eps) / n

    def errors(self) -> list[str]:
        if not self.repeats:
            return []
        spec = self.spec
        found = [
            binomial_error("control fraction", self.n_control, self.rounds, spec.control_prob),
        ]
        if spec.theta is not None:
            theta = spec.theta
            found += [
                binomial_error(
                    "detection", self.n_coincidence, self.n_control, math.sin(theta / 2.0) ** 2
                ),
                binomial_error("bob error", self.n_errors, self.n_message, 0.5),
                binomial_error(
                    "eve accuracy", self.n_eve_right, self.n_message, (1.0 + math.sin(theta)) / 2.0
                ),
            ]
            lo = chi2_quantile(self.repeats, -Z_TOL)
            hi = chi2_quantile(self.repeats, Z_TOL)
            if not lo <= self.g_sum <= hi:
                found.append(
                    f"i_ab_hat: sum of 2N ln2 I = {self.g_sum:.3f} outside the "
                    f"chi-square({self.repeats}) range [{lo:.3f}, {hi:.3f}]"
                )
        else:
            z, eps = pauli_rates(spec.depolarizing)
            found += [
                binomial_error("detection", self.n_coincidence, self.n_control, z),
                binomial_error("bob error", self.n_errors, self.n_message, eps),
            ]
            mean = self.info_sum / self.repeats
            expected = 1.0 - entropy(eps) + self.bias_sum / self.repeats
            se = math.sqrt(self.var_sum) / self.repeats
            if abs(mean - expected) > Z_TOL * se:
                found.append(
                    f"i_ab_hat: mean {mean:.6f}, expected {expected:.6f} "
                    f"({(mean - expected) / se:+.1f} standard errors)"
                )
        return [e for e in found if e]


# --- Coded QKD checks -------------------------------------------------------


def qkd_repeat_errors(spec: QkdSpec, report) -> list[str]:
    errors = []
    ended = report.n_aborted_control + report.n_aborted_decoy + report.n_completed
    if ended != spec.blocks or report.n_blocks != spec.blocks:
        errors.append(f"aborted + completed = {ended}, blocks = {spec.blocks}")
    if report.total_key_bits != report.n_completed * spec.key_bits:
        errors.append(
            f"key bits {report.total_key_bits} != {report.n_completed} completed x {spec.key_bits}"
        )
    if report.total_decode_failures != 0:
        errors.append(
            f"{report.total_decode_failures} decode failures from a perfect outer code"
        )
    if not 0 <= report.n_agreed <= report.n_completed:
        errors.append(f"n_agreed {report.n_agreed} outside [0, n_completed]")
    if (report.agreement_rate is None) != (report.n_completed == 0):
        errors.append(f"agreement_rate {report.agreement_rate} with {report.n_completed} completed")
    return errors


class QkdPool:
    """Block outcomes pooled over the repeats of the QKD workload."""

    def __init__(self, spec: QkdSpec) -> None:
        self.spec = spec
        self.blocks = self.n_aborted_control = self.n_completed = self.n_agreed = 0
        z, eps = pauli_rates(spec.depolarizing)
        self.p_control = binomial_cdf(spec.t, spec.m, z)
        self.p_complete = self.p_control * binomial_cdf(spec.t_prime, spec.l, eps)
        self.p_agree = key_agreement_probability(HAMMING74_ROWS, HAMMING74_DUAL_ROWS, eps)

    def add(self, report) -> None:
        self.blocks += report.n_blocks
        self.n_aborted_control += report.n_aborted_control
        self.n_completed += report.n_completed
        self.n_agreed += report.n_agreed

    def errors(self) -> list[str]:
        found = [
            binomial_error(
                "control aborts", self.n_aborted_control, self.blocks, 1.0 - self.p_control
            ),
            binomial_error("completion", self.n_completed, self.blocks, self.p_complete),
            binomial_error("key agreement", self.n_agreed, self.n_completed, self.p_agree),
        ]
        return [e for e in found if e]

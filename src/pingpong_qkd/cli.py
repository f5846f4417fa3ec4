"""Command-line front end.

Subcommands:

* ``tradeoff``       CSV of the measure-resend information/detection curve
* ``security-curve`` CSV of receiver vs eavesdropper information over d
* ``threshold``      print the detection-probability security threshold
* ``pingpong``       Monte Carlo session of the two-way protocol
* ``qkd``            multi-block coded key distribution run
* ``css``            code utilities (info, encode, decode, coset)

Exit codes: 0 success, 1 protocol-abort verdict (every block aborted),
2 usage, config or I/O error.  All floats in CSV output are fixed-point
with 6 decimals; machine artifacts go only to --out paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Callable
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from . import attacks, css_qkd, infotheory, pingpong
from .quantum_core import BitFlip, Depolarizing, NoiseModel, NoNoise, PhaseFlip

SCHEMA_VERSION = 1

# curve rows per CSV; 10**6 rows is about 40 MB of CSV
MAX_STEPS = 10**6


def _resolve_code(path: str) -> css_qkd.BinaryCode:
    """Load a code file, falling back to the bundled codes by name.

    A bare name like ``hamming74.code`` works from any directory; a path
    that exists on disk always wins.
    """
    candidate = Path(path)
    if not candidate.is_file() and candidate.name == path:
        try:
            candidate = css_qkd.bundled_code_path(path)
        except ValueError:
            pass
    return css_qkd.load_code(candidate)


# spec grammar: ``none`` or ``head:key=value``; the key names the
# parameter field of the model built from the value
_NOISE_SPECS = {
    ("bitflip", "p"): BitFlip,
    ("phaseflip", "p"): PhaseFlip,
    ("depolarizing", "p"): Depolarizing,
}
_ATTACK_SPECS = {
    ("measure", "theta"): attacks.MeasureResend,
    ("entangle", "alpha"): attacks.SymmetricEntangle,
}


def _parse_spec(text: str, kind: str, specs: dict, none):
    spec = text.strip()
    if spec == "none":
        return none
    head, _, tail = spec.partition(":")
    key, sep, raw = tail.partition("=")
    make = specs.get((head, key))
    if make is None or not sep:
        raise ValueError(f"unrecognized {kind} spec {text!r}")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{kind} parameter {raw!r} is not a number") from None
    return make(value)


def _format_spec(model, specs: dict, none) -> str:
    if model == none:
        return "none"
    for (head, key), cls in specs.items():
        if type(model) is cls:
            return f"{head}:{key}={getattr(model, key)!r}"
    raise ValueError(f"{model!r} has no spec")


def parse_noise(text: str) -> NoiseModel:
    """Parse a noise spec: none, bitflip:p=, phaseflip:p= or depolarizing:p=."""
    return _parse_spec(text, "noise", _NOISE_SPECS, NoNoise())


def format_noise(model: NoiseModel) -> str:
    """Inverse of parse_noise, up to float round-trip."""
    return _format_spec(model, _NOISE_SPECS, NoNoise())


def parse_strategy(text: str) -> attacks.EveStrategy:
    """Parse an attack spec: none, measure:theta=<radians> or entangle:alpha=<radians>."""
    return _parse_spec(text, "attack", _ATTACK_SPECS, attacks.NoEve())


def format_strategy(strategy: attacks.EveStrategy) -> str:
    """Inverse of parse_strategy, up to float round-trip."""
    return _format_spec(strategy, _ATTACK_SPECS, attacks.NoEve())


@dataclasses.dataclass(frozen=True)
class Option:
    """One option of the ``pingpong`` or ``qkd`` command, written once.

    ``key`` is the ``--key`` flag and the config-file key.  ``parse`` reads
    either, or ``default`` (None: the command works it out, as ``help`` says).
    ``field`` is the config field it sets (``dest`` unless given; None: none),
    and ``show`` formats it, read back off the built config, for the JSON echo.
    """

    key: str
    parse: Callable[[str], Any]
    default: Any
    help: str
    field: str | None = ""
    show: Callable[[Any], Any] = lambda value: value

    def __post_init__(self) -> None:
        if self.field == "":
            object.__setattr__(self, "field", self.dest)

    @property
    def dest(self) -> str:
        """The argparse attribute and the JSON echo key."""
        return self.key.replace("-", "_")


# the options both commands take, with the same meaning
_SESSION_OPTIONS = (
    Option("eve", parse_strategy, "none",
           "attack spec: none, measure:theta=, entangle:alpha=", show=format_strategy),
    Option("noise", parse_noise, "none",
           "noise spec: none, bitflip:p=, phaseflip:p=, depolarizing:p=", show=format_noise),
    Option("seed", int, 0, "session seed"),
    Option("out", str, None, "JSON report path", field=None),
)

PINGPONG_OPTIONS = (
    Option("rounds", int, 10000, "number of rounds"),
    Option("control-prob", float, 0.5, "per-round control probability"),
    *_SESSION_OPTIONS,
)

QKD_OPTIONS = (
    Option("c1", str, None, "outer code file (default bundled Hamming [7,4])", field=None),
    Option("c2", str, None, "inner code file (default bundled [7,3] dual)", field=None),
    Option("m", int, 50, "control positions per block"),
    Option("l", int, 50, "decoy positions per block"),
    Option("t", int, None, "control abort threshold (default floor(0.11*m))"),
    Option("tprime", int, None, "decoy abort threshold (default floor(0.11*l))", field="t_prime"),
    Option("blocks", int, 10, "number of blocks"),
    *_SESSION_OPTIONS,
)


def _add_options(parser: argparse.ArgumentParser, options: tuple[Option, ...]) -> None:
    for option in options:
        default = "" if option.default is None else f" (default {option.default})"
        # int and float flags keep argparse's own message for a bad value;
        # the rest arrive as text and are parsed with the file's values
        kind = option.parse if option.parse in (int, float) else None
        parser.add_argument(f"--{option.key}", type=kind, help=option.help + default)
    parser.add_argument("--config", help="key=value config file; flags take precedence")


def _merge_config(args: argparse.Namespace, options: tuple[Option, ...]) -> dict[str, Any]:
    """Resolve each option's value: explicit flag, then config file, then default.

    The file holds ``key=value`` lines; blank lines and ``#`` comments are skipped.
    """
    path = args.config
    keys = {option.key for option in options}
    entries: dict[str, tuple[int, str]] = {}  # key -> (line number, text)
    for lineno, raw in enumerate(Path(path).read_text().splitlines() if path else [], start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, text = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: {key}: unknown config key")
        if key in entries:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = (lineno, text.strip())
    values = {}
    for option in options:
        flag = getattr(args, option.dest)
        if flag is None and option.key in entries:
            lineno, text = entries[option.key]
            try:
                values[option.key] = option.parse(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {option.key}: {exc}") from None
        else:
            raw = option.default if flag is None else flag
            values[option.key] = None if raw is None else option.parse(raw)
    return values


def _configure(config_cls, options: tuple[Option, ...], values: dict, **fixed):
    """Build a command's config, and its JSON echo as the config holds it."""
    config = config_cls(**fixed, **{o.field: values[o.key] for o in options if o.field})
    echo = {
        o.dest: o.show(getattr(config, o.field)) if o.field else values[o.key]
        for o in options
        if o.key != "out"
    }
    return config, echo


def _write_report(path: str, echo: dict, report, omit: set[str], **extra) -> None:
    """Write the JSON report: the config echo, then the fields of ``report``."""
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    for name in omit:
        del fields[name]
    document = {"schema_version": SCHEMA_VERSION, "config": echo, **fields, **extra}
    text = json.dumps(document, indent=2, sort_keys=True, default=dataclasses.asdict)
    Path(path).write_text(text + "\n", newline="\n")
    print(f"wrote report to {path}")


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    lines += [",".join(f"{value:.6f}" for value in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6f}"


def _tradeoff_row(theta: float) -> tuple[float, ...]:
    d_m = attacks.detection_probability_measurement(theta)
    return theta, d_m, infotheory.eve_info_bound(d_m), infotheory.helstrom_info(theta)


def _security_row(d: float) -> tuple[float, ...]:
    i_ab = infotheory.bob_info_symmetric(float(np.arcsin(np.sqrt(d))))
    return d, infotheory.eve_info_bound(d), i_ab, infotheory.security_margin(d)


def cmd_curve(header: str, stop: float, row: Callable, args: argparse.Namespace) -> int:
    """Write ``row(x)`` for ``--steps`` points x evenly spaced over [0, stop]."""
    if args.steps < 2:
        raise ValueError(f"need at least 2 steps, got {args.steps}")
    if args.steps > MAX_STEPS:
        raise ValueError(f"at most {MAX_STEPS} steps, got {args.steps}")
    rows = [row(float(x)) for x in np.linspace(0.0, stop, args.steps)]
    _write_csv(args.out, header, rows)
    print(f"wrote {args.steps} rows to {args.out}")
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    print(f"d* = {infotheory.detection_threshold(1e-6):.6f}")
    return 0


def cmd_pingpong(args: argparse.Namespace) -> int:
    values = _merge_config(args, PINGPONG_OPTIONS)
    config, echo = _configure(pingpong.ProtocolConfig, PINGPONG_OPTIONS, values)
    report = pingpong.run_session(config)
    theory = report.theory
    print(f"rounds: {config.rounds} (control {report.n_control}, message {report.n_message})")
    for label, name in (("detection rate", "detection_rate"),
                        ("bob error rate", "bob_error_rate")):
        closed = f"  (theory {getattr(theory, name):.6f})" if theory else "  (no closed form)"
        print(f"{label}: {_fmt(getattr(report, name))}{closed}")
    print(f"eve accuracy: {_fmt(report.eve_accuracy)}")
    print(f"I(A:B) estimate: {_fmt(report.i_ab_hat)} bits")
    print(f"I(A:E) estimate: {_fmt(report.i_ae_hat)} bits")
    if values["out"]:
        _write_report(values["out"], echo, report, omit={"n_coincidence"})
    return 0


def _block_entry(result: css_qkd.QkdResult, reveal: bool) -> dict:
    if isinstance(result, css_qkd.AbortedControl):
        return {"result": "aborted_control", "coincidences": result.coincidences}
    if isinstance(result, css_qkd.AbortedDecoy):
        return {"result": "aborted_decoy", "ones": result.ones}
    entry = {
        "result": "completed",
        "agreed": result.alice_key == result.bob_key,
        "decode_failures": result.decode_failures,
    }
    if reveal:
        entry["alice_key"] = str(result.alice_key)
        entry["bob_key"] = str(result.bob_key)
    return entry


def cmd_qkd(args: argparse.Namespace) -> int:
    values = _merge_config(args, QKD_OPTIONS)
    codes = []
    for key, default in (("c1", "hamming74.code"), ("c2", "hamming74dual.code")):
        if values[key]:
            codes.append(_resolve_code(values[key]))
        else:
            # echoed by its bare name, so the report does not depend on the
            # checkout, but loaded from the package, so a file of that name
            # in the working directory does not shadow it
            values[key] = default
            codes.append(css_qkd.load_code(css_qkd.bundled_code_path(default)))
    pair = css_qkd.NestedCodePair(*codes)
    config, echo = _configure(css_qkd.QkdConfig, QKD_OPTIONS, values, pair=pair)
    report = css_qkd.run_qkd_session(config)
    print(
        f"blocks: {report.n_blocks} (completed {report.n_completed},"
        f" control aborts {report.n_aborted_control},"
        f" decoy aborts {report.n_aborted_decoy})"
    )
    print(f"abort rate: {report.abort_rate:.6f}")
    if report.n_completed:
        print(
            f"key agreement: {report.n_agreed}/{report.n_completed}"
            f" (rate {_fmt(report.agreement_rate)})"
        )
        print(
            f"key bits: {report.total_key_bits}"
            f" (decode failures {report.total_decode_failures})"
        )
    if args.reveal_keys:
        for i, result in enumerate(report.results):
            if isinstance(result, css_qkd.Completed):
                print(f"block {i}: alice_key={result.alice_key} bob_key={result.bob_key}")
    if values["out"]:
        blocks = [_block_entry(r, args.reveal_keys) for r in report.results]
        _write_report(values["out"], echo, report, omit={"results"}, blocks=blocks)
    if report.n_completed == 0:
        print("verdict: all blocks aborted, channel is compromised or too noisy")
        return 1
    return 0


def cmd_css_info(args: argparse.Namespace) -> int:
    if len(args.code) > 2:
        raise ValueError("info takes one code file or an outer/inner pair")
    codes = [_resolve_code(p) for p in args.code]
    for code in codes:
        print(f"n={code.n} k={code.k} d={css_qkd.min_distance(code)}")
    if len(codes) == 2:
        pair = css_qkd.NestedCodePair(codes[0], codes[1])
        print(f"key_bits={pair.key_length}")
    return 0


def cmd_css_encode(args: argparse.Namespace) -> int:
    code = _resolve_code(args.code)
    print(css_qkd.encode(code, args.word))
    return 0


def cmd_css_decode(args: argparse.Namespace) -> int:
    code = _resolve_code(args.code)
    result = css_qkd.syndrome_decode(code, args.word)
    if result is None:
        print("decode failure: no codeword within the correction radius")
    else:
        print(result)
    return 0


def cmd_css_coset(args: argparse.Namespace) -> int:
    pair = css_qkd.NestedCodePair(_resolve_code(args.c1), _resolve_code(args.c2))
    print(css_qkd.coset_key(pair, args.word))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pingpong-qkd",
        description="Simulate the two-way entanglement protocol and its coded QKD variant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help, sample, steps, stop, header, row in (
        ("tradeoff", "CSV of the measure-resend information curve", "theta", 100,
         np.pi / 2.0, "theta,d_m,info_eq10,info_helstrom", _tradeoff_row),
        ("security-curve", "CSV of information rates over detection d", "d", 501,
         0.5, "d,i_ae,i_ab,margin", _security_row),
    ):
        p = sub.add_parser(name, help=help)
        p.add_argument("--steps", type=int, default=steps,
                       help=f"number of {sample} samples, 2 to {MAX_STEPS} (default {steps})")
        p.add_argument("--out", required=True, help="CSV output path")
        p.set_defaults(func=partial(cmd_curve, header, stop, row))

    p = sub.add_parser("threshold", help="print the security threshold d*")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("pingpong", help="Monte Carlo session of the two-way protocol")
    _add_options(p, PINGPONG_OPTIONS)
    p.set_defaults(func=cmd_pingpong)

    p = sub.add_parser("qkd", help="multi-block coded key distribution run")
    _add_options(p, QKD_OPTIONS)
    p.add_argument("--reveal-keys", action="store_true", help="include key material in output")
    p.set_defaults(func=cmd_qkd)

    p = sub.add_parser("css", help="linear-code utilities")
    csub = p.add_subparsers(dest="css_command", required=True)
    q = csub.add_parser("info", help="print n, k, min distance; with two files, key bits")
    q.add_argument("code", nargs="+", help="one or two code files")
    q.set_defaults(func=cmd_css_info)
    q = csub.add_parser("encode", help="encode a k-bit message")
    q.add_argument("code", help="code file")
    q.add_argument("word", help="k-bit message")
    q.set_defaults(func=cmd_css_encode)
    q = csub.add_parser("decode", help="correct a received n-bit word")
    q.add_argument("code", help="code file")
    q.add_argument("word", help="n-bit word")
    q.set_defaults(func=cmd_css_decode)
    q = csub.add_parser("coset", help="coset label of an outer codeword")
    q.add_argument("c1", help="outer code file")
    q.add_argument("c2", help="inner code file")
    q.add_argument("word", help="n-bit outer codeword")
    q.set_defaults(func=cmd_css_coset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

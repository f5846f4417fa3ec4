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
import json
import sys
from pathlib import Path

import numpy as np

from . import attacks, css_qkd, infotheory, pingpong
from .quantum_core import BitFlip, Depolarizing, NoiseModel, NoNoise, PhaseFlip

SCHEMA_VERSION = 1


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


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key in entries:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def _merge_config(args: argparse.Namespace, schema: dict) -> dict:
    """Resolve option values: explicit flag, then config file, then default."""
    file_entries = _read_config_file(args.config) if args.config else {}
    for key in file_entries:
        if key not in schema:
            raise ValueError(f"unknown config key {key!r}")
    resolved = {}
    for key, (attr, cast, default) in schema.items():
        flag_value = getattr(args, attr)
        if flag_value is not None:
            resolved[attr] = flag_value
        elif key in file_entries:
            resolved[attr] = cast(file_entries[key])
        else:
            resolved[attr] = default
    return resolved


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    lines += [",".join(f"{value:.6f}" for value in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _write_json(path: str, document: dict) -> None:
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", newline="\n"
    )


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6f}"


def cmd_tradeoff(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError(f"need at least 2 steps, got {args.steps}")
    rows = []
    for theta in np.linspace(0.0, np.pi / 2.0, args.steps):
        d_m = attacks.detection_probability_measurement(float(theta))
        rows.append(
            (
                theta,
                d_m,
                infotheory.eve_info_bound(d_m),
                infotheory.helstrom_info(float(theta)),
            )
        )
    _write_csv(args.out, "theta,d_m,info_eq10,info_helstrom", rows)
    print(f"wrote {args.steps} rows to {args.out}")
    return 0


def cmd_security_curve(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError(f"need at least 2 steps, got {args.steps}")
    rows = []
    for d in np.linspace(0.0, 0.5, args.steps):
        alpha = float(np.arcsin(np.sqrt(d)))
        rows.append(
            (
                d,
                infotheory.eve_info_bound(float(d)),
                infotheory.bob_info_symmetric(alpha),
                infotheory.security_margin(float(d)),
            )
        )
    _write_csv(args.out, "d,i_ae,i_ab,margin", rows)
    print(f"wrote {args.steps} rows to {args.out}")
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    print(f"d* = {infotheory.detection_threshold(1e-6):.6f}")
    return 0


_PINGPONG_SCHEMA = {
    "rounds": ("rounds", int, 10000),
    "control-prob": ("control_prob", float, 0.5),
    "eve": ("eve", str, "none"),
    "noise": ("noise", str, "none"),
    "seed": ("seed", int, 0),
    "out": ("out", str, None),
}


def cmd_pingpong(args: argparse.Namespace) -> int:
    values = _merge_config(args, _PINGPONG_SCHEMA)
    config = pingpong.ProtocolConfig(
        rounds=values["rounds"],
        control_prob=values["control_prob"],
        eve=parse_strategy(values["eve"]),
        noise=parse_noise(values["noise"]),
        seed=values["seed"],
    )
    report = pingpong.run_session(config)
    theory = report.theory
    print(f"rounds: {config.rounds} (control {report.n_control}, message {report.n_message})")
    print(
        f"detection rate: {_fmt(report.detection_rate)}"
        + (f"  (theory {theory.detection_rate:.6f})" if theory else "  (no closed form)")
    )
    print(
        f"bob error rate: {_fmt(report.bob_error_rate)}"
        + (f"  (theory {theory.bob_error_rate:.6f})" if theory else "  (no closed form)")
    )
    print(f"eve accuracy: {_fmt(report.eve_accuracy)}")
    print(f"I(A:B) estimate: {_fmt(report.i_ab_hat)} bits")
    print(f"I(A:E) estimate: {_fmt(report.i_ae_hat)} bits")
    if values["out"]:
        document = {
            "schema_version": SCHEMA_VERSION,
            "config": {
                "rounds": config.rounds,
                "control_prob": config.control_prob,
                "eve": format_strategy(config.eve),
                "noise": format_noise(config.noise),
                "seed": config.seed,
            },
            "n_control": report.n_control,
            "detection_rate": report.detection_rate,
            "n_message": report.n_message,
            "bob_error_rate": report.bob_error_rate,
            "eve_accuracy": report.eve_accuracy,
            "i_ab_hat": report.i_ab_hat,
            "i_ae_hat": report.i_ae_hat,
            "theory": (
                {
                    "detection_rate": theory.detection_rate,
                    "bob_error_rate": theory.bob_error_rate,
                }
                if theory
                else None
            ),
        }
        _write_json(values["out"], document)
        print(f"wrote report to {values['out']}")
    return 0


_QKD_SCHEMA = {
    "c1": ("c1", str, None),
    "c2": ("c2", str, None),
    "m": ("m", int, 50),
    "l": ("l", int, 50),
    "t": ("t", int, None),
    "tprime": ("tprime", int, None),
    "blocks": ("blocks", int, 10),
    "eve": ("eve", str, "none"),
    "noise": ("noise", str, "none"),
    "seed": ("seed", int, 0),
    "out": ("out", str, None),
}


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
    values = _merge_config(args, _QKD_SCHEMA)
    c1_path = values["c1"] or str(css_qkd.bundled_code_path("hamming74.code"))
    c2_path = values["c2"] or str(css_qkd.bundled_code_path("hamming74dual.code"))
    pair = css_qkd.NestedCodePair(_resolve_code(c1_path), _resolve_code(c2_path))
    config = css_qkd.QkdConfig(
        pair=pair,
        m=values["m"],
        l=values["l"],
        t=values["t"],
        t_prime=values["tprime"],
        blocks=values["blocks"],
        eve=parse_strategy(values["eve"]),
        noise=parse_noise(values["noise"]),
        seed=values["seed"],
    )
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
        document = {
            "schema_version": SCHEMA_VERSION,
            "config": {
                "c1": c1_path,
                "c2": c2_path,
                "m": config.m,
                "l": config.l,
                "t": config.t,
                "tprime": config.t_prime,
                "blocks": config.blocks,
                "eve": format_strategy(config.eve),
                "noise": format_noise(config.noise),
                "seed": config.seed,
            },
            "n_blocks": report.n_blocks,
            "n_aborted_control": report.n_aborted_control,
            "n_aborted_decoy": report.n_aborted_decoy,
            "n_completed": report.n_completed,
            "abort_rate": report.abort_rate,
            "n_agreed": report.n_agreed,
            "agreement_rate": report.agreement_rate,
            "total_key_bits": report.total_key_bits,
            "total_decode_failures": report.total_decode_failures,
            "blocks": [_block_entry(r, args.reveal_keys) for r in report.results],
        }
        _write_json(values["out"], document)
        print(f"wrote report to {values['out']}")
    if report.n_completed == 0:
        print("verdict: all blocks aborted, channel is compromised or too noisy")
        return 1
    return 0


def cmd_css(args: argparse.Namespace) -> int:
    if args.css_command == "info":
        if len(args.code) > 2:
            raise ValueError("info takes one code file or an outer/inner pair")
        codes = [_resolve_code(p) for p in args.code]
        for code in codes:
            print(f"n={code.n} k={code.k} d={css_qkd.min_distance(code)}")
        if len(codes) == 2:
            pair = css_qkd.NestedCodePair(codes[0], codes[1])
            print(f"key_bits={pair.key_length}")
        return 0
    if args.css_command == "encode":
        code = _resolve_code(args.code)
        message = css_qkd.BinaryWord.from_string(args.word)
        print(css_qkd.encode(code, message))
        return 0
    if args.css_command == "decode":
        code = _resolve_code(args.code)
        word = css_qkd.BinaryWord.from_string(args.word)
        result = css_qkd.syndrome_decode(code, word)
        if result is None:
            print("decode failure: no codeword within the correction radius")
        else:
            print(result)
        return 0
    if args.css_command == "coset":
        pair = css_qkd.NestedCodePair(
            _resolve_code(args.c1), _resolve_code(args.c2)
        )
        word = css_qkd.BinaryWord.from_string(args.word)
        print(css_qkd.coset_key(pair, word))
        return 0
    raise ValueError(f"unknown css subcommand {args.css_command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pingpong-qkd",
        description="Simulate the two-way entanglement protocol and its coded QKD variant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tradeoff", help="CSV of the measure-resend information curve")
    p.add_argument("--steps", type=int, default=100, help="number of theta samples")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("security-curve", help="CSV of information rates over detection d")
    p.add_argument("--steps", type=int, default=501, help="number of d samples")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_security_curve)

    p = sub.add_parser("threshold", help="print the security threshold d*")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("pingpong", help="Monte Carlo session of the two-way protocol")
    p.add_argument("--rounds", type=int, help="number of rounds (default 10000)")
    p.add_argument("--control-prob", type=float, dest="control_prob",
                   help="per-round control probability (default 0.5)")
    p.add_argument("--eve", help="attack spec: none, measure:theta=, entangle:alpha=")
    p.add_argument("--noise", help="noise spec: none, bitflip:p=, phaseflip:p=, depolarizing:p=")
    p.add_argument("--seed", type=int, help="session seed (default 0)")
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--config", help="key=value config file; flags take precedence")
    p.set_defaults(func=cmd_pingpong)

    p = sub.add_parser("qkd", help="multi-block coded key distribution run")
    p.add_argument("--c1", help="outer code file (default: bundled Hamming [7,4])")
    p.add_argument("--c2", help="inner code file (default: bundled [7,3] dual)")
    p.add_argument("--m", type=int, help="control positions per block (default 50)")
    p.add_argument("--l", type=int, help="decoy positions per block (default 50)")
    p.add_argument("--t", type=int, help="control abort threshold (default floor(0.11*m))")
    p.add_argument("--tprime", type=int, help="decoy abort threshold (default floor(0.11*l))")
    p.add_argument("--blocks", type=int, help="number of blocks (default 10)")
    p.add_argument("--eve", help="attack spec")
    p.add_argument("--noise", help="noise spec")
    p.add_argument("--seed", type=int, help="session seed (default 0)")
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--config", help="key=value config file; flags take precedence")
    p.add_argument("--reveal-keys", action="store_true", dest="reveal_keys",
                   help="include key material in output")
    p.set_defaults(func=cmd_qkd)

    p = sub.add_parser("css", help="linear-code utilities")
    csub = p.add_subparsers(dest="css_command", required=True)
    q = csub.add_parser("info", help="print n, k, min distance; with two files, key bits")
    q.add_argument("code", nargs="+", help="one or two code files")
    q.set_defaults(func=cmd_css)
    q = csub.add_parser("encode", help="encode a k-bit message")
    q.add_argument("code", help="code file")
    q.add_argument("word", help="k-bit message")
    q.set_defaults(func=cmd_css)
    q = csub.add_parser("decode", help="correct a received n-bit word")
    q.add_argument("code", help="code file")
    q.add_argument("word", help="n-bit word")
    q.set_defaults(func=cmd_css)
    q = csub.add_parser("coset", help="coset label of an outer codeword")
    q.add_argument("c1", help="outer code file")
    q.add_argument("c2", help="inner code file")
    q.add_argument("word", help="n-bit outer codeword")
    q.set_defaults(func=cmd_css)
    p.set_defaults(func=cmd_css)

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

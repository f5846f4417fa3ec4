"""End-to-end tests of the command line interface."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from pingpong_qkd import cli, css_qkd
from pingpong_qkd.cli import format_noise, main, parse_noise
from pingpong_qkd.css_qkd import bundled_code_path
from pingpong_qkd.quantum_core import BitFlip, Depolarizing, NoNoise, PhaseFlip

HAMMING = str(bundled_code_path("hamming74"))
DUAL = str(bundled_code_path("hamming74dual"))


def run_cli(*argv):
    return main(list(argv))


class TestNoiseGrammar:
    def test_parse_all_forms(self):
        assert isinstance(parse_noise("none"), NoNoise)
        assert parse_noise("bitflip:p=0.1") == BitFlip(0.1)
        assert parse_noise("phaseflip:p=0.2") == PhaseFlip(0.2)
        assert parse_noise("depolarizing:p=0.3") == Depolarizing(0.3)

    def test_round_trip(self):
        for text in ("none", "bitflip:p=0.25", "phaseflip:p=0.5", "depolarizing:p=0.75"):
            assert parse_noise(format_noise(parse_noise(text))) == parse_noise(text)

    def test_errors_name_the_token(self):
        with pytest.raises(ValueError, match="fuzz"):
            parse_noise("fuzz")
        with pytest.raises(ValueError, match="q"):
            parse_noise("bitflip:q=0.1")


class TestTradeoffCommand:
    def test_csv_shape_and_endpoints(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run_cli("tradeoff", "--steps", "50", "--out", str(out)) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "theta,d_m,info_eq10,info_helstrom"
        assert len(lines) == 51
        assert lines[1] == "0.000000,0.000000,0.000000,0.000000"
        assert lines[-1] == "1.570796,0.500000,1.000000,1.000000"

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("tradeoff", "--steps", "25", "--out", str(a))
        run_cli("tradeoff", "--steps", "25", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_single_step(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli("tradeoff", "--steps", "1", "--out", str(out)) == 2

    @pytest.mark.parametrize("command", ["tradeoff", "security-curve"])
    def test_steps_above_cap_rejected_before_allocating(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_grid(*args, **kwargs):
            raise AssertionError("the sample grid was built before the cap check")

        monkeypatch.setattr(np, "linspace", no_grid)
        out = tmp_path / "x.csv"
        steps = str(cli.MAX_STEPS + 1)
        assert run_cli(command, "--steps", steps, "--out", str(out)) == 2
        assert f"at most {cli.MAX_STEPS} steps, got {steps}" in capsys.readouterr().err
        assert not out.exists()

    def test_helstrom_column_never_exceeds_bound(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_cli("tradeoff", "--steps", "100", "--out", str(out))
        for line in out.read_text().splitlines()[1:]:
            _, _, info_eq10, info_helstrom = map(float, line.split(","))
            assert info_helstrom <= info_eq10 + 5e-7


class TestSecurityCurveCommand:
    def test_csv_shape_and_first_row(self, tmp_path):
        out = tmp_path / "sec.csv"
        assert run_cli("security-curve", "--steps", "51", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d,i_ae,i_ab,margin"
        assert lines[1] == "0.000000,0.000000,1.000000,1.000000"
        assert len(lines) == 52

    def test_margin_strictly_decreasing(self, tmp_path):
        out = tmp_path / "sec.csv"
        run_cli("security-curve", "--steps", "200", "--out", str(out))
        margins = [float(line.split(",")[3]) for line in out.read_text().splitlines()[1:]]
        assert all(a > b for a, b in zip(margins, margins[1:]))

    def test_margin_sign_change_near_threshold(self, tmp_path):
        out = tmp_path / "sec.csv"
        run_cli("security-curve", "--steps", "501", "--out", str(out))
        rows = [tuple(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
        crossings = [
            (a[0], b[0]) for a, b in zip(rows, rows[1:]) if a[3] > 0 >= b[3]
        ]
        assert len(crossings) == 1
        lo, hi = crossings[0]
        assert lo < 0.110028 < hi + 1e-9


class TestThresholdCommand:
    def test_prints_six_decimal_value(self, capsys):
        assert run_cli("threshold") == 0
        assert capsys.readouterr().out.strip() == "d* = 0.110028"

    def test_idempotent(self, capsys):
        run_cli("threshold")
        first = capsys.readouterr().out
        run_cli("threshold")
        assert capsys.readouterr().out == first


class TestPingpongCommand:
    def test_json_fields_and_summary(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            "pingpong", "--rounds", "2000", "--seed", "3", "--out", str(out)
        )
        assert code == 0
        assert "detection" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "schema_version",
            "config",
            "n_control",
            "detection_rate",
            "n_message",
            "bob_error_rate",
            "eve_accuracy",
            "i_ab_hat",
            "i_ae_hat",
            "theory",
        }
        assert doc["schema_version"] == 1
        assert doc["config"]["rounds"] == 2000
        assert doc["config"]["eve"] == "none"

    def test_clean_channel_zero_detection(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("pingpong", "--rounds", "3000", "--eve", "none", "--noise", "none",
                "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["detection_rate"] == 0.0
        assert doc["bob_error_rate"] == 0.0
        assert doc["eve_accuracy"] is None

    def test_deterministic_output_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["pingpong", "--eve", "measure:theta=1.5708", "--rounds", "5000",
                "--seed", "7"]
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_canonical_angle_echoed(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("pingpong", "--rounds", "100", "--eve", "measure:theta=1.5708",
                "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["config"]["eve"] == f"measure:theta={math.pi / 2!r}"

    def test_entangling_detection_rate(self, tmp_path):
        alpha = 0.3398
        d = math.sin(alpha) ** 2
        out = tmp_path / "r.json"
        run_cli("pingpong", "--rounds", "20000", "--eve", f"entangle:alpha={alpha}",
                "--seed", "5", "--out", str(out))
        doc = json.loads(out.read_text())
        n_control = doc["n_control"]
        sigma = math.sqrt(d * (1 - d) / n_control)
        assert abs(doc["detection_rate"] - d) < 3 * sigma
        assert doc["theory"]["detection_rate"] == pytest.approx(d)

    def test_malformed_eve_spec(self, capsys):
        assert run_cli("pingpong", "--rounds", "10", "--eve", "laser:w=1") == 2
        assert "laser" in capsys.readouterr().err

    def test_ancilla_spec_rejected(self, capsys):
        assert run_cli("pingpong", "--rounds", "10", "--eve", "ancilla:beta2=0.1") == 2
        assert "unrecognized attack spec" in capsys.readouterr().err

    def test_empty_denominator_is_null(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("pingpong", "--rounds", "10", "--control-prob", "0",
                       "--out", str(out)) == 0
        assert "detection rate: n/a" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["n_control"] == 0
        assert doc["detection_rate"] is None
        assert '"detection_rate": null' in out.read_text()

    def test_malformed_noise_spec(self, capsys):
        assert run_cli("pingpong", "--rounds", "10", "--noise", "static") == 2
        assert "static" in capsys.readouterr().err

    def test_config_file_merge(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# session settings\nrounds=500\nseed=9\n")
        out = tmp_path / "r.json"
        run_cli("pingpong", "--config", str(cfg), "--rounds", "800", "--out", str(out))
        doc = json.loads(out.read_text())
        # flag beats file, file beats default
        assert doc["config"]["rounds"] == 800
        assert doc["config"]["seed"] == 9

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rounds=10\nspin=up\n")
        assert run_cli("pingpong", "--config", str(cfg), "--rounds", "10") == 2
        assert f"error: {cfg}:2: spin: unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("pingpong", "seed=1\nrounds=abc\n",
             "2: rounds: invalid literal for int() with base 10: 'abc'"),
            ("pingpong", "control-prob=half\n", "1: control-prob: could not convert"),
            ("pingpong", "# spec\neve=laser\n", "2: eve: unrecognized attack spec 'laser'"),
            ("qkd", "t=\n", "1: t: invalid literal for int() with base 10: ''"),
        ],
        ids=["int", "float", "spec", "empty"],
    )
    def test_config_file_bad_value_names_file_line_and_key(
        self, tmp_path, capsys, command, text, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert run_cli(command, "--config", str(cfg)) == 2
        assert f"error: {cfg}:{message}" in capsys.readouterr().err


class TestQkdCommand:
    def test_clean_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "qkd.json"
        code = run_cli("qkd", "--blocks", "20", "--m", "20", "--l", "20",
                       "--seed", "1", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_completed"] == 20
        assert doc["agreement_rate"] == 1.0
        assert len(doc["blocks"]) == 20
        assert all("alice_key" not in entry for entry in doc["blocks"])

    def test_reveal_keys_flag(self, tmp_path):
        out = tmp_path / "qkd.json"
        run_cli("qkd", "--blocks", "3", "--m", "10", "--l", "10", "--seed", "2",
                "--reveal-keys", "--out", str(out))
        doc = json.loads(out.read_text())
        completed = [e for e in doc["blocks"] if e["result"] == "completed"]
        assert completed
        assert all(set("01") >= set(e["alice_key"]) for e in completed)

    def test_interception_aborts_everything(self, tmp_path, capsys):
        out = tmp_path / "qkd.json"
        code = run_cli("qkd", "--blocks", "5", "--m", "200", "--eve",
                       "measure:theta=1.5708", "--seed", "0", "--out", str(out))
        assert code == 1
        assert "abort" in capsys.readouterr().out.lower()
        doc = json.loads(out.read_text())
        assert doc["n_completed"] == 0
        assert all(e["result"] == "aborted_control" for e in doc["blocks"])

    def test_missing_code_file(self, tmp_path, capsys):
        assert run_cli("qkd", "--c1", str(tmp_path / "nope.code"), "--blocks", "1") == 2
        assert "nope.code" in capsys.readouterr().err

    def test_oversized_code_rejected_before_any_block(self, tmp_path, capsys, monkeypatch):
        c1 = tmp_path / "c1.code"
        c2 = tmp_path / "c2.code"
        c1.write_text("26 2\n" + "1" * 26 + "\n" + "1" * 13 + "0" * 13 + "\n")
        c2.write_text("26 1\n" + "1" * 26 + "\n")

        def no_block(*args, **kwargs):
            raise AssertionError("a block ran before the code was rejected")

        monkeypatch.setattr(css_qkd, "run_qkd_block", no_block)
        code = run_cli("qkd", "--c1", str(c1), "--c2", str(c2), "--blocks", "3",
                       "--m", "5", "--l", "5")
        assert code == 2
        err = capsys.readouterr().err
        assert str(c1) in err
        assert "exceeds the 24-bit cap" in err

    def test_block_above_cap_rejected_before_any_block(self, capsys, monkeypatch):
        def no_block(*args, **kwargs):
            raise AssertionError("a block ran before its size was rejected")

        monkeypatch.setattr(css_qkd, "run_qkd_block", no_block)
        assert run_cli("qkd", "--m", "1000000", "--blocks", "1") == 2
        assert f"exceeds the {css_qkd.MAX_BLOCK_PAIRS}-pair cap" in capsys.readouterr().err

    def test_zero_dimension_code_rejected(self, tmp_path, capsys):
        zero = tmp_path / "zero.code"
        zero.write_text("7 0\n")
        assert run_cli("qkd", "--c1", str(zero), "--blocks", "1") == 2
        assert "zero.code" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("3 3\n110\n011\n101\n", "generators are linearly dependent"),
            ("3 5\n100\n010\n001\n110\n011\n", "dimension 5 invalid for length 3"),
        ],
        ids=["dependent-rows", "dimension-above-length"],
    )
    def test_invalid_code_names_the_file(self, tmp_path, capsys, text, reason):
        bad = tmp_path / "bad.code"
        bad.write_text(text)
        assert run_cli("qkd", "--c2", str(bad), "--blocks", "1") == 2
        err = capsys.readouterr().err
        assert f"code file {bad}: " in err
        assert reason in err

    def test_nested_violation(self, tmp_path, capsys):
        rogue = tmp_path / "rogue.code"
        rogue.write_text("7 3\n1000000\n0100000\n0010000\n")
        code = run_cli("qkd", "--c2", str(rogue), "--blocks", "1")
        assert code == 2
        assert "nested code violation" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["qkd", "--blocks", "5", "--m", "15", "--l", "15", "--seed", "4"]
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestCssCommand:
    def test_info_single_code(self, capsys):
        assert run_cli("css", "info", HAMMING) == 0
        assert "n=7 k=4 d=3" in capsys.readouterr().out

    def test_info_pair_reports_key_bits(self, capsys):
        assert run_cli("css", "info", HAMMING, DUAL) == 0
        out = capsys.readouterr().out
        assert "n=7 k=3 d=4" in out
        assert "key_bits=1" in out

    def test_encode(self, capsys):
        assert run_cli("css", "encode", HAMMING, "1011") == 0
        assert capsys.readouterr().out.strip() == "1011010"

    def test_decode_corrects_single_error(self, capsys):
        # 1100110 is generator 1 XOR generator 2 with bit 2 flipped
        assert run_cli("css", "decode", HAMMING, "1110011") == 0
        printed = capsys.readouterr().out.strip()
        assert printed == "1100011"

    def test_decode_reports_failure(self, tmp_path, capsys):
        # needs a non-perfect code: the bundled Hamming code tiles the
        # whole space, so its decoder cannot fail
        weak = tmp_path / "weak.code"
        weak.write_text("4 3\n1100\n0110\n0011\n")
        assert run_cli("css", "decode", str(weak), "1000") == 0
        assert "decode failure" in capsys.readouterr().out

    def test_coset_of_inner_member_is_zero(self, capsys):
        assert run_cli("css", "coset", HAMMING, DUAL, "1101100") == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_coset_of_outer_representative(self, capsys):
        assert run_cli("css", "coset", HAMMING, DUAL, "1000110") == 0
        assert capsys.readouterr().out.strip() in {"0", "1"}

    def test_info_rejects_zero_dimension_code(self, tmp_path, capsys):
        zero = tmp_path / "zero.code"
        zero.write_text("7 0\n")
        assert run_cli("css", "info", str(zero)) == 2
        assert "zero.code" in capsys.readouterr().err

    def test_info_rejects_three_files(self, capsys):
        assert run_cli("css", "info", HAMMING, DUAL, HAMMING) == 2

    def test_bare_bundled_name_resolves_from_anywhere(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("css", "info", "hamming74.code") == 0
        assert "n=7 k=4 d=3" in capsys.readouterr().out

    def test_local_file_shadows_bundle(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "hamming74.code").write_text("3 1\n111\n")
        run_cli("css", "info", "hamming74.code")
        assert "n=3 k=1 d=3" in capsys.readouterr().out


GOLDEN_CONFIG = (
    "c1=hamming74.code\nc2=hamming74dual.code\nm=12\nt=2\ntprime=3\n"
    "eve=entangle:alpha=0.25\nblocks=6\nseed=5\n"
)


# sha256 of each artifact's bytes, recorded before the options moved into
# one table per command; a changed digest is a changed output format
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("tradeoff", "--steps", "25", "--out", "curve.csv"),
         "65870b214795a6186323e3fbde1d126614eca3cadf01656435c8030825761aa1"),
        (("security-curve", "--steps", "51", "--out", "sec.csv"),
         "3a5546379b4fa6a348e134abde4f8e426e1725004da1492c3739b3509663b855"),
        (("pingpong", "--rounds", "1500", "--eve", "measure:theta=1.5708", "--seed", "7",
          "--out", "report.json"),
         "860281e66e265f927924a648e98b9e190695817cf8af62a07c88d4f2149f0a90"),
        (("pingpong", "--rounds", "10", "--control-prob", "0", "--out", "report.json"),
         "607fbe22b60903d4bcf01194e5eb6b68703acb62c85c810c1ebddf371b59898f"),
        (("qkd", "--c1", "hamming74.code", "--c2", "hamming74dual.code", "--blocks", "3",
          "--m", "10", "--l", "10", "--seed", "2", "--reveal-keys", "--out", "qkd.json"),
         "70fba46f781b6f6b9273497f34dba6f40b4f5c6af6a8b05006297237b4c9f7e2"),
        (("qkd", "--config", "run.cfg", "--out", "qkd.json"),
         "2c4a8e8bb0f11ea81e9e1338705eabd64f0ff2402f38bd20a041630a4fc90b3e"),
    ],
    ids=["tradeoff", "security-curve", "pingpong-intercept", "pingpong-no-control",
         "qkd-reveal-keys", "qkd-config-file"],
)
def test_golden_artifact_bytes(tmp_path, monkeypatch, argv, digest):
    # bare bundled names and relative paths keep the bytes checkout-independent
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(GOLDEN_CONFIG)
    assert run_cli(*argv) == 0
    assert hashlib.sha256((tmp_path / argv[-1]).read_bytes()).hexdigest() == digest


# two distinct texts per option, neither the default
OPTION_SAMPLES = {
    "rounds": ("20", "30"),
    "control-prob": ("0.25", "0.75"),
    "eve": ("measure:theta=0.5", "entangle:alpha=0.2"),
    "noise": ("bitflip:p=0.1", "depolarizing:p=0.2"),
    "seed": ("3", "4"),
    "out": ("a.json", "b.json"),
    "c1": ("a.code", "b.code"),
    "c2": ("c.code", "d.code"),
    "m": ("12", "13"),
    "l": ("14", "15"),
    "t": ("1", "2"),
    "tprime": ("3", "4"),
    "blocks": ("2", "3"),
}
OPTION_ROWS = [("pingpong", cli.PINGPONG_OPTIONS, option) for option in cli.PINGPONG_OPTIONS] + [
    ("qkd", cli.QKD_OPTIONS, option) for option in cli.QKD_OPTIONS
]


@pytest.mark.parametrize(
    "command, options, option",
    OPTION_ROWS,
    ids=[f"{command}-{option.key}" for command, _, option in OPTION_ROWS],
)
class TestOptionTable:
    @staticmethod
    def resolve(command, options, option, *argv):
        args = cli.build_parser().parse_args([command, *argv])
        return cli._merge_config(args, options)[option.key]

    def test_flag_and_file_key_set_the_same_value(self, tmp_path, command, options, option):
        first, _ = OPTION_SAMPLES[option.key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option.key}={first}\n")
        from_flag = self.resolve(command, options, option, f"--{option.key}", first)
        from_file = self.resolve(command, options, option, "--config", str(cfg))
        assert from_flag == from_file == option.parse(first)

    def test_flag_beats_file_beats_default(self, tmp_path, command, options, option):
        first, second = OPTION_SAMPLES[option.key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option.key}={first}\n")
        default = self.resolve(command, options, option)
        from_file = self.resolve(command, options, option, "--config", str(cfg))
        both = self.resolve(command, options, option, "--config", str(cfg),
                            f"--{option.key}", second)
        assert default != from_file == option.parse(first)
        assert both == option.parse(second)

    def test_help_shows_flag_and_default(self, capsys, command, options, option):
        assert run_cli(command, "--help") == 0
        shown = " ".join(capsys.readouterr().out.split())
        assert f"--{option.key} " in shown
        if option.default is not None:
            assert f"(default {option.default})" in shown


@pytest.mark.parametrize(
    "argv, echo",
    [
        (("pingpong", "--rounds", "10"),
         {"rounds": 10, "control_prob": 0.5, "eve": "none", "noise": "none", "seed": 0}),
        (("qkd", "--blocks", "1", "--m", "20", "--l", "30", "--c1", "hamming74.code",
          "--c2", "hamming74dual.code", "--noise", "bitflip:p=0.01"),
         {"c1": "hamming74.code", "c2": "hamming74dual.code", "m": 20, "l": 30, "t": 2,
          "tprime": 3, "blocks": 1, "eve": "none", "noise": "bitflip:p=0.01", "seed": 0}),
    ],
    ids=["pingpong", "qkd"],
)
def test_json_config_echo(tmp_path, argv, echo):
    out = tmp_path / "r.json"
    run_cli(*argv, "--out", str(out))
    assert json.loads(out.read_text())["config"] == echo


class TestEntryPoint:
    def test_no_arguments_shows_usage(self, capsys):
        assert run_cli() == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "pingpong" in capsys.readouterr().out

    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pingpong_qkd.cli", "threshold"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "d* = 0.110028"

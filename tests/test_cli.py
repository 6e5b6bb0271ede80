"""Tests for the command-line front end.

Oracle notes.  The coefficient rows (1, -1/2), (2, 1/4), (3, -3/16) for
order two are the specializations of the closed forms for the first two
derivation coefficients plus the triangularly solved third; order one makes
every coefficient vanish because the coordinate change is the identity.
The leading coordinate-change exponent of the weight-1/2 generator at order
two is 1/2/2 - 1/2 = -1/4, and the leading character exponent at order two
is the twisted ground weight 1/16 minus the tensor-power central prefactor
2*(1/2)/24 = 1/24, i.e. 1/48.  CLI outputs are pure functions of the run
configuration, so repeated runs must agree byte for byte.
"""

import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from twistfock.scalars import QQ, ONE
from twistfock.fermion import OMEGA, PSI, VACUUM, State
from twistfock import cli
from twistfock.cli import main, parse_config_file, parse_state
from twistfock.deltak import MAX_CONJUGATION_DEPTH, MAX_TABLE_DEPTH
from twistfock.scalars import MAX_CONDUCTOR
from twistfock.twist import MAX_CUTOFF
from twistfock import verify
from twistfock.verify import MAX_WEIGHT, SuiteConfig, parse_bool, parse_rational

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAjcoeffs:
    def test_order_two_first_rows(self, capsys):
        code, out, _ = run_cli(capsys, "ajcoeffs", "--k", "2", "--depth", "2")
        assert code == 0
        assert out.splitlines() == ["j,a_j", "1,-1/2", "2,1/4"]

    def test_order_two_third_row(self, capsys):
        code, out, _ = run_cli(capsys, "ajcoeffs", "--k", "2", "--depth", "3")
        assert code == 0
        assert out.splitlines()[-1] == "3,-3/16"

    def test_order_one_is_all_zeros(self, capsys):
        code, out, _ = run_cli(capsys, "ajcoeffs", "--k", "1", "--depth", "5")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 5
        assert all(row.endswith(",0") for row in rows)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "ajcoeffs", "--k", "2", "--depth", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2
        assert payload["rows"] == [
            {"j": 1, "a": "-1/2"},
            {"j": 2, "a": "1/4"},
        ]

    def test_decimal_marks_approximations(self, capsys):
        code, out, _ = run_cli(
            capsys, "ajcoeffs", "--k", "2", "--depth", "2", "--decimal"
        )
        assert code == 0
        assert "~-0.5" in out
        assert "~0.25" in out


class TestDeltaApply:
    def test_generator_leading_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "delta-apply", "--k", "2", "--state", "psi")
        assert code == 0
        payload = json.loads(out)
        assert payload["pieces"][0]["exponent"] == "-1/4"
        assert payload["pieces"][0]["j"] == "0"

    def test_vacuum_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "delta-apply", "--k", "2", "--state", "vacuum")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["pieces"]) == 1
        piece = payload["pieces"][0]
        assert piece["j"] == "0"
        assert piece["exponent"] == "0"
        assert payload["prefactor"] == "1"

    def test_conformal_vector_matches_direct_expansion(self, capsys):
        from twistfock.deltak import apply_delta

        code, out, _ = run_cli(capsys, "delta-apply", "--k", "2", "--state", "omega")
        assert code == 0
        payload = json.loads(out)
        direct = apply_delta(2, OMEGA)
        assert len(payload["pieces"]) == len(direct.pieces)
        for row, (exponent, piece) in zip(payload["pieces"], direct.pieces):
            assert row["exponent"] == str(exponent)
            assert row["state"] == piece.render()

    def test_inverse_direction(self, capsys):
        code, out, _ = run_cli(
            capsys, "delta-apply", "--k", "2", "--state", "psi", "--inverse"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["direction"] == "inverse"
        assert payload["pieces"][0]["exponent"] == "1/4"

    def test_exponent_window(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "delta-apply", "--k", "2", "--state", "omega", "--lo", "-1", "--hi", "-1",
        )
        assert code == 0
        payload = json.loads(out)
        assert [p["exponent"] for p in payload["pieces"]] == ["-1"]

    @pytest.mark.parametrize("joined, spaced", [
        (("--state=psi", "--lo=-1/3"), ("--state", "psi", "--lo", "-1/3")),
        (("--state=omega", "--hi=-1"), ("--state", "omega", "--hi", "-1")),
        (("--state=omega", "--hi=-1/2"), ("--state", "omega", "--hi", "-1/2")),
        (("--state=-3/2,-1/2",), ("--state", "-3/2,-1/2")),
        (("--state=-3/2,-1/2", "--inverse", "--lo=-1", "--hi=-1/2"),
         ("--state", "-3/2,-1/2", "--inverse", "--lo", "-1", "--hi", "-1/2")),
    ])
    def test_negative_values_with_a_space_or_equals(self, capsys, joined, spaced):
        results = [run_cli(capsys, "delta-apply", "--k", "2", *argv)
                   for argv in (joined, spaced)]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, err) == (0, "")
        assert json.loads(out)["k"] == 2

    def test_negative_bound_filters_with_a_space(self, capsys):
        code, out, _ = run_cli(
            capsys, "delta-apply", "--k", "2", "--state", "omega", "--lo", "-3/2",
            "--hi", "-1/2",
        )
        assert code == 0
        assert [p["exponent"] for p in json.loads(out)["pieces"]] == ["-1"]

    def test_flag_is_not_taken_for_a_negative_value(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["delta-apply", "--k", "2", "--lo", "--hi", "1"])
        assert stop.value.code == 2
        assert "argument --lo: expected one argument" in capsys.readouterr().err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "delta-apply", "--k", "2", "--state", "psi", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "j,exponent,state"

    def test_decimal_renders_the_cyclotomic_prefactor(self, capsys):
        argv = ("delta-apply", "--k", "2", "--state=-1/2")
        code, out, _ = run_cli(capsys, *argv, "--decimal")
        assert code == 0
        prefactor = json.loads(out)["prefactor"]
        assert prefactor.startswith("~") and "z8" not in prefactor
        assert abs(float(prefactor[1:]) - 2 ** -0.5) < 1e-12
        code, exact, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(exact)["prefactor"] == "(1/2*z8 + -1/2*z8^3)"


class TestParseState:
    def test_named_states(self):
        assert parse_state("vacuum") is VACUUM
        assert parse_state("1") is VACUUM
        assert parse_state("psi") is PSI
        assert parse_state("omega") is OMEGA

    def test_mode_word(self):
        state = parse_state("-3/2,-1/2")
        assert state == State({(-3, -1): ONE})

    def test_rejects_non_half_odd_indices(self):
        with pytest.raises(ValueError):
            parse_state("-1")
        with pytest.raises(ValueError):
            parse_state("1/2")

    def test_rejects_unordered_or_repeated(self):
        with pytest.raises(ValueError):
            parse_state("-1/2,-3/2")
        with pytest.raises(ValueError):
            parse_state("-1/2,-1/2")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_state("phi")


class TestChar:
    def test_order_two_leading_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--k", "2", "--cutoff", "3")
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "exponent,dimension"
        assert rows[1] == "1/48,2"

    def test_rejects_odd_order(self, capsys):
        code, _, err = run_cli(capsys, "char", "--k", "3")
        assert code == 2
        assert "even tensor order" in err


class TestTwistBuild:
    def test_ground_weights(self, capsys):
        code, out, _ = run_cli(capsys, "twist-build", "--k", "2", "--cutoff", "1")
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "word,sigma_weight,grade,twisted_weight"
        assert rows[1] == "|R>,1/16,0,1/16"
        assert any(row.endswith(",17/16,1/2,9/16") for row in rows[2:])

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "twist-build", "--k", "2", "--cutoff", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["weight_constant"] == "1/32"
        assert payload["basis"][0]["twisted_weight"] == "1/16"

    def test_rejects_odd_order(self, capsys):
        code, _, err = run_cli(capsys, "twist-build", "--k", "3")
        assert code == 2
        assert "even tensor order" in err


class TestVerify:
    def test_even_order_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--k", "2", "--radius", "1", "--jacobi", "off"
        )
        assert code == 0
        assert "checks as expected" in out

    def test_odd_order_strict_exits_nonzero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--k", "3", "--radius", "1")
        assert code == 1
        assert "obstruction-even-form" in out

    def test_odd_order_with_expected_obstruction_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--k", "3", "--radius", "1", "--expect-obstruction"
        )
        assert code == 0
        assert "obstruction-odd-form" in out

    @pytest.mark.parametrize("radius, bounds", [
        ("0", "[0, 0]"), ("1/4", "[-1/4, 1/4]"),
    ], ids=["radius-0", "radius-1/4"])
    def test_obstruction_window_without_a_witness_exits_two(
            self, capsys, radius, bounds):
        # on these windows the two forms' residue sides agree at every
        # point, so the even form's expected failure could not happen
        code, out, err = run_cli(
            capsys, "verify", "--k", "3", "--expect-obstruction",
            "--radius", radius,
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: obstruction-even-form[k=3,psi,psi] cannot fail on the "
            f"window x1 in {bounds}; x2 in {bounds}: at no point there does "
            "its residue side differ from another form's; widen the window\n"
        )

    def test_obstruction_window_with_a_witness_fails_as_expected(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--k", "3", "--expect-obstruction",
            "--radius", "1/2", "--format", "json",
        )
        assert code == 0
        rows = {row["name"]: row for row in json.loads(out)}
        even = rows["obstruction-even-form[k=3,psi,psi]"]
        odd = rows["obstruction-odd-form[k=3,psi,psi]"]
        assert (even["verdict"], even["compared"], even["mismatch_count"]) == (
            "fail", 294, 6)
        assert (odd["verdict"], odd["compared"]) == ("pass", 294)
        assert all(row["as_expected"] for row in rows.values())

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--k", "3", "--radius", "1",
            "--expect-obstruction", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(row["as_expected"] for row in payload)

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--k", "2", "--radius", "1", "--jacobi", "off",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("check,k,window,")

    def test_empty_window_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--k", "2", "--radius", "-1")
        assert code == 2
        assert "no coefficients compared" in err

    @pytest.mark.parametrize("command, flag, value", [
        pytest.param("verify", "--radius", "-1/2", id="--radius"),
        pytest.param("verify", "--domain-level", "-1/2", id="--domain-level"),
        pytest.param("verify", "--weight", "-1/2", id="--weight"),
        *(pytest.param(command, flag, "-1", id=f"{command} {flag}")
          for command, flags in (("verify", ("--k", "--cutoff", "--depth")),
                                 ("char", ("--k", "--cutoff")),
                                 ("twist-build", ("--k", "--cutoff")),
                                 ("ajcoeffs", ("--k", "--depth")))
          for flag in flags),
    ])
    def test_negative_fraction_reaches_the_check_with_a_space(
            self, capsys, command, flag, value):
        spaced = run_cli(capsys, command, "--k", "2", flag, value)
        assert spaced == run_cli(capsys, command, "--k", "2", f"{flag}={value}")
        code, _, err = spaced
        assert code == 2 and err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--domain-level", "--weight"])
    def test_negative_level_is_an_error(self, capsys, flag):
        # a level below 0 selects no basis word, so nothing is compared
        code, out, err = run_cli(capsys, "verify", "--k", "2", flag, "-1",
                                 "--radius", "0", "--jacobi", "off")
        assert (code, out) == (2, "")
        assert err.startswith("error: no coefficients compared")
        assert err.count("\n") == 1


class TestConfigFile:
    def test_parse_config_file(self):
        mapping = parse_config_file("k=4\n# comment\n\nradius = 3/2\njacobi=off\n")
        assert mapping == {"k": "4", "radius": "3/2", "jacobi": "off"}

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_file("radius\n")

    def test_config_overrides_flags(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("k=1\ndepth=2\n")
        code, out, _ = run_cli(
            capsys,
            "ajcoeffs", "--k", "2", "--depth", "5", "--config", str(config),
        )
        assert code == 0
        assert out.splitlines() == ["j,a_j", "1,0", "2,0"]
        config.write_text("jacobi=off\ndepth=2\n")
        window = ("--k", "2", "--radius", "0", "--domain-level", "1",
                  "--weight", "1", "--format", "json")
        code, out, _ = run_cli(
            capsys, "verify", *window, "--jacobi", "on", "--depth", "5",
            "--config", str(config),
        )
        assert code == 0
        names = [report["name"] for report in json.loads(out)]
        assert "conjugation[k=2,wt<= 3/2,depth=2]" in names
        assert not any(name.startswith("twisted-jacobi") for name in names)
        assert run_cli(
            capsys, "verify", *window, "--jacobi", "off", "--depth", "2"
        ) == (0, out, "")

    @pytest.mark.parametrize("key", ["state", "command", "config", "fmt"])
    def test_unknown_config_key_rejected(self, capsys, tmp_path, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}=psi\n")
        code, out, err = run_cli(capsys, "ajcoeffs", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: config key {key!r} does not apply to this subcommand\n"

    def test_depth_key_rejected_by_delta_apply(self, capsys, tmp_path):
        # the coordinate change sizes its own table from the state's weight
        config = tmp_path / "run.cfg"
        config.write_text("depth=2\n")
        code, out, err = run_cli(capsys, "delta-apply", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "error: config key 'depth' does not apply to this subcommand\n"

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "ajcoeffs", "--config", "/nonexistent.cfg")
        assert code == 2
        assert err.startswith("error:")


# Each subcommand on a cheap request, and a value of each of its flags but
# --config and --out (whose output goes to a file; see
# test_out_entry_equals_flag): (flag arguments, config entry).  An on/off
# flag is given alone on the command line and as a spelling of true in the
# file.
_COMMON_FLAGS = {
    "--format": (("--format", "json"), "format=json"),
    "--decimal": (("--decimal",), "decimal=on"),
}
_VERIFY_BASE = ("verify", "--k", "2", "--radius", "0", "--domain-level", "0",
                "--weight", "0", "--jacobi", "off", "--cutoff", "0",
                "--depth", "1")
FLAG_CASES = {
    ("ajcoeffs",): {
        **_COMMON_FLAGS,
        "--k": (("--k", "3"), "k=3"),
        "--depth": (("--depth", "3"), "depth=3"),
    },
    ("delta-apply",): {
        **_COMMON_FLAGS,
        "--format": (("--format", "csv"), "format=csv"),
        "--k": (("--k", "3"), "k=3"),
        "--state": (("--state", "omega"), "state=omega"),
        "--inverse": (("--inverse",), "inverse=yes"),
        "--lo": (("--lo", "-1/8"), "lo=-1/8"),
        "--hi": (("--hi", "-1/2"), "hi=-1/2"),
    },
    ("char", "--cutoff", "2"): {
        **_COMMON_FLAGS,
        "--k": (("--k", "4"), "k=4"),
        "--cutoff": (("--cutoff", "3"), "cutoff=3"),
    },
    ("twist-build", "--cutoff", "1"): {
        **_COMMON_FLAGS,
        "--k": (("--k", "4"), "k=4"),
        "--cutoff": (("--cutoff", "2"), "cutoff=2"),
    },
    _VERIFY_BASE: {
        **_COMMON_FLAGS,
        "--k": (("--k", "1"), "k=1"),
        "--cutoff": (("--cutoff", "1"), "cutoff=1"),
        "--depth": (("--depth", "2"), "depth=2"),
        "--radius": (("--radius", "1/2"), "radius=1/2"),
        "--domain-level": (("--domain-level", "1"), "domain_level=1"),
        "--weight": (("--weight", "1/2"), "weight=1/2"),
        "--jacobi": (("--jacobi", "on"), "jacobi=on"),
        "--expect-obstruction": (("--expect-obstruction",),
                                 "expect_obstruction=true"),
    },
}
# flags that leave this output as it is: verify renders no value, and its
# suite at k = 2 has no obstruction to expect
NO_EFFECT = {("verify", "--decimal"), ("verify", "--expect-obstruction")}
DEFAULT_FORMATS = {"ajcoeffs": "csv", "delta-apply": "json", "char": "csv",
                   "twist-build": "csv", "verify": "table"}


class TestConfigFlagEquivalence:
    """A config-file entry key=value is the flag --key value: the same
    output, exit code and error text, for every flag of every subcommand."""

    @pytest.mark.parametrize("base, flag", [
        pytest.param(base, flag, id=f"{base[0]} {flag}")
        for base, flags in FLAG_CASES.items() for flag in flags
    ])
    def test_entry_equals_flag(self, capsys, tmp_path, base, flag):
        flag_argv, entry = FLAG_CASES[base][flag]
        config = tmp_path / "run.cfg"
        config.write_text(entry + "\n")
        by_flag = run_cli(capsys, *base, *flag_argv)
        assert by_flag == run_cli(capsys, *base, "--config", str(config))
        if (base[0], flag) not in NO_EFFECT:
            assert by_flag != run_cli(capsys, *base)

    @pytest.mark.parametrize("command", sorted(DEFAULT_FORMATS))
    def test_out_entry_equals_flag(self, capsys, tmp_path, command):
        base = next(base for base in FLAG_CASES if base[0] == command)
        target = tmp_path / "out.txt"
        config = tmp_path / "run.cfg"
        config.write_text(f"out={target}\n")
        runs = []
        for argv in (("--out", str(target)), ("--config", str(config))):
            runs.append((run_cli(capsys, *base, *argv),
                         target.read_text(encoding="utf-8")))
            target.unlink()
        assert runs[0] == runs[1]
        (code, out, err), text = runs[0]
        assert (out, err) == ("", "") and text

    @pytest.mark.parametrize("command", sorted(DEFAULT_FORMATS))
    @pytest.mark.parametrize("key", ["config", "command", "fmt", "help",
                                     "domain-level"])
    def test_non_flag_key_rejected(self, capsys, tmp_path, command, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}=1\n")
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: config key {key!r} does not apply to this subcommand\n"

    @pytest.mark.parametrize("command", sorted(DEFAULT_FORMATS))
    @pytest.mark.parametrize("value", ["xml", ""], ids=["xml", "empty"])
    def test_unknown_format_entry_rejected(self, capsys, tmp_path, command, value):
        config = tmp_path / "run.cfg"
        config.write_text(f"format={value}\n")
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == (
            f"error: format must be one of json, csv, table, got {value!r}\n"
        )

    @pytest.mark.parametrize("command", sorted(DEFAULT_FORMATS))
    def test_no_format_is_the_default_format(self, capsys, command):
        base = next(base for base in FLAG_CASES if base[0] == command)
        plain = run_cli(capsys, *base)
        assert plain[0] == 0
        assert plain == run_cli(capsys, *base, "--format", DEFAULT_FORMATS[command])

    def test_verify_defaults_are_the_suite_defaults(self):
        args = cli.build_parser().parse_args(["verify"])
        for field, default in SuiteConfig()._asdict().items():
            value = getattr(args, field)
            assert (field, value, type(value)) == (field, default, type(default))


class TestReproducibility:
    def test_outputs_are_byte_identical(self, capsys):
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "verify", "--k", "2", "--radius", "1", "--jacobi", "off"
            )
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "char", "--k", "2", "--cutoff", "3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        code, out, _ = run_cli(capsys, "char", "--k", "2", "--cutoff", "3")
        assert target.read_text(encoding="utf-8") == out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "twistfock.cli", "ajcoeffs", "--k", "2",
             "--depth", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "1,-1/2"


class TestValidation:
    def test_rejects_nonpositive_order(self, capsys):
        code, _, err = run_cli(capsys, "ajcoeffs", "--k", "0")
        assert code == 2
        assert "positive" in err

    def test_rejects_negative_cutoff(self, capsys):
        code, _, err = run_cli(capsys, "char", "--k", "2", "--cutoff", "-1")
        assert code == 2
        assert "cutoff" in err

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--depth", "0"), "depth must be >= 1, got 0"),
        (("ajcoeffs", "--depth", "0"), "depth must be >= 1, got 0"),
        (("char", "--cutoff", "-1"), "cutoff must be >= 0, got -1"),
        (("twist-build", "--cutoff", "-1"), "cutoff must be >= 0, got -1"),
        (("verify", "--cutoff", "-1"), "cutoff must be >= 0, got -1"),
    ])
    def test_depth_and_cutoff_below_the_floor_exit_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


class TestTableDepthCeiling:
    """ajcoeffs takes the depth as a flag; delta-apply reads a table of depth
    ceil(p) on a weight-p state, so weight (2 * ceiling + 1) / 2 needs one
    of depth ceiling + 1."""

    @pytest.mark.parametrize("command", ["ajcoeffs", "delta-apply"])
    def test_depth_above_the_ceiling_exits_two(self, capsys, command):
        depth = str(MAX_TABLE_DEPTH + 1)
        if command == "ajcoeffs":
            request = ("--depth", depth)
        else:
            request = (f"--state=-{2 * MAX_TABLE_DEPTH + 1}/2",)
        code, out, err = run_cli(capsys, command, "--k", "2", *request)
        assert (code, out) == (2, "")
        assert err == (
            f"error: table depth {depth} exceeds the ceiling {MAX_TABLE_DEPTH}\n"
        )


class TestConjugationDepthCeiling:
    """verify refuses a conjugation depth above the ceiling before any check
    runs; only ceiling + 1 is tried, never a large depth."""

    def test_flag_above_the_ceiling_exits_two(self, capsys):
        depth = str(MAX_CONJUGATION_DEPTH + 1)
        code, out, err = run_cli(
            capsys, "verify", "--k", "3", "--expect-obstruction", "--depth", depth
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: conjugation depth {depth} exceeds the ceiling "
            f"{MAX_CONJUGATION_DEPTH}\n"
        )

    def test_config_above_the_ceiling_exits_two(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"depth={MAX_CONJUGATION_DEPTH + 1}\n")
        code, out, err = run_cli(capsys, "verify", "--k", "2", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: conjugation depth")


class TestCutoffCeiling:
    """char, twist-build and verify refuse a module cutoff above the
    ceiling before any work; only ceiling + 1 is tried, never a large one."""

    @pytest.mark.parametrize("command", [
        ("char", "--k", "2"),
        ("twist-build", "--k", "4"),
        ("verify", "--k", "3", "--expect-obstruction"),
    ])
    def test_above_the_ceiling_exits_two(self, capsys, command):
        cutoff = str(MAX_CUTOFF + 1)
        code, out, err = run_cli(capsys, *command, "--cutoff", cutoff)
        assert (code, out) == (2, "")
        assert err == f"error: cutoff {cutoff} exceeds the ceiling {MAX_CUTOFF}\n"

    def test_char_at_the_ceiling_runs(self, capsys):
        code, out, _ = run_cli(capsys, "char", "--k", "2", "--cutoff", str(MAX_CUTOFF))
        assert code == 0 and len(out.splitlines()) == MAX_CUTOFF + 2


class TestWeightCeiling:
    """verify refuses an untwisted weight above the ceiling with one line,
    before any check runs; only weights just above the ceiling are tried,
    never a large one, and the ceiling itself is let through."""

    @pytest.fixture
    def started(self, monkeypatch):
        # the suite's first check: a call means the run got past its
        # preamble, and the sentinel stops it there
        calls = []

        def first_check(*args):
            calls.append(args)
            raise LookupError("suite started")

        monkeypatch.setattr(verify, "verify_delta_identity", first_check)
        return calls

    @pytest.mark.parametrize("weight", [f"{2 * MAX_WEIGHT + 1}/2",
                                        str(MAX_WEIGHT + 1)])
    def test_flag_above_the_ceiling_exits_two(self, capsys, started, weight):
        code, out, err = run_cli(capsys, "verify", "--k", "2", "--weight",
                                 weight)
        assert (code, out) == (2, "")
        assert err == f"error: weight {weight} exceeds the ceiling {MAX_WEIGHT}\n"
        assert started == []

    def test_config_above_the_ceiling_exits_two(self, capsys, started,
                                                tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"weight={MAX_WEIGHT + 1}\n")
        code, out, err = run_cli(capsys, "verify", "--k", "3",
                                 "--expect-obstruction", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == (f"error: weight {MAX_WEIGHT + 1} exceeds the ceiling "
                       f"{MAX_WEIGHT}\n")
        assert started == []

    def test_ceiling_is_accepted(self, started):
        with pytest.raises(LookupError, match="suite started"):
            verify.run_suite(SuiteConfig(weight=QQ(MAX_WEIGHT)))
        assert len(started) == 1


class TestConductorCeiling:
    """An order whose half-integer weights need a cyclotomic field above the
    ceiling exits 2 with one line; rational results run at any order."""

    def test_half_integer_weight_above_the_ceiling_exits_two(self, capsys):
        k = MAX_CONDUCTOR // 4 + 1
        code, out, err = run_cli(capsys, "delta-apply", "--k", str(k), "--state", "psi")
        assert (code, out) == (2, "")
        assert err == (
            f"error: cyclotomic conductor {4 * k} exceeds the ceiling {MAX_CONDUCTOR}\n"
        )

    def test_verify_above_the_ceiling_exits_two(self, capsys):
        # every verify run builds Q(zeta_{4k}) for its slot fields, so the
        # order is refused before any check, at odd k too
        k = MAX_CONDUCTOR // 4 + 1
        code, out, err = run_cli(capsys, "verify", "--k", str(k))
        assert (code, out) == (2, "")
        assert err == (
            f"error: cyclotomic conductor {4 * k} exceeds the ceiling {MAX_CONDUCTOR}\n"
        )

    @pytest.mark.parametrize("argv", [
        ("delta-apply", "--state", "omega"),
        ("delta-apply", "--state=-3/2,-1/2", "--inverse"),
        ("ajcoeffs", "--depth", "2"),
    ])
    def test_rational_results_run_at_any_order(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--k", str(10**11))
        assert code == 0 and out


class TestSharedParser:
    """main parses every call with one parser per process."""

    def test_overrides_do_not_carry_into_the_next_call(self, capsys, tmp_path):
        plain = ("delta-apply", "--state", "omega")
        code, expected, _ = run_cli(capsys, *plain)
        assert code == 0
        config = tmp_path / "run.cfg"
        config.write_text("k=3\n")
        code, out, _ = run_cli(
            capsys, *plain, "--inverse", "--format", "csv", "--config", str(config)
        )
        assert code == 0 and out.startswith("j,exponent,state\n")
        code, again, _ = run_cli(capsys, *plain)
        assert (code, again) == (0, expected)
        payload = json.loads(again)
        assert (payload["k"], payload["direction"]) == (2, "forward")

    def test_failed_calls_leave_the_next_call_intact(self, capsys):
        plain = ("delta-apply", "--k", "3", "--state=-3/2,-1/2")
        code, expected, _ = run_cli(capsys, *plain)
        assert code == 0
        with pytest.raises(SystemExit) as stop:
            main(["delta-apply", "--k", "x"])
        assert stop.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *plain) == (0, expected, "")
        code, _, err = run_cli(capsys, "delta-apply", "--state", "bogus")
        assert code == 2 and err.startswith("error:")
        assert run_cli(capsys, *plain) == (0, expected, "")

    def test_parser_is_built_once_through_the_module_name(self, capsys, monkeypatch):
        original = cli.build_parser
        builds = []

        def counting():
            builds.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        for argv in (["ajcoeffs", "--k", "2"], ["delta-apply", "--k", "2"],
                     ["char", "--k", "2", "--cutoff", "1"]):
            assert main(argv) == 0
        capsys.readouterr()
        assert len(builds) == 1


class TestRationalArguments:
    def test_exact_spellings(self):
        assert parse_rational("3/2") == QQ(3, 2)
        assert parse_rational(" -4 ") == QQ(-4)
        assert parse_rational("6/4") == QQ(3, 2)
        assert parse_rational("\t+3 / -2\n") == QQ(-3, 2)
        assert parse_rational(QQ(1, 3)) == QQ(1, 3)

    @pytest.mark.parametrize("raw", ["1/0", "0/0", "0.5", "1e3", "x", "1/2/3", "",
                                     "-1_1/2", "٣/2"])
    def test_rejects_with_value_error(self, raw):
        with pytest.raises(ValueError):
            parse_rational(raw)

    def test_bool_spellings(self):
        for raw in ("1", "true", "YES", " on ", True):
            assert parse_bool(raw) is True
        for raw in ("0", "false", "No", "off", False):
            assert parse_bool(raw) is False
        with pytest.raises(ValueError, match="not a boolean"):
            parse_bool("maybe")

    def test_zero_denominator_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["verify", "--k", "2", "--radius", "1/0"])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "twistfock verify: error: argument --radius: "
            "zero denominator in '1/0'"
        ]

    def test_decimal_flag_exits_two_with_its_reason(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["verify", "--k", "2", "--weight", "0.5"])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "twistfock verify: error: argument --weight: "
            "not an integer or p/q rational: '0.5'"
        ]

    def test_zero_denominator_config_entry_exits_two(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("radius=1/0\n")
        code, out, err = run_cli(capsys, "verify", "--k", "2", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err == "error: config key 'radius': zero denominator in '1/0'\n"

    def test_decimal_config_entry_exits_two(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("weight=0.5\n")
        code, _, err = run_cli(capsys, "verify", "--k", "2", "--config", str(config))
        assert code == 2
        assert err.startswith(
            "error: config key 'weight': not an integer or p/q rational")

    @pytest.mark.parametrize("entry,message", [
        ("k=abc", "error: config key 'k': invalid literal for int() "
                  "with base 10: 'abc'\n"),
        ("radius=abc", "error: config key 'radius': not an integer or p/q "
                       "rational: 'abc'\n"),
        ("jacobi=maybe", "error: config key 'jacobi': "),
    ])
    def test_bad_config_value_names_its_key(self, capsys, tmp_path, entry, message):
        config = tmp_path / "run.cfg"
        config.write_text(entry + "\n")
        code, out, err = run_cli(capsys, "verify", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith(message)

    def test_zero_denominator_state_word_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "delta-apply", "--k", "2", "--state=-1/0")
        assert code == 2
        assert err == "error: bad mode index '-1/0' in state\n"

    @pytest.mark.parametrize("word,message", [
        ("-3/2,,-1/2", "empty mode index in state '-3/2,,-1/2'"),
        ("abc", "bad mode index 'abc' in state"),
        ("0", "mode 0 is not in Z + 1/2"),
        ("-1", "mode -1 is not in Z + 1/2"),
        ("-3/4", "mode -3/4 is not in Z + 1/2"),
        ("1/2", "mode 1/2 is not a creation mode"),
        ("-1/2,-1/2", "word (-1/2, -1/2) is not strictly ascending"),
        ("-1_1/2", "bad mode index '-1_1/2' in state"),
        ("٣/2", "bad mode index '٣/2' in state"),
    ])
    def test_bad_state_word_exits_two_with_one_line(self, capsys, word, message):
        code, out, err = run_cli(capsys, "delta-apply", "--k", "2", f"--state={word}")
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_underscored_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["verify", "--k", "2", "--radius", "1_0"])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "twistfock verify: error: argument --radius: "
            "not an integer or p/q rational: '1_0'"
        ]


def readme_commands() -> list:
    """The argv of every ``twistfock`` command line in the README."""
    return [
        tuple(shlex.split(line.partition("#")[0])[1:])
        for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("twistfock ")
    ]


def leading_exponent(out: str) -> str:
    return json.loads(out)["pieces"][0]["exponent"]


# Every command of the README, each with the outcome the README promises;
# each runs in a fresh directory, where `--out report.json` writes its file.
README_CHEAP = {
    ("ajcoeffs", "--k", "2", "--depth", "3"):
        lambda out: out.splitlines() == ["j,a_j", "1,-1/2", "2,1/4", "3,-3/16"],
    ("delta-apply", "--k", "2", "--state", "psi"):
        lambda out: leading_exponent(out) == "-1/4",
    ("delta-apply", "--k", "2", "--state", "omega", "--inverse"):
        lambda out: leading_exponent(out) == "1"
        and json.loads(out)["direction"] == "inverse",
    ("delta-apply", "--k", "2", "--state=-3/2,-1/2"):
        lambda out: leading_exponent(out) == "-1"
        and json.loads(out)["input"] == "(1)*psi(-3/2)psi(-1/2)|0>",
    ("char", "--k", "2", "--cutoff", "7"):
        lambda out: out.splitlines()[1] == "1/48,2",
    ("twist-build", "--k", "2", "--cutoff", "4", "--format", "table"):
        lambda out: out.splitlines()[2].split() == ["|R>", "1/16", "0", "1/16"],
    ("verify", "--k", "3", "--expect-obstruction"):
        lambda out: out.splitlines()[-1] == "15/15 checks as expected",
    ("verify", "--k", "2"):
        lambda out: out.splitlines()[-1] == "34/34 checks as expected",
    ("verify", "--k", "2", "--format", "json", "--out", "report.json"):
        lambda out: out == "" and hashlib.sha256(
            Path("report.json").read_bytes()).hexdigest().startswith("3d317c93d4fe"),
}


class TestReadmeCommands:
    def test_every_readme_command_is_listed(self):
        commands = readme_commands()
        assert len(commands) == len(set(commands))
        assert set(commands) == set(README_CHEAP)

    @pytest.mark.parametrize("argv", sorted(README_CHEAP), ids=" ".join)
    def test_command_works_as_written(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert README_CHEAP[argv](out)

"""Command-line interface tests: exit codes, output formats, batch mode."""

import json
import os
import random
import re
import string
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from ct_forge import contour
from ct_forge.cli import main
from ct_forge.contour import contour_ct_converged
from ct_forge.identities import IdentitySpec


# The one message for each malformed --order; a repeat is named before a
# number below 1 ("0,0" repeats the nonexistent variable x0).
BAD_ORDER_ERRORS = {
    "1,1": "error: bad --order '1,1': extraction order repeats a variable\n",
    "0,0": "error: bad --order '0,0': extraction order repeats a variable\n",
    "0,1": "error: bad --order '0,1': variable numbers start at 1\n",
    "x": "error: bad --order 'x': invalid literal for int() with base 10: 'x'\n",
    "2;1": "error: bad --order '2;1': invalid literal for int() with base 10: '2;1'\n",
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(args, **env):
    """A fresh interpreter on args, with the package's src on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


TOP_USAGE = "usage: ct-forge [-h] {verify,ct,oracle,chain,gamma-check} ...\n"
VERIFY_USAGE = (
    "usage: ct-forge verify [-h] [--family {cry,mm,morris,thm}] [--n N] [--a A]\n"
    "                       [--b B] [--twoc TWOC] [--order ORDER] [--grid GRID]\n"
    "                       [--format {text,json}]\n")
ORACLE_USAGE = (
    "usage: ct-forge oracle [-h] [--family {cry,mm,morris,thm}] [--n N] [--a A]\n"
    "                       [--b B] [--twoc TWOC] [--points POINTS]\n"
    "                       [--format {text,json}]\n")
CHAIN_USAGE = (
    "usage: ct-forge chain [-h] --n N --a A --twoc TWOC [--points POINTS]\n"
    "                      [--format {text,json}]\n")


class TestUsageErrors:
    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        # argparse wraps usage and help to the terminal width
        monkeypatch.setenv("COLUMNS", "80")

    def test_no_subcommand(self, capsys):
        assert run(capsys, []) == (2, "", TOP_USAGE + "ct-forge: error: the following "
                                   "arguments are required: command\n")

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"]) == (2, "", TOP_USAGE + "ct-forge: error: argument "
                                               "command: invalid choice: 'frobnicate' (choose "
                                               "from 'verify', 'ct', 'oracle', 'chain', "
                                               "'gamma-check')\n")

    @pytest.mark.parametrize("argv,err", [
        # leftover words are named under the top-level usage, not the subcommand's
        (["verify", "--family", "mm", "--n", "2", "--bogus"],
         TOP_USAGE + "ct-forge: error: unrecognized arguments: --bogus\n"),
        (["verify", "--n", "x"],
         VERIFY_USAGE + "ct-forge verify: error: argument --n: invalid int value: 'x'\n"),
        (["ct"], "usage: ct-forge ct [-h] [--order ORDER] [--format {text,json}] spec_file\n"
         "ct-forge ct: error: the following arguments are required: spec_file\n"),
        # options the CLI does not take: named under the top-level usage too
        (["verify", "--family", "mm", "--n", "2", "--jobs", "2"],
         TOP_USAGE + "ct-forge: error: unrecognized arguments: --jobs 2\n"),
        (["oracle", "--family", "cry", "--n", "2", "--epsilon", "0.01"],
         TOP_USAGE + "ct-forge: error: unrecognized arguments: --epsilon 0.01\n"),
        (["chain", "--n", "2", "--a", "2", "--twoc", "1", "--epsilon", "0.01"],
         TOP_USAGE + "ct-forge: error: unrecognized arguments: --epsilon 0.01\n"),
        # words a subcommand does not take, also after "--", and argv the
        # top-level parser reads itself: an option first, a name in capitals
        (["verify", "--family", "mm", "--n", "2", "extra"],
         TOP_USAGE + "ct-forge: error: unrecognized arguments: extra\n"),
        (["gamma-check", "--n", "3", "extra"],
         TOP_USAGE + "ct-forge: error: unrecognized arguments: extra\n"),
        (["--bogus", "verify"], TOP_USAGE + "ct-forge: error: unrecognized arguments: --bogus\n"),
        (["verify", "--", "--n", "2"],
         TOP_USAGE + "ct-forge: error: unrecognized arguments: -- --n 2\n"),
        (["VERIFY"], TOP_USAGE + "ct-forge: error: argument command: invalid choice: 'VERIFY' "
         "(choose from 'verify', 'ct', 'oracle', 'chain', 'gamma-check')\n"),
    ], ids=["leftover", "bad-int", "missing-positional", "verify-jobs", "oracle-epsilon",
            "chain-epsilon", "verify-extra", "gamma-check-extra", "option-first",
            "double-dash", "capitals"])
    def test_usage_error_lines(self, capsys, argv, err):
        assert run(capsys, argv) == (2, "", err)

    def test_help_after_flags(self, capsys):
        # -h after a whole spec still prints the subcommand's help and exits 0
        code, out, err = run(capsys, ["verify", "--family", "mm", "--n", "2", "-h"])
        assert (code, out, err) == run(capsys, ["verify", "--help"])
        assert code == 0 and out.startswith(VERIFY_USAGE + "\noptions:\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "--fam", "mm", "--n", "2"],
        ["verify", "--family=mm", "--n=2"],
    ], ids=["abbreviated", "equals"])
    def test_flag_spellings(self, capsys, argv):
        def masked(result):
            code, out, err = result
            return code, re.sub(r"\(\d+\.\d ms\)", "(_ ms)", out), err

        full = masked(run(capsys, ["verify", "--family", "mm", "--n", "2"]))
        assert full == (0, "mm n=2 a=2 b=0 twoc=1: lhs=32 rhs=32 equal (_ ms)\n", "")
        assert masked(run(capsys, argv)) == full

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["ct-forge", "gamma-check", "--n", "2"])
        assert run(capsys, None) == (0, "n=1: cat=ok ratio=ok\nn=2: cat=ok ratio=ok\n", "")

    def test_help(self, capsys):
        assert run(capsys, ["--help"]) == (0, TOP_USAGE + """
exact and numeric verification of constant-term identities

positional arguments:
  {verify,ct,oracle,chain,gamma-check}
    verify              exact check of an identity instance
    ct                  exact constant term of a factored rational
    oracle              numeric contour estimate of an identity
    chain               numeric check of the substitution chain
    gamma-check         exact Gamma-product identity checks

options:
  -h, --help            show this help message and exit
""", "")

    def test_subcommand_help(self, capsys):
        assert run(capsys, ["verify", "--help"]) == (0, VERIFY_USAGE + """
options:
  -h, --help            show this help message and exit
  --family {cry,mm,morris,thm}
  --n N
  --a A
  --b B
  --twoc TWOC
  --order ORDER         extraction order as 1-based comma list, e.g. 2,1
  --grid GRID           JSON file with a list of identity specs
  --format {text,json}
""", "")

    def test_oracle_help(self, capsys):
        assert run(capsys, ["oracle", "--help"]) == (0, ORACLE_USAGE + """
options:
  -h, --help            show this help message and exit
  --family {cry,mm,morris,thm}
  --n N
  --a A
  --b B
  --twoc TWOC
  --points POINTS       samples per circle; the estimate is refined at twice
                        this
  --format {text,json}
""", "")

    def test_chain_help(self, capsys):
        assert run(capsys, ["chain", "--help"]) == (0, CHAIN_USAGE + """
options:
  -h, --help            show this help message and exit
  --n N
  --a A
  --twoc TWOC
  --points POINTS
  --format {text,json}
""", "")

    def test_verify_needs_spec(self, capsys):
        code, _, err = run(capsys, ["verify"])
        assert code == 2 and "family" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, ["verify", "--family", "qjacobi", "--n", "2"])
        assert code == 2

    def test_conflicting_pin(self, capsys):
        code, _, err = run(capsys, ["verify", "--family", "cry", "--n", "2", "--a", "3"])
        assert code == 2 and "error:" in err


class TestVerify:
    def test_mm_n2_text(self, capsys):
        code, out, _ = run(capsys, ["verify", "--family", "mm", "--n", "2"])
        assert code == 0
        assert "lhs=32" in out and "rhs=32" in out and "equal" in out

    def test_cry_n4(self, capsys):
        code, out, _ = run(capsys, ["verify", "--family", "cry", "--n", "4"])
        assert code == 0 and "lhs=140" in out

    def test_json_matches_text(self, capsys):
        code, out, _ = run(capsys, ["verify", "--family", "mm", "--n", "2",
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lhs"] == "32" and payload["rhs"] == "32"
        assert payload["equal"] is True
        assert payload["spec"] == {"family": "MM", "n": 2, "a": 2, "b": 0, "twoc": 1}

    def test_degenerate_morris(self, capsys):
        code, out, _ = run(capsys, ["verify", "--family", "morris", "--n", "2",
                                    "--a", "0", "--b", "0", "--twoc", "1"])
        assert code == 0 and "lhs=0" in out

    def test_nondefault_order_warns_and_reports_mismatch(self, capsys):
        # reversing the extraction order flips the pair orientation, so the
        # computed value is -32 and the identity check honestly fails
        code, out, err = run(capsys, ["verify", "--family", "mm", "--n", "2",
                                      "--order", "2,1"])
        assert code == 1
        assert "lhs=-32" in out and "MISMATCH" in out
        assert "warning" in err

    def test_default_order_is_silent(self, capsys):
        code, _, err = run(capsys, ["verify", "--family", "mm", "--n", "2",
                                    "--order", "1,2"])
        assert code == 0 and err == ""

    @pytest.mark.parametrize("order", ["1,1", "0,1", "x", "2;1"])
    def test_bad_order(self, capsys, order):
        code, out, err = run(capsys, ["verify", "--family", "mm", "--n", "2",
                                      "--order", order])
        assert (code, out, err) == (2, "", BAD_ORDER_ERRORS[order])

    def test_no_variable_count_cap(self, capsys):
        # n is not capped; the exact engine's per-step work budget bounds the work
        code, out, err = run(capsys, ["verify", "--family", "mm", "--n", "6",
                                      "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["lhs"] == "53337309063413760"


class TestGrid:
    GRID = [
        {"family": "MM", "n": 2},
        {"family": "CRY", "n": 3},
        {"family": "MORRIS", "n": 2, "a": 3, "b": 1, "twoc": 2},
        {"family": "THM", "n": 2, "a": 2, "twoc": 2},
    ]

    def test_batch(self, capsys, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(self.GRID))
        code, out, _ = run(capsys, ["verify", "--grid", str(grid_file)])
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == len(self.GRID)
        assert all("equal" in line for line in lines)

    def test_batch_json_lines_preserve_order(self, capsys, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(self.GRID))
        code, out, _ = run(capsys, ["verify", "--grid", str(grid_file),
                                    "--format", "json"])
        assert code == 0
        payloads = [json.loads(line) for line in out.strip().splitlines()]
        assert [p["spec"]["family"] for p in payloads] == ["MM", "CRY", "MORRIS", "THM"]
        assert all(p["equal"] for p in payloads)

    def test_grid_must_be_a_list(self, capsys, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(self.GRID[0]))
        code, _, err = run(capsys, ["verify", "--grid", str(grid_file)])
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"], ids=["1", "2"])
    def test_empty_grid(self, capsys, tmp_path, fmt):
        # an empty grid is refused in either format, not reported as every instance verifying
        grid_file = tmp_path / "grid.json"
        grid_file.write_text("[]")
        code, out, err = run(capsys, ["verify", "--grid", str(grid_file), "--format", fmt])
        assert (code, out, err) == (2, "", "error: --grid file lists no specs\n")

    @pytest.mark.parametrize("entry", [
        {"family": "mm", "n": True}, {"family": "morris", "n": 2, "a": True},
        {"family": "morris", "n": 2, "b": False}, {"family": "thm", "n": 2, "twoc": True},
    ])
    def test_bool_parameters(self, capsys, tmp_path, entry):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([entry]))
        code, out, err = run(capsys, ["verify", "--grid", str(grid_file)])
        assert code == 2 and out == "" and "integer" in err

    def test_unknown_key(self, capsys, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([{"family": "morris", "n": 2, "a": 2, "b": 1, "c": 2}]))
        code, out, err = run(capsys, ["verify", "--grid", str(grid_file)])
        assert code == 2 and out == "" and "unknown keys in identity spec: c" in err

    def test_null_parameter(self, capsys, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([{"family": "morris", "n": 2, "a": 2, "b": 1,
                                          "twoc": None}]))
        code, out, err = run(capsys, ["verify", "--grid", str(grid_file)])
        assert code == 2 and out == "" and "null value for twoc in identity spec" in err

    def test_grid_file_not_json(self, capsys, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text("{")
        code, out, err = run(capsys, ["verify", "--grid", str(grid_file)])
        assert code == 2 and out == "" and err.startswith("error:")

    def test_missing_grid_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["verify", "--grid", str(tmp_path / "nope.json")])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--family", "cry"], ["--n", "9"], ["--a", "1"], ["--b", "1"],
        ["--twoc", "2"], ["--order", "2,1"],
        ["--order", "2,1", "--family", "cry", "--n", "9"],
    ])
    def test_single_spec_flags_refused(self, capsys, tmp_path, flags):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(self.GRID[:1]))
        code, out, err = run(capsys, ["verify", "--grid", str(grid_file)] + flags)
        assert code == 2 and out == "" and "--grid" in err


class TestCt:
    def write(self, tmp_path, payload) -> str:
        path = tmp_path / "rational.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_geometric_factor(self, capsys, tmp_path):
        path = self.write(tmp_path, {"num": "1", "den": [["1 - x1", 2]]})
        code, out, _ = run(capsys, ["ct", path])
        assert code == 0 and out.strip() == "1"

    def test_bare_pole_has_no_constant_term(self, capsys, tmp_path):
        path = self.write(tmp_path, {"num": "1", "den": [["x1", 1]]})
        code, out, _ = run(capsys, ["ct", path])
        assert code == 0 and out.strip() == "0"

    def test_mm2_integrand_file(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "num": "1",
            "den": [["x1", 1], ["x2", 1], ["1 - x1", 2], ["1 - x2", 2],
                    ["x2 - x1", 1], ["1 - x1 - x2", 1]],
        })
        code, out, _ = run(capsys, ["ct", path, "--format", "json"])
        assert code == 0 and json.loads(out) == {"ct": "32"}

    def test_fractional_result(self, capsys, tmp_path):
        path = self.write(tmp_path, {"num": "1/3", "den": [["2 - x1", 1]]})
        code, out, _ = run(capsys, ["ct", path])
        assert code == 0 and out.strip() == "1/6"

    def test_order_flag(self, capsys, tmp_path):
        path = self.write(tmp_path, {"num": "1", "den": [
            ["1 - x1", 2], ["1 - x2", 2], ["x2 - x1", 1]]})
        code, out, err = run(capsys, ["ct", path, "--order", "2,1"])
        assert code == 0 and out.strip() == "-2" and "warning" in err

    @pytest.mark.parametrize("den", [[["1 - x1^2", 1], ["x2 - x1^2", 1]],
                                     [["x2 - x1^2", 1], ["1 - x1^2", 1]]])
    def test_first_offending_factor_in_canonical_order(self, capsys, tmp_path, den):
        # the error names the first bad factor in create's order, whatever the
        # file's order: a base without a constant term sorts first
        path = self.write(tmp_path, {"num": "1", "den": den})
        code, out, err = run(capsys, ["ct", path])
        assert (code, out) == (2, "")
        assert err == ("error: factor (x2 - x1^2) has degree 2 in x1; "
                       "constant-term extraction needs affine factors\n")

    @pytest.mark.parametrize("payload,order,value", [
        ({"num": "x2", "den": [["x1 - x2", 1], ["x2 - x1", 2], ["1 - x1", 2], ["1 - x2", 3]]},
         None, "-6"),
        ({"num": "1 + x1*x2 - 3*x2^2", "den": [["x1 - 1", 3], ["x2", 2], ["2*x1 - 2*x2 - 2", 1],
                                               ["-1 + x2", 2], ["x1 - x2", 2]]},
         None, "-3/2"),
        ({"num": "1 + x1*x2 - 3*x2^2", "den": [["x1 - 1", 3], ["x2", 2], ["2*x1 - 2*x2 - 2", 1],
                                               ["-1 + x2", 2], ["x1 - x2", 2]]},
         "2,1", "129/2"),
        ({"num": "1 - x2*x3", "den": [["x1", 2], ["x2", 1], ["x3", 2], ["x1 - x3", 2], ["x1 - x2", 1],
                                      ["x1 - 1", 1], ["x2 - 1", 2], ["x3 - 1", 2], ["x1 + x2 - 1", 1]]},
         None, "-482"),
        ({"num": "1 - x2*x3", "den": [["x1", 2], ["x2", 1], ["x3", 2], ["x1 - x3", 2], ["x1 - x2", 1],
                                      ["x1 - 1", 1], ["x2 - 1", 2], ["x3 - 1", 2], ["x1 + x2 - 1", 1]]},
         "3,2,1", "477"),
    ])
    def test_bases_of_either_sign(self, capsys, tmp_path, payload, order, value):
        # bases stored up to sign give the values they gave as written
        path = self.write(tmp_path, payload)
        code, out, _ = run(capsys, ["ct", path] + (["--order", order] if order else []))
        assert code == 0 and out == value + "\n"

    def test_error_names_the_base_with_its_canonical_sign(self, capsys, tmp_path):
        path = self.write(tmp_path, {"num": "1", "den": [["x1^2 - 1", 1]]})
        code, out, err = run(capsys, ["ct", path])
        assert (code, out) == (2, "")
        assert err == ("error: factor (1 - x1^2) has degree 2 in x1; "
                       "constant-term extraction needs affine factors\n")

    @pytest.mark.parametrize("order", ["1,1", "0,0", "0,1", "x"])
    def test_bad_order(self, capsys, tmp_path, order):
        path = self.write(tmp_path, {"num": "1", "den": [["1 - x1", 2], ["1 - x2", 2]]})
        code, out, err = run(capsys, ["ct", path, "--order", order])
        assert (code, out, err) == (2, "", BAD_ORDER_ERRORS[order])

    def test_fractional_exponent(self, capsys, tmp_path):
        path = self.write(tmp_path, {"num": "1", "den": [["1 - x1", 2.9], ["x1", 1]]})
        code, out, err = run(capsys, ["ct", path])
        assert code == 2 and out == "" and "2.9" in err

    def test_half_exponent(self, capsys, tmp_path):
        # FactoredRational takes Fraction halves; JSON text states integers only
        path = self.write(tmp_path, {"num": "1", "den": [["1 - x1", 0.5], ["x1", 1]]})
        code, out, err = run(capsys, ["ct", path])
        assert (code, out) == (2, "")
        assert err == ("error: malformed factored-rational object: "
                       "factor exponents must be positive integers, got 0.5\n")

    def test_zero_denominator_coefficient(self, capsys, tmp_path):
        path = self.write(tmp_path, {"num": "1", "den": [["1/0 - x1", 1]]})
        assert run(capsys, ["ct", path]) == (
            2, "", "error: malformed factored-rational object: Fraction(1, 0)\n")

    def test_bool_exponent(self, capsys, tmp_path):
        path = self.write(tmp_path, {"num": "1", "den": [["1 - x1", True]]})
        code, out, err = run(capsys, ["ct", path])
        assert code == 2 and out == "" and "True" in err

    def test_zero_denominator_base(self, capsys, tmp_path):
        path = self.write(tmp_path, {"num": "1", "den": [["x1 - x1", 1]]})
        code, out, err = run(capsys, ["ct", path])
        assert code == 2 and out == "" and "zero polynomial" in err

    def test_unknown_top_level_key(self, capsys, tmp_path):
        # an "order" key must not quietly answer the default-order question
        path = self.write(tmp_path, {"num": "1", "den": [["1 - x1", 2]], "order": "2,1"})
        code, out, err = run(capsys, ["ct", path])
        assert code == 2 and out == "" and "order" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["ct", str(tmp_path / "absent.json")])
        assert code == 2

    @pytest.mark.parametrize("den", [[["x1", 40000], ["1 - x1", 1]],
                                     [["x1^40000", 1], ["1 - x1", 1]]])
    def test_monomial_shift_past_packed_exponent(self, capsys, tmp_path, den):
        # the shift M = 40000 is refused like the exponent it stands for
        path = self.write(tmp_path, {"num": "1", "den": den})
        code, out, err = run(capsys, ["ct", path])
        assert (code, out) == (2, "")
        assert err == "error: exponent of x1 exceeds 32767, the largest a packed monomial holds\n"

    def test_largest_monomial_shift(self, capsys, tmp_path):
        path = self.write(tmp_path, {"num": "1", "den": [["x1", 32767], ["1 - x1", 1]]})
        code, out, _ = run(capsys, ["ct", path])
        assert (code, out) == (0, "1\n")

    def test_six_variables(self, capsys, tmp_path):
        den = [[f"x{i}", 1] for i in range(1, 7)]
        path = self.write(tmp_path, {"num": "1", "den": den})
        code, out, _ = run(capsys, ["ct", path])
        assert (code, out) == (0, "0\n")

    def test_step_past_work_budget(self, capsys, tmp_path):
        # x1's step would raise 1 - x2 - x3 - x4 - x5 to the 60th power, about
        # 3.8e7 term products: refused before any of them is formed
        den = [["x1", 60], ["1 - x1 - x2 - x3 - x4 - x5", 1]]
        path = self.write(tmp_path, {"num": "1", "den": den})
        start = time.perf_counter()
        code, out, err = run(capsys, ["ct", path])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: eliminating x1 needs over 33554432 term products\n"

    def test_malformed_inputs_never_crash(self, capsys, tmp_path):
        """Exit-code contract over junk input: always 2, never a traceback."""
        rng = random.Random(11)
        pool = string.printable
        path = tmp_path / "junk.json"
        for _ in range(100):
            path.write_text("".join(rng.choice(pool) for _ in range(rng.randint(0, 40))))
            code, _, err = run(capsys, ["ct", str(path)])
            assert code == 2


class TestOracle:
    def test_converged_json(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--family", "cry", "--n", "2",
                                    "--points", "64", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"re", "im", "N", "converged"}
        assert payload["N"] == 128 and payload["converged"] is True
        assert abs(payload["re"] - 2.0) < 1e-6

    def test_imaginary_part_is_zero(self, capsys):
        """The mean of a real-coefficient integrand on a real torus is real."""
        argv = ["oracle", "--family", "thm", "--n", "3", "--a", "2", "--twoc", "2",
                "--points", "64"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and " im=0.0 N=128 " in out
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0 and '"im": 0.0,' in out and json.loads(out)["im"] == 0.0

    def test_unconverged_exit(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--family", "mm", "--n", "2",
                                    "--points", "2"])
        assert code == 1 and "converged=no" in out

    @pytest.mark.parametrize("family,n,points", [("cry", 2, 64), ("mm", 2, 2),
                                                 ("morris", 3, 64)])
    def test_is_the_converged_oracle(self, capsys, family, n, points):
        spec = IdentitySpec.create(family, n)
        value, used, ok = contour_ct_converged(spec, start_points=points,
                                               max_points=2 * points)
        code, out, _ = run(capsys, ["oracle", "--family", family, "--n", str(n),
                                    "--points", str(points), "--format", "json"])
        payload = json.loads(out)
        assert (payload["re"], payload["im"]) == (value.real, value.imag)
        assert (payload["N"], payload["converged"]) == (used, ok)
        assert code == (0 if ok else 1)

    def test_requires_spec(self, capsys):
        code, _, err = run(capsys, ["oracle", "--points", "64"])
        assert code == 2

    def test_bad_points(self, capsys):
        code, _, err = run(capsys, ["oracle", "--family", "cry", "--n", "1",
                                    "--points", "100"])
        assert code == 2

    def test_sample_budget(self, capsys):
        """With the default --points, n=4 would refine at N=2048: 2048**4
        samples.  It is refused before any array is built."""
        code, out, err = run(capsys, ["oracle", "--family", "mm", "--n", "4"])
        assert code == 2 and out == ""
        assert "n=4 at N=1024" in err and "budget" in err

    def test_n5_meets_the_budget_not_a_variable_cap(self, capsys):
        code, out, err = run(capsys, ["oracle", "--family", "cry", "--n", "5"])
        assert (code, out) == (2, "")
        assert err == ("error: n=5 at N=1024 needs points**n = 1024**5 "
                       "samples, over the budget of 8589934592\n")

    def test_budget_message_stays_short_at_large_n(self, capsys):
        # printed 1024**400 in full, a 1,205-digit count
        code, out, err = run(capsys, ["oracle", "--family", "mm", "--n", "400"])
        assert (code, out) == (2, "")
        assert err == ("error: n=400 at N=1024 needs points**n = 1024**400 "
                       "samples, over the budget of 8589934592\n")

    @pytest.mark.parametrize("argv,label", [
        (["--family", "morris", "--n", "1", "--a", "1100"], "morris n=1 a=1100 b=0 twoc=1"),
        (["--family", "thm", "--n", "2", "--a", "300"], "thm n=2 a=300 b=0 twoc=1")])
    def test_integrand_past_float64(self, capsys, argv, label):
        # was a RuntimeWarning and re=nan ... converged=no, exit 1
        code, out, err = run(capsys, ["oracle"] + argv)
        assert (code, out) == (2, "")
        assert err == f"error: the {label} integrand exceeds the float64 range\n"


class TestChain:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, ["chain", "--n", "1", "--a", "1",
                                    "--twoc", "2", "--points", "64"])
        assert code == 0 and "within tolerance" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, ["chain", "--n", "2", "--a", "2", "--twoc", "1",
                                    "--points", "128", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload["forms"]) == {"x", "z", "y", "t"}
        assert payload["exact"] == "32"
        assert payload["within_tolerance"] is True
        assert payload["spread"] < 1e-5

    def test_imaginary_parts_are_zero(self, capsys):
        argv = ["chain", "--n", "3", "--a", "2", "--twoc", "1", "--points", "32"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert [line.split("im=")[1] for line in out.splitlines()[:4]] == ["0.0"] * 4
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0 and out.count('"im": 0.0}') == 4
        assert [v["im"] for v in json.loads(out)["forms"].values()] == [0.0] * 4

    def test_undersampled_exit(self, capsys):
        code, out, _ = run(capsys, ["chain", "--n", "2", "--a", "3", "--twoc", "2",
                                    "--points", "4"])
        assert code == 1 and "OUT OF TOLERANCE" in out

    def test_config_error(self, capsys):
        code, _, err = run(capsys, ["chain", "--n", "4", "--a", "1", "--twoc", "1"])
        assert code == 2

    def test_n4_meets_the_budget(self, capsys):
        code, out, err = run(capsys, ["chain", "--n", "4", "--a", "2", "--twoc", "1"])
        assert (code, out) == (2, "")
        assert "n=4 at N=1024" in err and "over the budget" in err
        code, out, _ = run(capsys, ["chain", "--n", "4", "--a", "2", "--twoc", "1",
                                    "--points", "64"])
        assert code == 0 and out.endswith("-> within tolerance\n")

    @pytest.mark.parametrize("a,twoc,message", [
        ("0", "1", "thm requires a >= 1"),
        ("2", "0", "twoc must be a positive integer (twoc = 2c)")])
    def test_parameters_from_the_thm_catalog(self, capsys, a, twoc, message):
        code, out, err = run(capsys, ["chain", "--n", "2", "--a", a, "--twoc", twoc])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n(self, capsys, n):
        code, out, err = run(capsys, ["chain", "--n", n, "--a", "1", "--twoc", "1"])
        assert code == 2 and out == "" and f"n={n}" in err

    def test_closed_form_past_float64(self, capsys):
        # binom(1098, 549) is about 2**1094: refused before any sampling, so
        # no overflow warning is raised (pytest turns one into an error)
        code, out, err = run(capsys, ["chain", "--n", "1", "--a", "550", "--twoc", "1"])
        assert (code, out) == (2, "")
        assert err == ("error: the closed form for n=1 a=550 twoc=1 "
                       "exceeds the float64 range\n")

    def test_nan_form_is_refused(self, capsys):
        # the closed form fits, but the y form's samples overflow to NaN, and
        # a NaN used to drop out of the max-folds and read as agreement
        code, out, err = run(capsys, ["chain", "--n", "1", "--a", "400", "--twoc", "1"])
        assert (code, out) == (2, "")
        assert err == "error: the y form for n=1 a=400 twoc=1 exceeds the float64 range\n"

    @pytest.mark.parametrize("a", ["513", "515"])
    def test_form_past_float64(self, capsys, a):
        # the z form's prefactor 2**(2a - 1) no longer fits in a float; the x
        # form's samples overflow first and name it
        code, out, err = run(capsys, ["chain", "--n", "1", "--a", a, "--twoc", "1"])
        assert (code, out) == (2, "")
        assert err == f"error: the x form for n=1 a={a} twoc=1 exceeds the float64 range\n"

    def test_prefactor_past_float64(self, capsys, monkeypatch):
        # sampled alone, the z form fails in complex() of its int prefactor
        forms = contour.chain_forms
        monkeypatch.setattr(contour, "chain_forms",
                            lambda n, a, twoc: {"z": forms(n, a, twoc)["z"]})
        code, out, err = run(capsys, ["chain", "--n", "1", "--a", "513", "--twoc", "1"])
        assert (code, out) == (2, "")
        assert err == "error: the z form for n=1 a=513 twoc=1 exceeds the float64 range\n"


class TestArrayBound:
    """A sample's arrays are refused by size before any is built.  Each call
    runs in a child process capped at 2 GiB of address space, so one that
    did allocate its 32 or 64 GiB array would fail there at once."""

    CAPPED = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
              "from ct_forge.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")

    @pytest.mark.parametrize("argv,points,k", [
        # oracle refines at twice --points; its pair factors span two axes
        (["oracle", "--family", "cry", "--n", "2", "--points", "32768"], 65536, 2),
        (["chain", "--n", "1", "--a", "2", "--twoc", "1", "--points", "4294967296"],
         4294967296, 1)], ids=["oracle", "chain"])
    def test_refused_before_allocating(self, argv, points, k):
        # one BLAS thread: numpy's per-thread buffers also count against the cap
        proc = run_child(["-c", self.CAPPED, *argv], OPENBLAS_NUM_THREADS="1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"error: N={points} needs arrays of N**k = {points}**{k} elements, "
            "over the bound of 67108864 per array\n")

    def test_refused_in_process(self, capsys, monkeypatch):
        """The same refusal in this process: no factor is evaluated, and the
        traced peak stays far below one 16384**2 complex array (4 GiB)."""
        def unevaluated(p, xs):
            raise AssertionError("a factor was evaluated on the grid")

        monkeypatch.setattr(contour, "_poly_on_grid", unevaluated)
        tracemalloc.start()
        try:
            result = run(capsys, ["oracle", "--family", "mm", "--n", "2", "--points", "8192"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (2, "", "error: N=16384 needs arrays of N**k = 16384**2 elements, "
                                 "over the bound of 67108864 per array\n")
        assert peak < 32 << 20


class TestGammaCheck:
    def test_default_range(self, capsys):
        code, out, _ = run(capsys, ["gamma-check"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10 and all("ok" in line for line in lines)

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["gamma-check", "--n", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"cat": [True] * 3, "ratio": [True] * 3, "all_ok": True}

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_n(self, capsys, n):
        code, out, err = run(capsys, ["gamma-check", "--n", n, "--format", "json"])
        assert code == 2 and out == "" and "--n" in err


class TestRepeatedCalls:
    """main keeps one parser for the life of the process."""

    @staticmethod
    def lone(argv):
        """(exit code, stdout) of argv in a fresh interpreter."""
        proc = run_child(["-m", "ct_forge.cli", *argv])
        return proc.returncode, proc.stdout

    def test_no_flag_leaks_between_calls(self, capsys, tmp_path):
        path = tmp_path / "rational.json"
        path.write_text(json.dumps({"num": "1", "den": [
            ["1 - x1", 2], ["1 - x2", 2], ["x2 - x1", 1]]}))
        calls = [["verify", "--family", "mm", "--n", "2", "--order", "2,1"],
                 ["ct", str(path)],
                 ["verify", "--family", "mm", "--n", "two"],
                 ["verify", "--family", "mm", "--n", "2"]]
        in_process = [run(capsys, argv)[:2] for argv in calls]
        assert [code for code, _ in in_process] == [1, 0, 2, 0]
        timing = re.compile(r"\(\d+\.\d ms\)")
        for argv, (code, out) in zip(calls, in_process):
            lone_code, lone_out = self.lone(argv)
            assert (code, timing.sub("", out)) == (lone_code, timing.sub("", lone_out)), argv

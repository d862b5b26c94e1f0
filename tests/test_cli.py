import os
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import pytest

import etacm
from etacm.cli import EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE, dispatch


def run_cli(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClasspoly:
    def test_worked_example_line(self, capsys):
        code, out, _ = run_cli(
            ["classpoly", "--disc", "-56", "--p1", "3", "--p2", "13", "--b", "10"], capsys)
        assert code == EXIT_OK
        assert out == "1 -2 -1 2 -1\n"

    def test_all_b(self, capsys):
        code, out, _ = run_cli(
            ["classpoly", "--disc", "-56", "--p1", "3", "--p2", "13", "--all-b"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[0] == "1 -2 -1 2 -1"
        assert lines[1] == "1 -2 1 2 -1"

    def test_condition_failure_exits_2(self, capsys):
        # (-8|13) = -1: integrality conditions genuinely fail
        code, out, err = run_cli(
            ["classpoly", "--disc", "-8", "--p1", "3", "--p2", "13"], capsys)
        assert code == EXIT_PRECONDITION

    def test_invalid_discriminant_exits_2(self, capsys):
        code, _, _ = run_cli(
            ["classpoly", "--disc", "-6", "--p1", "3", "--p2", "13"], capsys)
        assert code == EXIT_PRECONDITION

    def test_zero_symbol_case_computes(self, capsys):
        # (-3|3) = 0 and (-3|13) = +1 (6^2 = 10 = -3 mod 13): conditions hold
        code, out, _ = run_cli(
            ["classpoly", "--disc", "-3", "--p1", "3", "--p2", "13"], capsys)
        assert code == EXIT_OK
        assert out == "1 1\n"


class TestMultiplicity:
    def test_single_b(self, capsys):
        code, out, _ = run_cli(
            ["multiplicity", "--disc", "-56", "--p1", "3", "--p2", "13", "--b", "10"], capsys)
        assert code == EXIT_OK
        assert out == "B=10 MULTIPLE u=10 v=1\n"

    def test_all_candidates(self, capsys):
        code, out, _ = run_cli(
            ["multiplicity", "--disc", "-56", "--p1", "3", "--p2", "13"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "B=10 MULTIPLE u=10 v=1"
        assert "B=16 SIMPLE" in lines

    def test_large_primes_answer_at_once(self, capsys):
        # the four B mod 2N come from square roots mod p1 and mod p2, not
        # from a search of all 2N residues
        start = time.perf_counter()
        code, out, _ = run_cli(
            ["multiplicity", "--disc", "-8", "--p1", "1000003", "--p2", "1000033"], capsys)
        assert time.perf_counter() - start < 1
        assert code == EXIT_OK
        assert len(out.strip().split("\n")) == 4

    def test_large_discriminant_answers_at_once(self, capsys):
        # a Discriminant checks the sign and the residue mod 4 only: nothing
        # trial-divides |D| ~ 4e42
        start = time.perf_counter()
        code, out, _ = run_cli(
            ["multiplicity", "--disc", "-4000000000000000000000000000000000000000019",
             "--p1", "3", "--p2", "13"], capsys)
        assert time.perf_counter() - start < 1
        assert code == EXIT_OK
        assert out == "B=17 SIMPLE\nB=35 SIMPLE\nB=43 SIMPLE\nB=61 SIMPLE\n"

    @pytest.mark.parametrize("argv, code, lines", [
        (["multiplicity", "--disc", "-8", "--p1", "1000000007", "--p2", "1000000009"],
         EXIT_PRECONDITION, 0),
        (["multiplicity", "--disc", "-56", "--p1", "1000000009", "--p2", "1000000021"],
         EXIT_OK, 4),
        (["nsystem", "--disc", "-56", "--p1", "1000000009", "--p2", "1000000021"], EXIT_OK, 4),
        (["classpoly", "--disc", "-56", "--p1", "1000000009", "--p2", "1000000021"], EXIT_OK, 1),
        (["cm-curve", "--disc", "-56", "--p1", "1000000009", "--p2", "1000000021",
          "--prime", "3593"], EXIT_PRECONDITION, 0),
    ], ids=["multiplicity", "multiplicity-witness", "nsystem", "classpoly", "cm-curve"])
    def test_large_level_pairs_answer_at_once(self, capsys, argv, code, lines):
        # the level is the pair as given: nothing factors N ~ 10^18, the
        # witness search reduces one form per B instead of walking |v| up to
        # sqrt(4N/|D|), and cm-curve refuses the J-degree of its Phi before
        # any other work
        start = time.perf_counter()
        got, out, _ = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1
        assert got == code
        assert len(out.split("\n")) - 1 == lines


class TestNsystem:
    def test_form_lines(self, capsys):
        code, out, _ = run_cli(
            ["nsystem", "--disc", "-56", "--p1", "3", "--p2", "13", "--b", "10"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "1 10 39"
        assert len(lines) == 4
        for ln in lines:
            a, b, c = map(int, ln.split())
            assert b * b - 4 * a * c == -56


class TestRoots:
    def test_class_polynomial_roots(self, capsys):
        code, out, _ = run_cli(
            ["roots", "--modulus", "3593", "--coeffs", "1 -2 -1 2 -1"], capsys)
        assert code == EXIT_OK
        assert out == "166 1\n607 1\n2987 1\n3428 1\n"

    def test_multiplicity_column(self, capsys):
        code, out, _ = run_cli(
            ["roots", "--modulus", "3593", "--coeffs", "1 -458 52441"], capsys)
        assert code == EXIT_OK
        assert out == "229 2\n"

    def test_strong_pseudoprime_modulus_exits_2(self, capsys):
        # psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin to the
        # first 13 prime bases
        code, out, _ = run_cli(
            ["roots", "--modulus", "3317044064679887385961981", "--coeffs", "1 0 -4"], capsys)
        assert code == EXIT_PRECONDITION
        assert out == ""

    def test_zero_modulus_exits_2(self, capsys):
        code, out, err = run_cli(["roots", "--modulus", "0", "--coeffs", "1 2"], capsys)
        assert code == EXIT_PRECONDITION
        assert out == "" and "not an odd prime" in err


class TestCmCurve:
    def test_record_line(self, capsys):
        code, out, _ = run_cli(
            ["cm-curve", "--disc", "-56", "--p1", "3", "--p2", "13",
             "--prime", "3593", "--b", "10"], capsys)
        assert code == EXIT_OK
        fields = out.strip().split()
        assert fields[0] == "3593"
        assert int(fields[3]) in (3588, 3600)
        assert fields[4] == "6"
        assert fields[5] == "shortcut=yes"

    def test_swapped_pair_prints_the_worked_line(self, capsys):
        code, out, _ = run_cli(
            ["cm-curve", "--disc", "-56", "--p1", "13", "--p2", "3",
             "--prime", "3593", "--b", "10"], capsys)
        assert code == EXIT_OK
        assert out == "3593 1337 2089 3600 6 shortcut=yes\n"

    def test_trace_at_hasse_bound(self, capsys):
        # t = 34903 = isqrt(4q) lies just outside q + 1 +- 2*isqrt(q)
        q = 304554967
        code, out, _ = run_cli(
            ["cm-curve", "--disc", "-51", "--p1", "3", "--p2", "13",
             "--prime", str(q)], capsys)
        assert code == EXIT_OK
        fields = out.split()
        assert fields[4] == "34903"
        assert fields[5] == "shortcut=no"
        assert int(fields[3]) in (q + 1 - 34903, q + 1 + 34903)

    def test_j_zero_twists(self, capsys):
        # the CM orders at 43 are 31 and 57; all six twists of j = 0 are tried
        code, out, _ = run_cli(
            ["cm-curve", "--disc", "-3", "--p1", "3", "--p2", "13", "--prime", "43"], capsys)
        assert code == EXIT_OK
        assert int(out.split()[3]) in (31, 57)

    @pytest.mark.parametrize("disc, p1, p2, q", [
        (-3, 3, 13, 193965429751141169708248355070420863803),
        (-4, 5, 13, 14285488504823898977)])
    def test_unit_discriminants_at_large_q(self, capsys, disc, p1, p2, q):
        start = time.perf_counter()
        code, out, _ = run_cli(
            ["cm-curve", "--disc", str(disc), "--p1", str(p1), "--p2", str(p2),
             "--prime", str(q)], capsys)
        assert time.perf_counter() - start < 10
        assert code == EXIT_OK
        fields = out.split()
        t = int(fields[4])
        vv, rest = divmod(4 * q - t * t, -disc)
        assert rest == 0 and isqrt(vv) ** 2 == vv
        assert int(fields[3]) in (q + 1 - t, q + 1 + t)

    def test_no_trace_exits_2(self, capsys):
        code, _, err = run_cli(
            ["cm-curve", "--disc", "-56", "--p1", "3", "--p2", "13", "--prime", "11"], capsys)
        assert code == EXIT_PRECONDITION

    def test_byte_identical_reruns(self, capsys):
        # --seed accepted after the subcommand, per the documented interface
        args = ["cm-curve", "--disc", "-56", "--p1", "3", "--p2", "13",
                "--prime", "3593", "--seed", "9"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2


class TestUsageAndPlumbing:
    def test_usage_error_exits_64(self, capsys):
        assert run_cli(["classpoly", "--disc"], capsys)[0] == EXIT_USAGE

    def test_verbose_flag_is_gone(self, capsys):
        assert run_cli(["-v", "roots", "--modulus", "7", "--coeffs", "1 0"], capsys)[0] == EXIT_USAGE

    def test_unknown_command_exits_64(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == EXIT_USAGE

    def test_runs_as_a_module(self, capsys):
        # `python -m etacm.cli` runs the same commands as `dispatch`, with
        # the same output and exit codes
        env = dict(os.environ, PYTHONPATH=str(Path(etacm.__file__).parents[1]))

        def module(*argv):
            return subprocess.run([sys.executable, "-m", "etacm.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)

        argv = ["multiplicity", "--disc", "-56", "--p1", "3", "--p2", "13"]
        done = module(*argv)
        code, out, _ = run_cli(argv, capsys)
        assert done.returncode == code == EXIT_OK
        assert done.stdout == out and len(out.splitlines()) == 4
        assert module("frobnicate").returncode == EXIT_USAGE

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "h.txt"
        code, out, _ = run_cli(
            ["--out", str(target), "classpoly", "--disc", "-56",
             "--p1", "3", "--p2", "13", "--b", "10"], capsys)
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text() == "1 -2 -1 2 -1\n"

    def test_out_into_missing_directory_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "h.txt"
        code, out, err = run_cli(
            ["--out", str(target), "classpoly", "--disc", "-56",
             "--p1", "3", "--p2", "13", "--b", "10"], capsys)
        assert code == EXIT_PRECONDITION
        assert out == "" and "cannot write --out" in err
        assert not target.parent.exists()

    def test_modpoly_out_round_trips(self, tmp_path, capsys, phi313_embedded):
        from etacm.modpoly import deserialize

        target = tmp_path / "phi.txt"
        code, _, _ = run_cli(["--out", str(target), "modpoly",
                              "--p1", "3", "--p2", "13"], capsys)
        assert code == EXIT_OK
        assert deserialize(target.read_bytes()) == phi313_embedded

    def test_modpoly_verify_embedded(self, capsys):
        code, out, _ = run_cli(["modpoly", "--verify-embedded"], capsys)
        assert code == EXIT_OK
        assert out == "embedded-matches-computed: yes\n"

    def test_modpoly_verify_embedded_reads_the_pair(self, capsys):
        # only Phi_{3,13} ships, so another pair has no file to verify
        code, out, err = run_cli(["modpoly", "--p1", "5", "--p2", "7", "--verify-embedded"],
                                 capsys)
        assert code == EXIT_PRECONDITION
        assert out == "" and "no embedded polynomial for (5, 7)" in err
        code, out, _ = run_cli(["modpoly", "--p1", "3", "--p2", "13", "--verify-embedded"],
                               capsys)
        assert code == EXIT_OK and out == "embedded-matches-computed: yes\n"
        for half in (["--p1", "3"], ["--p2", "13"]):
            code, out, _ = run_cli(["modpoly", *half, "--verify-embedded"], capsys)
            assert code == EXIT_PRECONDITION and out == ""

    def test_classpoly_b_and_all_b_exclude_each_other(self, capsys):
        code, out, err = run_cli(["classpoly", "--disc", "-56", "--p1", "3", "--p2", "13",
                                  "--b", "16", "--all-b"], capsys)
        assert code == EXIT_USAGE
        assert out == "" and "not allowed with argument" in err

    @pytest.mark.parametrize("cap, argv", [
        (32, ["classpoly", "--disc", "-56", "--p1", "3", "--p2", "13", "--b", "10"]),
        (64, ["modpoly", "--p1", "5", "--p2", "13"]),
        (32, ["modpoly", "--verify-embedded"]),
        (32, ["cm-curve", "--disc", "-56", "--p1", "3", "--p2", "13", "--prime", "3593"]),
        (32, ["reproduce-example"]),
        (100, ["modpoly", "--p1", "5", "--p2", "13"]),
    ])
    def test_precision_max_below_start_exits_3(self, capsys, cap, argv):
        # the starts are 64 bits for H of D = -56 and 130 for Phi_{5,13},
        # which makes no 64-bit attempt
        code, out, err = run_cli(["--precision-max", str(cap)] + argv, capsys)
        assert code == 3
        assert f"max_prec = {cap} " in err

    def test_precision_max_64_accepts_a_passing_64_bit_pass(self, capsys):
        # H of D = -1511 has a start of 65 bits, but its modelled roots
        # predict a passing gate at 64 bits, and the roots evaluated there
        # round, so a cap of 64 prints the uncapped line
        argv = ["classpoly", "--disc", "-1511", "--p1", "5", "--p2", "7"]
        want = run_cli(argv, capsys)
        assert want[0] == EXIT_OK and want[1]
        assert run_cli(["--precision-max", "64"] + argv, capsys) == want

    def test_precision_exhausted_exits_3(self, capsys, monkeypatch):
        from etacm import cli
        from etacm.errors import PrecisionExhausted

        def boom(*a, **k):
            raise PrecisionExhausted("forced")

        monkeypatch.setattr(cli.classpoly, "compute_class_polynomial", boom)
        code, _, err = run_cli(
            ["classpoly", "--disc", "-56", "--p1", "3", "--p2", "13", "--b", "10"], capsys)
        assert code == 3
        assert "precision exhausted" in err


class TestReproduceExample:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(["reproduce-example"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert all(ln.startswith("PASS ") for ln in lines)

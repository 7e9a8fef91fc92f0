"""Command-line interface: exit codes, text output, JSON golden shapes."""

import argparse
import ast
import inspect
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from cubesum import cli, search
from cubesum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_21_over_q(self, capsys):
        code, out, _ = run(capsys, "classify", "21", "--scope", "Q")
        assert code == 0
        assert out.startswith("NoSolutions [Theorem 2.3]")
        assert "p" not in out or "7" in out

    def test_1_plus_9w_json(self, capsys):
        code, out, _ = run(capsys, "classify", "1+9*w", "--scope", "K", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["input"] == "1+9*w"
        assert doc["status"] == "HasSolutions"
        assert doc["witness"] == ["(2-3*w)/2", "(-3-6*w)/2"]

    def test_unknown_exit_code(self, capsys):
        code, out, _ = run(capsys, "classify", "73", "--scope", "Q", "--budget-denom", "5")
        assert code == 2
        assert out.startswith("Unknown")

    def test_paper_basis_input(self, capsys):
        code, out, _ = run(capsys, "classify", "5*u+2*v", "--scope", "K", "--json")
        assert code == 0
        assert json.loads(out)["status"] == "NoSolutions"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "classify", "zorp")
        assert code == 1
        assert "zorp" in err

    def test_low_budget_still_finds_6_by_lucas(self, capsys):
        # the rational search misses at denominator 5, but the Lucas
        # triple (-1, -2, 3) has product 6 and rescues the verdict
        code, out, _ = run(capsys, "classify", "6", "--scope", "Q",
                           "--budget-denom", "5", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["rule"] == "Lucas-construction"

    def test_budget_denom_flag(self, capsys):
        code, out, _ = run(capsys, "search", "6", "--budget-denom", "5")
        assert code == 2  # denominator 21 witness is out of reach at 5
        code, out, _ = run(capsys, "search", "6", "--budget-denom", "25")
        assert code == 0 and "37/21" in out

    def test_budget_flags_only_where_read(self, capsys):
        # solve reads only the relation bound, search only denom and coord;
        # descend has no step cap and always prints JSON lines
        for argv in (("solve", "183", "--budget-denom", "5"),
                     ("search", "7", "--budget-relation", "3"),
                     ("descend", "37/21", "17/21", "6", "--max-steps", "2"),
                     ("descend", "37/21", "17/21", "6", "--json")):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 1
            assert "unrecognized arguments" in capsys.readouterr().err


def test_every_argument_is_read_and_documented():
    """Each subcommand's handler reads every argument its parser declares,
    by the handler's source (a _budget(args) call reads every budget_*
    dest), and the usage block of the module docstring lists exactly the
    parser's -- flags for each subcommand."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    usage: dict[str, set[str]] = {}
    for line in cli.__doc__.split("\n\n")[1].splitlines():
        words = line.split()
        if words[0] == "cubesum":
            name = words[1]
        usage.setdefault(name, set()).update(re.findall(r"--[a-z-]+", line))
    assert set(usage) == set(subparsers)
    unread, misdocumented = [], []
    for name, sub in subparsers.items():
        nodes = list(ast.walk(ast.parse(inspect.getsource(cli._COMMANDS[name]))))
        read = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "args"}
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "_budget" for n in nodes):
            read |= {a.dest for a in sub._actions if a.dest.startswith("budget_")}
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        missing = [(a.option_strings or [a.dest])[0] for a in actions if a.dest not in read]
        if missing:
            unread.append(f"{name} {missing}")
        flags = {f for a in actions for f in a.option_strings if f.startswith("--")}
        if usage[name] != flags:
            misdocumented.append(f"{name} {sorted(usage[name] ^ flags)}")
    assert unread == []
    assert misdocumented == []


class TestFactor:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "factor", "18*w")
        assert code == 0
        assert out.strip() == "w * (1+2*w)^4 * 2"

    def test_json_round_trip(self, capsys):
        # leading-dash elements need the usual -- separator
        code, out, _ = run(capsys, "factor", "--", "-6+3*w")
        assert code == 0
        code, out, _ = run(capsys, "factor", "--json", "--", "-6+3*w")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"unit", "factors"}


class TestLeadingDash:
    """An element that starts with '-' reads as an element, not as a flag,
    without the -- separator; -h and the -- separator still work."""

    def test_classify_unit(self, capsys):
        code, out, _ = run(capsys, "classify", "-w")
        assert code == 0
        assert out.startswith("NoSolutions [Theorem 1.6]")

    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "-6+3*w")
        assert code == 0
        assert out.strip() == "-1-w * (1+2*w)^2 * (1+3*w)"

    @pytest.mark.parametrize("argv", [
        ("solve", "-1-9*w", "--method", "relation"),
        ("search", "-18*w", "--budget-coord", "4", "--budget-denom", "1"),
        ("descend", "-w", "2*w", "7"),
        ("descend", "-2", "-1+w", "-5+6*w"),
    ], ids=" ".join)
    def test_other_subcommands(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_is_still_a_flag(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["classify", flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cubesum classify")


def test_readme_command_examples(capsys):
    """Every line of the README's command-line block, without its comment
    and the leading `cubesum`, exits 0."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) >= 11
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "cubesum", line
        assert main(argv[1:]) == 0, line
        capsys.readouterr()


class TestSplitPrimeAndReport:
    def test_split(self, capsys):
        code, out, _ = run(capsys, "split-prime", "7", "--json")
        doc = json.loads(out)
        assert code == 0 and doc == {"p": 7, "class": "split", "pi": "1+3*w", "pi_bar": "-2-3*w"}

    def test_inert(self, capsys):
        code, out, _ = run(capsys, "split-prime", "5")
        assert code == 0 and "inert" in out

    def test_not_prime(self, capsys):
        code, _, err = run(capsys, "split-prime", "6")
        assert code == 1 and "prime" in err

    @pytest.mark.parametrize("command", ["split-prime", "report"])
    def test_strong_pseudoprime_is_not_prime(self, capsys, command):
        # 399165290221·798330580441 passes Miller-Rabin to every base up to 37
        psi_12 = "318665857834031151167461"
        code, out, err = run(capsys, command, psi_12)
        assert code == 1 and out == ""
        assert err.strip() == f"cubesum: error: {psi_12} is not prime"

    @pytest.mark.parametrize("command", ["split-prime", "report"])
    def test_strong_pseudoprime_to_all_thirteen_bases(self, capsys, command):
        # 1287836182261·2575672364521 passes Miller-Rabin to every base up
        # to 41; the strong Lucas test rejects it
        psi_13 = "3317044064679887385961981"
        code, out, err = run(capsys, command, psi_13)
        assert code == 1 and out == ""
        assert err.strip() == f"cubesum: error: {psi_13} is not prime"

    def test_report_json(self, capsys):
        code, out, _ = run(capsys, "report", "61", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["excA"] and doc["excA_witness"] == [1, 1]


class TestSolve:
    def test_lucas(self, capsys):
        code, out, _ = run(capsys, "solve", "183", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["witness"] == ["-190171/46956", "295579/46956"]

    def test_relation(self, capsys):
        code, out, _ = run(capsys, "solve", "1+9*w", "--method", "relation")
        assert code == 0 and out.strip() == "((2-3*w)/2, (-3-6*w)/2)"

    def test_tangent(self, capsys):
        code, out, _ = run(capsys, "solve", "7", "--method", "tangent", "--from", "2,-1")
        assert code == 0 and out.strip() == "(4/3, 5/3)"

    def test_tangent_needs_base(self, capsys):
        code, _, err = run(capsys, "solve", "7", "--method", "tangent")
        assert code == 1 and "--from" in err

    def test_lucas_miss_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "5", "--method", "lucas")
        assert code == 2


class TestDescend:
    def test_seven(self, capsys):
        code, out, _ = run(capsys, "descend", "2", "-1", "7")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        norms = [doc["norm_product"] for doc in lines if "norm_product" in doc]
        assert norms == sorted(norms, reverse=True) and len(norms) >= 2
        assert "terminal" in lines[-1]

    def test_degenerate(self, capsys):
        code, _, err = run(capsys, "descend", "1", "1", "2")
        assert code == 1



class TestSearch:
    def test_rational(self, capsys):
        code, out, _ = run(capsys, "search", "7", "--budget-denom", "5", "--json")
        assert code == 0
        pairs = json.loads(out)
        assert ["2", "-1"] in pairs and ["4/3", "5/3"] in pairs

    def test_eisenstein(self, capsys):
        code, out, _ = run(capsys, "search", "18*w", "--budget-coord", "4",
                           "--budget-denom", "1", "--json")
        assert code == 0
        assert ["3+2*w", "1"] in json.loads(out)

    def test_empty_exits_2(self, capsys):
        code, out, err = run(capsys, "search", "5", "--budget-denom", "10")
        assert code == 2 and out == ""

    def test_target_past_the_window_is_not_factored(self, capsys, monkeypatch):
        # norm about 1.1e30, the product of two 16-digit split primes: far
        # past the default box's norm window, so the search ends unfactored
        monkeypatch.setattr(search, "factor", lambda m: pytest.fail(f"factored {m}"))
        code, out, err = run(capsys, "search", "110093519217817+1099512921229224*w")
        assert code == 2 and out == ""
        assert "no solutions within the budget" in err


@pytest.mark.parametrize("argv, message", [
    ("solve 1/2 --method lucas", "--method lucas needs a rational integer target"),
    ("solve 1/2 --method relation", "--method relation needs an integral target"),
    ("solve 7 --method tangent --from 2", "expected 'x,y', got '2'"),
    ("descend 2 1 9/2", "descent target must be integral"),
    ("search 7/2", "search target must be integral"),
])
def test_input_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (1, "", f"cubesum: error: {message}\n")


class TestTables:
    def test_condition_I(self, capsys):
        code, out, _ = run(capsys, "tables", "conditionI", "--max", "73")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("p=7")
        assert "a+b=1" in lines[0]

    def test_excA(self, capsys):
        code, out, _ = run(capsys, "tables", "excA", "--max", "200", "--json")
        assert code == 0 and json.loads(out) == [61, 67, 73, 103, 151, 193]

    def test_excB(self, capsys):
        code, out, _ = run(capsys, "tables", "excB", "--max", "100", "--json")
        assert code == 0 and json.loads(out) == [61, 67, 73]

    def test_first5(self, capsys):
        code, out, _ = run(capsys, "tables", "excA-mod9-first5", "--json")
        assert code == 0 and json.loads(out) == [73, 271, 307, 523, 577]

    def test_corrupted_expectation_fails(self, capsys, monkeypatch):
        from cubesum import verify as verify_mod

        monkeypatch.setitem(verify_mod.EXPECTED, "excB_100", [61, 67])
        code, _, err = run(capsys, "tables", "excB", "--max", "100")
        assert code == 1 and "mismatch" in err


class TestVerifyCommand:
    def test_quick(self, capsys):
        code, out, _ = run(capsys, "verify", "quick")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert len(lines) == 7

    def test_full_json_under_optimize(self):
        # every correctness check still runs with asserts stripped;
        # verify full runs every criterion verify quick runs, and more
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = subprocess.run(
            [sys.executable, "-O", "-m", "cubesum.cli", "verify", "full", "--json"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=180,
        )
        assert out.returncode == 0, out.stderr or out.stdout
        results = json.loads(out.stdout)
        assert [r["criterion"] for r in results] == list(range(1, 11))
        assert all(r["ok"] for r in results), results

    def test_corrupted_expectation_names_criterion(self, capsys, monkeypatch):
        from cubesum import verify as verify_mod

        monkeypatch.setitem(verify_mod.EXPECTED, "excA_200", [61])
        code, out, _ = run(capsys, "verify", "quick")
        assert code == 1
        assert any(line.startswith("FAIL") and "exceptional-sets" in line
                   for line in out.splitlines())


class TestRoundTrip:
    def test_printed_elements_reparse(self, capsys):
        from cubesum.eisenstein import parse_k

        code, out, _ = run(capsys, "classify", "1+9*w", "--json")
        doc = json.loads(out)
        for text in doc["witness"]:
            parse_k(text)  # must not raise
        code, out, _ = run(capsys, "factor", "18*w", "--json")
        for f in json.loads(out)["factors"]:
            parse_k(f["irr"])

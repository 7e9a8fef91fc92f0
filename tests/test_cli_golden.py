"""Golden JSON outputs for the documented CLI invocations.

These freeze the machine-readable schema: a change that reshapes any JSON
payload has to be made here on purpose.
"""

import json

import pytest

from cubesum.cli import main


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


GOLDEN = [
    (
        ("classify", "21", "--scope", "Q"),
        0,
        {
            "input": "21",
            "scope": "Q",
            "canonical": {
                "unit": "1",
                "factors": [["1+2*w", 2], ["-2-3*w", 1], ["1+3*w", 1]],
            },
            "status": "NoSolutions",
            "rule": "Theorem 2.3",
            "reason": "3·7^1: condition (I) holds and 7 is neither Exceptional A nor Exceptional B",
        },
    ),
    (
        ("classify", "1+9*w", "--scope", "K"),
        0,
        {
            "input": "1+9*w",
            "scope": "K",
            "canonical": {"unit": "1", "factors": [["1+9*w", 1]]},
            "status": "HasSolutions",
            "rule": "relation-construction",
            "reason": "norm 73 is Exceptional A; no theorem applies; witness found by bounded search",
            "witness": ["(2-3*w)/2", "(-3-6*w)/2"],
        },
    ),
    (
        ("classify", "2", "--scope", "Q"),
        0,
        {
            "input": "2",
            "scope": "Q",
            "canonical": {"unit": "1", "factors": [["2", 1]]},
            "status": "OnlyTrivial",
            "rule": "Theorem 1.3",
            "reason": "targets in the cube class of 2 admit only the solutions with x³ = y³",
            "trivial": [["1", "1"]],
        },
    ),
    (
        ("classify", "7", "--scope", "Q"),
        0,
        {
            "input": "7",
            "scope": "Q",
            "canonical": {"unit": "1", "factors": [["-2-3*w", 1], ["1+3*w", 1]]},
            "status": "LiteratureSolvable",
            "rule": "literature",
            "reason": "p = 7 = 7 mod 9: infinitely many rational representations of p and p² "
                      "(Sylvester's conjecture, now established)",
            "citation": "Elkies (announced); Dasgupta-Voight (under conditions)",
        },
    ),
    (
        ("factor", "18*w"),
        0,
        {
            "unit": "w",
            "factors": [{"irr": "1+2*w", "exp": 4}, {"irr": "2", "exp": 1}],
        },
    ),
    (
        ("split-prime", "7"),
        0,
        {"p": 7, "class": "split", "pi": "1+3*w", "pi_bar": "-2-3*w"},
    ),
    (
        ("report", "61"),
        0,
        {
            "p": 61,
            "mod9": 7,
            "conditionI": True,
            "excA": True,
            "excA_witness": [1, 1],
            "excB": True,
            "pi": "4+9*w",
        },
    ),
    (
        ("solve", "183"),
        0,
        {
            "target": "183",
            "method": "lucas",
            "witness": ["-190171/46956", "295579/46956"],
            "triple": [-3, -61, 64],
        },
    ),
    (
        ("solve", "1+9*w", "--method", "relation"),
        0,
        {
            "target": "1+9*w",
            "method": "relation",
            "witness": ["(2-3*w)/2", "(-3-6*w)/2"],
            "relation": ["2", "-1", "-1"],
        },
    ),
    (
        ("solve", "7", "--method", "tangent", "--from", "2,-1"),
        0,
        {
            "target": "7",
            "method": "tangent",
            "witness": ["4/3", "5/3"],
            "from": ["2", "-1"],
        },
    ),
    (
        ("search", "7", "--budget-denom", "5"),
        0,
        [["2", "-1"], ["-1", "2"], ["5/3", "4/3"], ["4/3", "5/3"]],
    ),
    (
        # 56 = 4³ + (-2)³ has gcd(a, b) = 2: its hits sit on the j >= 1
        # exponent of the inert prime 2
        ("search", "56", "--budget-denom", "12"),
        0,
        [["4", "-2"], ["-2", "4"], ["10/3", "8/3"], ["8/3", "10/3"]],
    ),
    (
        ("search", "-7", "--budget-denom", "9"),
        0,
        [["1", "-2"], ["-2", "1"], ["-4/3", "-5/3"], ["-5/3", "-4/3"]],
    ),
    (
        ("search", "18*w", "--budget-coord", "4", "--budget-denom", "1"),
        0,
        [
            ["3+2*w", "1"],
            ["3+2*w", "w"],
            ["3+2*w", "-1-w"],
            ["1", "3+2*w"],
            ["1", "-1-3*w"],
            ["1", "-2+w"],
            ["w", "3+2*w"],
            ["w", "-1-3*w"],
            ["w", "-2+w"],
            ["-1-w", "3+2*w"],
            ["-1-w", "-1-3*w"],
            ["-1-w", "-2+w"],
            ["-1-3*w", "1"],
            ["-1-3*w", "w"],
            ["-1-3*w", "-1-w"],
            ["-2+w", "1"],
            ["-2+w", "w"],
            ["-2+w", "-1-w"],
        ],
    ),
    (
        ("tables", "excA", "--max", "200"),
        0,
        [61, 67, 73, 103, 151, 193],
    ),
    (
        ("tables", "excA-mod9-first5"),
        0,
        [73, 271, 307, 523, 577],
    ),
]


@pytest.mark.parametrize("argv,code,expected", GOLDEN, ids=lambda v: " ".join(map(str, v)) if isinstance(v, tuple) else "")
def test_golden(capsys, argv, code, expected):
    got_code, got = run_json(capsys, *argv)
    assert got_code == code
    assert got == expected


# descend prints one JSON line per triple, then the terminal line
DESCEND_GOLDEN = [
    (
        ("descend", "37/21", "17/21", "6"),
        [
            {"A": "50653", "B": "4913", "C": "-55566", "norm_product": 191215081021490998085240676},
            {"A": "19+18*w", "B": "-1+18*w", "C": "-18-36*w", "norm_product": 114354828},
            {"A": "1", "B": "2", "C": "-3", "norm_product": 36},
            {"terminal": "structure-absent: triple not in descent form: B carries (2)^1 "
                         "(exponent not divisible by 3)"},
        ],
    ),
    (
        ("descend", "2", "-1", "7"),
        [
            {"A": "8", "B": "-1", "C": "-7", "norm_product": 3136},
            {"A": "1+3*w", "B": "-2-3*w", "C": "1", "norm_product": 49},
            {"terminal": "structure-absent: triple not in descent form: A carries (1+3*w)^1 "
                         "(exponent not divisible by 3)"},
        ],
    ),
    (
        ("descend", "2", "1", "9"),
        [
            {"A": "8", "B": "1", "C": "-9", "norm_product": 5184},
            {"A": "1+w", "B": "w", "C": "-1-2*w", "norm_product": 3},
            {"terminal": "units: A and B are units"},
        ],
    ),
]


@pytest.mark.parametrize("argv,lines", DESCEND_GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_descend_golden(capsys, argv, lines):
    code = main(list(argv))
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [json.dumps(line) for line in lines]


# text output: (argv, exit code, stdout lines, stderr lines)
TEXT_GOLDEN = [
    (("split-prime", "13"), 0, ["13 splits: pi = 4+3*w, conj = 1-3*w"], []),
    (("split-prime", "3"), 0, ["3 ramifies: 3 = (-1) * (1+2*w)^2"], []),
    (
        ("report", "61"),
        0,
        [
            "p = 61  (split, 7 mod 9)",
            "  pi = 4+9*w",
            "  condition (I): True",
            "  Exceptional A: True via 4p = 1² + 243·1²",
            "  Exceptional B: True",
        ],
        [],
    ),
    (("report", "2"), 0, ["p = 2  (inert, 2 mod 9)"], []),
    (("search", "6", "--budget-denom", "25"), 0, ["(37/21, 17/21)", "(17/21, 37/21)"], []),
    (
        ("solve", "5", "--method", "relation", "--budget-relation", "2"),
        2,
        [],
        ["no relation found within the bound"],
    ),
]


@pytest.mark.parametrize("argv,code,out,err", TEXT_GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_text_golden(capsys, argv, code, out, err):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == out
    assert captured.err.splitlines() == err


def test_tables_conditionI_rows(capsys):
    code = main(["tables", "conditionI", "--max", "73", "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rows[0] == {"p": 7, "a": 2, "b": -1, "a+b": 1, "cube": True}
    assert [r["a+b"] for r in rows] == [1, -5, 7, 4, -11, -8, 1, -5, 7]


def test_every_printed_element_reparses(capsys):
    from cubesum.eisenstein import parse_k

    for argv, _, expected in GOLDEN:
        if argv[0] == "search":
            for a, b in expected:
                parse_k(a), parse_k(b)
        if argv[0] == "classify" and "witness" in expected:
            for text in expected["witness"]:
                parse_k(text)

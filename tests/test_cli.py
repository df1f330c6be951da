"""End-to-end tests of the command-line dispatcher: output bytes + exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from artifact.cli import main
from artifact.partitions import enumerate_partitions


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Exact plain and --json stdout of every single-value command.
@pytest.mark.parametrize(
    "args,plain,record",
    [
        (
            "char 3,1 2,1,1",
            "1",
            '{"lambda": ["3", "1"], "alpha": ["2", "1", "1"], "value": "1"}',
        ),
        (
            "kostka 3,1 2,1,1",
            "2",
            '{"lambda": ["3", "1"], "alpha": ["2", "1", "1"], "value": "2"}',
        ),
        (
            "lr 6,4,3 3,1 4,3,2",
            "2",
            '{"lambda": ["6", "4", "3"], "mu": ["3", "1"], "nu": ["4", "3", "2"], '
            '"value": "2"}',
        ),
        (
            "kron 3,1 2,2 2,1,1 --method schur",
            "1",
            '{"lambda": ["3", "1"], "mu": ["2", "2"], "nu": ["2", "1", "1"], "g": "1"}',
        ),
        (
            "rkron 3,1 2,1 2,1,1",
            "11",
            '{"alpha": ["3", "1"], "beta": ["2", "1"], "gamma": ["2", "1", "1"], '
            '"gbar": "11"}',
        ),
        (
            "pleth 4,2 2 3",
            "1",
            '{"target": ["4", "2"], "inner": ["2"], "outer": ["3"], "a": "1"}',
        ),
    ],
)
def test_value_command_output_bytes(capsys, args, plain, record):
    assert run(capsys, *args.split()) == (0, plain + "\n", "")
    assert run(capsys, *args.split(), "--json") == (0, record + "\n", "")


@pytest.mark.parametrize(
    "command,names",
    [
        ("char", ["LAM", "ALPHA"]),
        ("kostka", ["LAM", "ALPHA"]),
        ("lr", ["LAM", "MU", "NU"]),
        ("kron", ["LAM", "MU", "NU"]),
        ("rkron", ["ALPHA", "BETA", "GAMMA"]),
        ("pleth", ["TARGET", "INNER", "OUTER"]),
    ],
)
def test_value_command_argument_names(capsys, command, names):
    for i, name in enumerate(names):
        args = ["1"] * len(names)
        args[i] = "x"
        assert run(capsys, command, *args) == (
            1,
            "",
            "error: Invalid value for '%s': bad partition term 'x'\n" % name,
        )


def test_kron_worked_example(capsys):
    assert run(capsys, "kron", "2,1", "2,1", "2,1") == (0, "1\n", "")


def test_module_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "artifact.cli", "kron", "2,1", "2,1", "2,1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "1\n")


def test_lr_worked_example(capsys):
    assert run(capsys, "lr", "6,4,3", "3,1", "4,3,2") == (0, "2\n", "")


def test_kron_size_mismatch_is_invalid_input(capsys):
    code, out, err = run(capsys, "kron", "2,1", "2,1", "4")
    assert code == 1
    assert out == ""
    assert "size" in err


def test_partition_grammar_accepted(capsys):
    # exponent form and the '-' spelling of the empty partition
    assert run(capsys, "char", "2^2,1", "1^5") == (0, "5\n", "")
    assert run(capsys, "kostka", "-", "-") == (0, "1\n", "")
    assert run(capsys, "rkron", "-", "-", "-") == (0, "1\n", "")


def test_kostka_output_and_exit_codes(capsys):
    assert run(capsys, "kostka", "3,1", "2,1,1") == (0, "2\n", "")
    assert run(capsys, "kostka", "6,5,3,2", "2^8") == (0, "4340\n", "")
    assert run(capsys, "kostka", "3,1", "2,1,1", "--json") == (
        0,
        '{"lambda": ["3", "1"], "alpha": ["2", "1", "1"], "value": "2"}\n',
        "",
    )
    assert run(capsys, "kostka", "2,1", "2,2") == (
        1, "", "error: |(2, 2)| != |(2, 1)|\n"
    )
    assert run(capsys, "kostka", "1,2", "3") == (
        1,
        "",
        "error: Invalid value for 'LAM': parts must be weakly decreasing, "
        "got (1, 2)\n",
    )
    assert run(capsys, "kostka", "1", "2,-1") == (
        1,
        "",
        "error: Invalid value for 'ALPHA': parts must be positive integers, "
        "got -1\n",
    )


def test_bad_partition_is_invalid_input(capsys):
    code, out, err = run(capsys, "kron", "oops", "2,1", "2,1")
    assert code == 1 and out == ""
    assert "oops" in err


def test_unknown_command_is_invalid_input(capsys):
    code, out, err = run(capsys, "frobnicate", "2,1")
    assert code == 1 and out == ""
    assert "frobnicate" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "Usage:" in out


def test_kron_json_schema(capsys):
    code, out, _ = run(capsys, "kron", "2,1", "2,1", "2,1", "--json")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "lambda": ["2", "1"],
        "mu": ["2", "1"],
        "nu": ["2", "1"],
        "g": "1",
    }


def test_char_json_schema(capsys):
    code, out, _ = run(capsys, "char", "3,1", "2,1,1")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "char", "3,1", "2,1,1", "--json")
    record = json.loads(out)
    assert record == {"lambda": ["3", "1"], "alpha": ["2", "1", "1"], "value": "1"}


def test_schur_method_agrees_with_char(capsys):
    for trip in (("2,1", "2,1", "2,1"), ("3,1", "2,2", "2,1,1")):
        _, by_char, _ = run(capsys, "kron", *trip)
        _, by_schur, _ = run(capsys, "kron", *trip, "--method", "schur")
        assert by_char == by_schur


def test_schur_method_cap(capsys):
    code, out, err = run(capsys, "kron", "4,3", "4,3", "4,3", "--method", "schur")
    assert code == 1 and out == ""
    code, out, _ = run(
        capsys, "kron", "4,3", "4,3", "4,3", "--method", "schur", "--cap", "7"
    )
    assert code == 0
    _, by_char, _ = run(capsys, "kron", "4,3", "4,3", "4,3")
    assert out == by_char


def test_rkron_known_value(capsys):
    code, out, _ = run(capsys, "rkron", "2,1", "1", "1,1", "--json")
    assert code == 0
    assert json.loads(out)["gbar"] == "1"


def test_rkron_has_no_cap_option(capsys):
    code, out, err = run(capsys, "rkron", "2,1", "1", "1,1", "--cap", "5")
    assert code == 1 and out == ""
    assert "--cap" in err


def test_pleth_coefficients(capsys):
    assert run(capsys, "pleth", "2,2", "1,1", "2") == (0, "1\n", "")
    assert run(capsys, "pleth", "3,1", "1,1", "2") == (0, "0\n", "")
    code, out, _ = run(capsys, "pleth", "2,2", "1,1", "2", "--json")
    assert json.loads(out) == {
        "target": ["2", "2"],
        "inner": ["1", "1"],
        "outer": ["2"],
        "a": "1",
    }


def test_pleth_size_mismatch(capsys):
    code, out, err = run(capsys, "pleth", "3,1", "1,1", "3")
    assert code == 1 and out == ""


def test_pleth_hn_plain_listing(capsys):
    code, out, _ = run(capsys, "pleth-hn", "2", "2")
    assert code == 0
    assert out == "4: 1\n2^2: 1\n"


def test_pleth_hn_json(capsys):
    code, out, _ = run(capsys, "pleth-hn", "3", "2", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["d"] == "3" and record["n"] == "2"
    entries = {tuple(r["lambda"]): r["a"] for r in record["coeffs"]}
    assert entries[("6",)] == "1"
    assert entries[("4", "2")] == "1"
    assert entries[("2", "2", "2")] == "1"
    assert ("5", "1") not in entries
    for row in record["coeffs"]:
        assert all(part.isdigit() for part in row["lambda"])
        assert row["a"].isdigit()


def test_pleth_hn_json_export(capsys):
    assert run(capsys, "pleth-hn", "2", "2", "--json") == (
        0,
        '{"d": "2", "n": "2", "coeffs": [{"lambda": ["4"], "a": "1"}, '
        '{"lambda": ["2", "2"], "a": "1"}]}\n',
        "",
    )
    # rows follow the canonical partition enumeration, values are strings
    _, out, _ = run(capsys, "pleth-hn", "3", "2", "--json")
    rows = json.loads(out)["coeffs"]
    lams = [tuple(int(x) for x in row["lambda"]) for row in rows]
    assert lams == sorted(lams, key=list(enumerate_partitions(6)).index)
    assert all(row["a"].isdigit() for row in rows)


def test_pleth_hn_cap_guard(capsys):
    code, out, err = run(capsys, "pleth-hn", "5", "4")
    assert code == 1 and out == ""
    assert "cap" in err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "tworow", "--n", "8")
    assert code == 0
    assert out.startswith("tworow: pass (checked 68,")


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "murnaghan", "--n", "3", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "pass"
    assert record["params"] == {"max_size": "3"}
    assert record["checked_count"] == "42"
    assert record["elapsed_ms"].isdigit()


def test_verify_fail_exit_two(capsys):
    # the printed n >= 9 claim genuinely fails at n = 9; the dispatcher must
    # surface that as a property failure, not an error
    code, out, err = run(capsys, "verify", "tensor-square", "--n", "9", "--json")
    assert code == 2
    record = json.loads(out)
    assert record["status"] == "fail"
    assert record["witness"]["covering"] == []


def test_verify_saturation_search_inconclusive_is_success(capsys):
    code, out, _ = run(capsys, "verify", "saturation-cex", "--k", "3", "--n-max", "2")
    assert code == 0
    assert "inconclusive-within-range" in out.splitlines()[0]
    witness = json.loads(out.splitlines()[1])
    assert witness["base_value"] == "0"


def test_verify_unknown_property(capsys):
    code, out, err = run(capsys, "verify", "nonsense")
    assert code == 1 and out == ""
    assert "unknown property" in err


def test_verify_bad_range_is_invalid_input(capsys):
    code, _, err = run(capsys, "verify", "orthogonality", "--n", "0")
    assert code == 1
    code, _, err = run(capsys, "verify", "saxl", "--k", "8")
    assert code == 1


def test_verify_rejects_flags_the_property_does_not_read(capsys):
    # saxl sweeps k, not n; murnaghan's cap is fixed at 8
    assert run(capsys, "verify", "saxl", "--n", "5") == (
        1, "", "error: saxl takes no 'n'; it takes k\n"
    )
    assert run(capsys, "verify", "murnaghan", "--cap", "10") == (
        1, "", "error: murnaghan takes no 'cap'; it takes max_size\n"
    )
    assert run(capsys, "verify", "tworow", "--n-max", "3") == (
        1, "", "error: tworow takes no 'n_max'; it takes max_cells\n"
    )
    assert run(capsys, "verify", "saturation-cex", "--n", "3") == (
        1, "", "error: saturation-cex takes --k, --n-max and --cap\n"
    )


def test_verify_jobs_do_not_change_output(capsys):
    _, serial, _ = run(capsys, "verify", "orthogonality", "--n", "5", "--json")
    _, pooled, _ = run(capsys, "verify", "orthogonality", "--n", "5", "--jobs", "3", "--json")
    a, b = json.loads(serial), json.loads(pooled)
    del a["elapsed_ms"], b["elapsed_ms"]
    assert a == b


def test_table_kron_rows_and_jobs_determinism(capsys):
    code, serial, _ = run(capsys, "table", "kron", "--n", "4")
    assert code == 0
    code, pooled, _ = run(capsys, "table", "kron", "--n", "4", "--jobs", "8")
    assert code == 0
    assert serial == pooled
    lines = serial.splitlines()
    assert len(lines) == 35  # multisets of size 3 from the 5 partitions of 4
    first = json.loads(lines[0])
    assert first == {"lambda": ["4"], "mu": ["4"], "nu": ["4"], "g": "1"}
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"lambda", "mu", "nu", "g"}
        assert row["g"].isdigit()


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "value.txt"
    code, out, _ = run(capsys, "kron", "2,1", "2,1", "2,1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "1\n"

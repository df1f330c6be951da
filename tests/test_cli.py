"""End-to-end tests of the command-line dispatcher: output bytes + exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from artifact import characters, cli, kronecker, plethysm, verify
from artifact.characters import (
    TABLE_LIMIT,
    ClassSum,
    InternalConsistencyError,
    character_table,
    strip_row,
)
from artifact.cli import main
from artifact.kronecker import kron_char, kron_table, reduced_kron
from artifact.partitions import enumerate_partitions
from artifact.plethysm import DEGREE_CAP, pleth_coefficient, pleth_hn_expansion
from artifact.verify import run_property


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
            "kron 3,1 2,2 2,1,1",
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


KRON_JSON = '{"lambda": ["2", "1"], "mu": ["2", "1"], "nu": ["2", "1"], "g": "1"}\n'


# (argv, exit code, stdout, stderr) of the command-line contract: usage
# errors in click's wording, '--opt=value', '--', and repeated options.
@pytest.mark.parametrize(
    "args,code,out,err",
    [
        ("frobnicate 2,1", 1, "", "error: No such command 'frobnicate'.\n"),
        ("table frob", 1, "", "error: No such command 'frob'.\n"),
        ("kron 2,1 2,1", 1, "", "error: Missing argument 'NU'.\n"),
        ("verify", 1, "", "error: Missing argument 'PROP'.\n"),
        ("kron 2,1 2,1 2,1 4", 1, "", "error: Got unexpected extra argument (4)\n"),
        (
            "kron 2,1 2,1 2,1 -- --json", 1, "",
            "error: Got unexpected extra argument (--json)\n",
        ),
        (
            "kron 2,1 2,1 2,1 --method schur", 1, "",
            "error: No such option '--method'.\n",
        ),
        ("kron 2,1 2,1 2,1 --cap 3", 1, "", "error: No such option '--cap'.\n"),
        (
            "pleth 2,2 1,1 2 --cap=3", 1, "",
            "error: degree 4 exceeds the cap of 3 cells\n",
        ),
        (
            "table kron --n x", 1, "",
            "error: Invalid value for '--n': 'x' is not a valid integer.\n",
        ),
        ("table kron", 1, "", "error: Missing option '--n'.\n"),
        (
            "verify orthogonality --n", 1, "",
            "error: Option '--n' requires an argument.\n",
        ),
        (
            "kron 2,1 2,1 2,1 --json=1", 1, "",
            "error: Option '--json' does not take a value.\n",
        ),
        (
            "pleth-hn 2 x", 1, "",
            "error: Invalid value for 'N': 'x' is not a valid integer.\n",
        ),
        ("pleth-hn -1 2", 1, "", "error: No such option '-1'.\n"),
        (
            "rkron -- -1 1 1", 1, "",
            "error: Invalid value for 'ALPHA': parts must be positive integers, "
            "got -1\n",
        ),
        ("pleth --cap 4 2,2 1,1 2", 0, "1\n", ""),
        ("pleth-hn 2 2 --cap 3 --cap 4", 0, "4: 1\n2^2: 1\n", ""),
        ("kron 2,1 -- 2,1 2,1", 0, "1\n", ""),
        ("kron 2,1 2,1 2,1 --json --json", 0, KRON_JSON, ""),
        ("pleth-hn 2 2 --cap=4", 0, "4: 1\n2^2: 1\n", ""),
    ],
)
def test_cli_contract(capsys, args, code, out, err):
    assert run(capsys, *args.split()) == (code, out, err)


# Usage errors whose wording was click's own: only the exit code and the
# named token are part of the contract.
@pytest.mark.parametrize(
    "args,token",
    [
        ("verify orthogonality --jobs 2", "error: No such option '--jobs'"),
        ("table", "Usage:"),
        ("", "Usage:"),
    ],
)
def test_cli_usage_error_tokens(capsys, args, token):
    code, out, err = run(capsys, *args.split())
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and token in err


# Every command and the help line of each of its options.
HELP_LINES = {
    "": ["Exact structure constants for S_n characters and symmetric functions."],
    "table": ["Bulk JSONL exports."],
    "char": ["Character value chi^LAM(ALPHA)."],
    "kostka": ["Kostka number K_{LAM,ALPHA}."],
    "lr": ["Littlewood-Richardson coefficient c^LAM_{MU,NU}."],
    "kron": ["Kronecker coefficient g(LAM, MU, NU)."],
    "rkron": ["Reduced (stable) Kronecker coefficient gbar(ALPHA, BETA, GAMMA)."],
    "pleth": [
        "Plethysm coefficient of s_TARGET in s_OUTER[s_INNER].",
        "Degree cap for |inner|*|outer|.",
    ],
    "pleth-hn": ["Schur expansion of the plethysm h_D[h_N].", "Degree cap for d*n."],
    "table kron": [
        "Every g(lam, mu, nu) on canonical triples lam <= mu <= nu of size N.",
        "Size of the three partitions.",
        "Override the size-22 table limit.",
        "Write JSONL to PATH.",
    ],
    "verify": [
        "Run one property check, or the saturation-cex counterexample search.",
        "Range parameter (see property docs).",
        "Staircase / family index.",
        "Outer degree (foulkes).",
        "Resource-cap override.",
        "Largest stretch N (saturation-cex).",
    ],
}
OUTPUT_HELP = ["Emit a JSON record.", "Write output to PATH."]
SUBCOMMANDS = {
    "": ["char", "kostka", "lr", "kron", "rkron", "pleth", "pleth-hn", "table", "verify"],
    "table": ["kron"],
}


@pytest.mark.parametrize("command", HELP_LINES)
def test_help_on_every_command(capsys, command):
    code, out, err = run(capsys, *command.split(), "--help")
    assert (code, err) == (0, "")
    assert out.startswith("Usage:")
    # help lines may be wrapped, also after a hyphen
    words = " ".join(out.split()).replace("- ", "-")
    lines = HELP_LINES[command] + ["Show this message and exit."]
    if command not in ("", "table", "table kron"):
        lines += OUTPUT_HELP
    for line in lines:
        assert line in words
    for sub in SUBCOMMANDS.get(command, ()):
        assert "\n  %s " % sub in out


def test_help_wins_over_missing_arguments(capsys):
    code, out, _ = run(capsys, "kron", "2,1", "--help")
    assert code == 0 and "Usage:" in out
    code, out, _ = run(capsys, "pleth", "--help", "2", "1", "x", "--cap", "x")
    assert code == 0 and "Usage:" in out


def test_cli_runs_without_click_or_dataclasses():
    # the library and its CLI need only the standard library, and starting
    # a query imports neither click nor dataclasses (nor inspect behind it),
    # nor the SymPoly cross-check module
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "sys.modules['click'] = None\n"
        "from artifact.cli import main\n"
        "code = main(['kron', '2,1', '2,1', '2,1'])\n"
        "assert code == 0, code\n"
        "unwanted = ('click', 'dataclasses', 'inspect', 'artifact.symfunc')\n"
        "print([m for m in unwanted if sys.modules.get(m)])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "1\n[]\n", "")


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
    code, _, err = run(capsys, "verify", "saxl", "--k", "9")
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


def test_jobs_flag_is_gone(capsys):
    for args in ("verify orthogonality --n 4", "table kron --n 4"):
        code, out, err = run(capsys, *args.split(), "--jobs", "2")
        assert (code, out) == (1, "")
        assert "No such option" in err and "--jobs" in err


def test_table_limit_is_one_guard(capsys):
    # character_table, kron_table, the table-sized sweeps and table kron
    # --cap all read one limit, and the refusal names it, not a function
    message = "n=23 exceeds the table limit of %d" % TABLE_LIMIT
    assert TABLE_LIMIT == 22
    with pytest.raises(ValueError, match=message):
        character_table(23)
    with pytest.raises(ValueError, match=message):
        kron_table(23)
    with pytest.raises(ValueError, match="^n=23 exceeds the cap of 22$"):
        run_property("orthogonality", {"n": 23})
    assert run(capsys, "table", "kron", "--n", "23") == (
        1, "", "error: %s\n" % message
    )
    code, out, _ = run(capsys, "table", "kron", "--help")
    assert code == 0 and "Override the size-22 table limit." in out


def test_foulkes_cap_is_the_degree_cap():
    # the sweep refuses exactly where the plethysm library does
    with pytest.raises(ValueError) as sweep:
        run_property("foulkes", {"d": 9, "n": 2})
    with pytest.raises(ValueError) as library:
        pleth_hn_expansion(9, 2)
    assert str(sweep.value) == str(library.value) == (
        "degree 18 exceeds the cap of %d cells" % DEGREE_CAP
    )


def test_table_kron_rows_and_jobs_determinism(capsys):
    code, serial, _ = run(capsys, "table", "kron", "--n", "4")
    assert code == 0
    assert run(capsys, "table", "kron", "--n", "4") == (0, serial, "")
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


@pytest.mark.parametrize(
    "args", ["kron 2,1 2,1 2,1", "verify saxl --k 3", "table kron --n 3"]
)
@pytest.mark.parametrize("where", ["missing parent", "directory"])
def test_unwritable_out_is_invalid_input(capsys, tmp_path, args, where):
    target = tmp_path / "missing" / "x" if where == "missing parent" else tmp_path
    code, out, err = run(capsys, *args.split(), "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: Invalid value for '--out': %r: " % str(target))
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_unwritable_out_fails_before_the_work(monkeypatch, capsys, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "kron_table", lambda *a, **k: calls.append(a) or [])
    target = str(tmp_path / "missing" / "x")
    code, out, err = run(capsys, "table", "kron", "--n", "12", "--out", target)
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("error: Invalid value for '--out': ")


# -- hard failures -------------------------------------------------------------
#
# Every structure constant is an exact quotient of a contraction total.  Each
# route below is fed a corrupted input that leaves a remainder and one that
# gives a negative multiple of the divisor; both must raise
# InternalConsistencyError, exit 3 and name the check that tripped.


S3_ROWS = {(3,): (1, 1, 1), (2, 1): (-1, 0, 2)}


def _s3_row(row, shape=(2, 1)):
    """Replace chi^shape of S_3, truly S3_ROWS[shape], in the row store."""

    def corrupt(monkeypatch):
        assert strip_row(shape, 3) == S3_ROWS[shape]
        monkeypatch.setitem(characters._rows, (characters._word(shape), 3), row)

    return corrupt


@pytest.mark.parametrize(
    "args", ["kron 2,1 2,1 2,1", "table kron --n 3", "verify dimension-sum --n 3"]
)
def test_failed_run_leaves_out_as_it_was(monkeypatch, capsys, tmp_path, args):
    # the early --out check opens nothing for writing: an exit-3 run neither
    # truncates an existing file nor creates a missing one
    kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
    kept.write_bytes(b"earlier output\n")
    _s3_row((-1, 0, 3))(monkeypatch)
    for target in (kept, fresh):
        code, out, err = run(capsys, *args.split(), "--out", str(target))
        assert (code, out) == (3, "") and "internal consistency failure" in err
    assert kept.read_bytes() == b"earlier output\n"
    assert not fresh.exists()


def _engine_level(row):
    """Corrupt the weights of the top level of gbar((2,1), (2,1), (2,1)) = 9."""

    def corrupt(monkeypatch):
        kronecker._engine_value.cache_clear()
        assert reduced_kron((2, 1), (2, 1), (2, 1)) == 9
        _s3_row(row)(monkeypatch)
        kronecker._engine_value.cache_clear()

    return corrupt


def _saxl_weights(weights):
    """Replace the square weights of delta_2 = (2, 1), truly (2, 4).

    (2, 1) is the one self-conjugate shape of 3, so saxl, tensor-square and
    char-bound at size 3 all contract this support.
    """

    def corrupt(monkeypatch):
        true = verify._square_support((2, 1))
        assert (true.classes, true.weights) == (((3,), (1, 1, 1)), (2, 4))
        support = ClassSum(dict(zip(true.classes, weights)))
        monkeypatch.setattr(verify, "_square_support", lambda lam: support)

    return corrupt


def _h2h2_weights(weights):
    """Replace the class-vector weights of h_2[h_2], truly (2, 3, 2, 1)."""

    def corrupt(monkeypatch):
        true, scale = plethysm._class_vector((2,), (2,))
        assert (true.classes, true.weights, scale) == (
            ((4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)), (2, 3, 2, 1), 8
        )
        # chi^(3,1) is (-1, -1, 1, 3) on those classes, so the true total is 0
        vector = ClassSum(dict(zip(true.classes, weights))), scale
        monkeypatch.setattr(plethysm, "_class_vector", lambda outer, inner: vector)

    return corrupt


KRON = "g((3,), (3,), (2, 1)): "
# murnaghan's first padded triple is (1)[3], ()[3], (1)[3], whose total is
# 2 chi^(3)(3) + 4 chi^(3)(1^3): a square of chi^(2,1) cannot turn it negative,
# a corrupted chi^(3) can.  tworow's first triple of S_3 is ((2, 1), 1^3, 1^3).
MURNAGHAN = "g((2, 1), (3,), (2, 1)): "
TWOROW = "g((2, 1), (1, 1, 1), (1, 1, 1)): "
SQUARE = "g((2, 1), (2, 1), (3,)): "
PLETH = "coefficient of (3, 1) in s_(2,)[s_(2,)]: "
HARD_FAILURES = {
    "kron_char": (
        lambda: kron_char((2, 1), (2, 1), (2, 1)),
        "kron 2,1 2,1 2,1",
        (_s3_row((-1, 0, 3)), "g((2, 1), (2, 1), (2, 1)): 25 / 6 leaves remainder 1"),
        (_s3_row((-1, 0, -4)), "g((2, 1), (2, 1), (2, 1)): -66 / 6 is negative"),
    ),
    "kron_table": (
        lambda: kron_table(3),
        "table kron --n 3",
        (_s3_row((-1, 0, 3)), KRON + "1 / 6 leaves remainder 1"),
        (_s3_row((-1, 0, -4)), KRON + "-6 / 6 is negative"),
    ),
    "dimension-sum": (
        lambda: run_property("dimension-sum", {"n": 3}),
        "verify dimension-sum --n 3",
        (_s3_row((-1, 0, 3)), KRON + "1 / 6 leaves remainder 1"),
        (_s3_row((-1, 0, -4)), KRON + "-6 / 6 is negative"),
    ),
    "transpose": (
        lambda: run_property("transpose", {"n": 3}),
        "verify transpose --n 3",
        (_s3_row((-1, 0, 3)), KRON + "1 / 6 leaves remainder 1"),
        (_s3_row((-1, 0, -4)), KRON + "-6 / 6 is negative"),
    ),
    "pp20-bound": (
        lambda: run_property("pp20-bound", {"n": 3}),
        "verify pp20-bound --n 3",
        (_s3_row((-1, 0, 3)), KRON + "1 / 6 leaves remainder 1"),
        (_s3_row((-1, 0, -4)), KRON + "-6 / 6 is negative"),
    ),
    "ip23": (
        lambda: run_property("ip23", {"n": 3}),
        "verify ip23 --n 3",
        (_s3_row((-1, 0, 3)), KRON + "1 / 6 leaves remainder 1"),
        (_s3_row((-1, 0, -4)), KRON + "-6 / 6 is negative"),
    ),
    "murnaghan": (
        lambda: run_property("murnaghan", {"max_size": 1}),
        "verify murnaghan --n 1",
        (_s3_row((1, 1, 2), (3,)), MURNAGHAN + "10 / 6 leaves remainder 4"),
        (_s3_row((1, 1, -2), (3,)), MURNAGHAN + "-6 / 6 is negative"),
    ),
    "tworow": (
        lambda: run_property("tworow", {"max_cells": 3}),
        "verify tworow --n 3",
        (_s3_row((-1, 0, 3)), TWOROW + "1 / 6 leaves remainder 1"),
        (_s3_row((-1, 0, -4)), TWOROW + "-6 / 6 is negative"),
    ),
    "saxl": (
        lambda: run_property("saxl", {"k": 2}),
        "verify saxl --k 2",
        (_saxl_weights((3, 4)), SQUARE + "7 / 6 leaves remainder 1"),
        (_saxl_weights((-10, 4)), SQUARE + "-6 / 6 is negative"),
    ),
    "char-bound": (
        lambda: run_property("char-bound", {"n": 3}),
        "verify char-bound --n 3",
        (_saxl_weights((3, 4)), SQUARE + "7 / 6 leaves remainder 1"),
        (_saxl_weights((-10, 4)), SQUARE + "-6 / 6 is negative"),
    ),
    "tensor-square": (
        lambda: run_property("tensor-square", {"n": 3}),
        "verify tensor-square --n 3",
        (_saxl_weights((3, 4)), SQUARE + "7 / 6 leaves remainder 1"),
        (_saxl_weights((-10, 4)), SQUARE + "-6 / 6 is negative"),
    ),
    "engine-level": (
        lambda: reduced_kron((2, 1), (2, 1), (2, 1)),
        "rkron 2,1 2,1 2,1",
        (_engine_level((-1, 0, 3)), "level sum at (2, 1): 188 / 6 leaves remainder 2"),
        (_engine_level((-1, 0, -4)), "level sum at (2, 1): -288 / 6 is negative"),
    ),
    "pleth_coefficient": (
        lambda: pleth_coefficient((3, 1), (2,), (2,)),
        "pleth 3,1 2 2",
        # h_2[h_2] = (2 p_4 + 3 p_22 + 2 p_211 + p_1111) / 8
        (_h2h2_weights((2, 3, 3, 1)), PLETH + "1 / 8 leaves remainder 1"),
        (_h2h2_weights((10, 3, 2, 1)), PLETH + "-8 / 8 is negative"),
    ),
}


@pytest.mark.parametrize("route", HARD_FAILURES)
@pytest.mark.parametrize("check", ["remainder", "negative"])
def test_every_exact_division_fails_hard(monkeypatch, capsys, route, check):
    call, command, *cases = HARD_FAILURES[route]
    corrupt, message = cases[check == "negative"]
    corrupt(monkeypatch)
    with pytest.raises(InternalConsistencyError) as caught:
        call()
    assert message in str(caught.value)
    assert run(capsys, *command.split()) == (
        3, "", "internal consistency failure: %s\n" % caught.value
    )


def test_one_corrupted_row_reaches_every_dense_reader(monkeypatch):
    # every dense contraction reads chi^(2,1) of S_3 from the one row store
    kronecker._engine_value.cache_clear()
    plethysm._class_vector.cache_clear()
    _s3_row((-1, 0, 3))(monkeypatch)
    try:
        for call in (
            lambda: kron_char((2, 1), (2, 1), (2, 1)),
            lambda: kron_table(3),
            lambda: run_property("dimension-sum", {"n": 3}),
            lambda: run_property("transpose", {"n": 3}),
            lambda: run_property("pp20-bound", {"n": 3}),
            lambda: run_property("ip23", {"n": 3}),
            lambda: run_property("murnaghan", {"max_size": 1}),
            lambda: run_property("tworow", {"max_cells": 3}),
            lambda: reduced_kron((2, 1), (2, 1), (2, 1)),
        ):
            with pytest.raises(InternalConsistencyError):
                call()
        assert run_property("orthogonality", {"n": 3}).status == "fail"
        # the class vector of s_(1)[s_(2,1)] becomes 3 p_111 - 2 p_3 over 3!,
        # which the true chi^(2,1) = (-1, 0, 2) contracts to 8
        with pytest.raises(InternalConsistencyError, match="8 / 6 leaves remainder 2"):
            pleth_coefficient((2, 1), (2, 1), (1,))
        assert character_table(3)[(2, 1)] == {(3,): -1, (2, 1): 0, (1, 1, 1): 3}
    finally:
        # the class vector of s_(1)[s_(2,1)] was cached from the corrupted row
        plethysm._class_vector.cache_clear()

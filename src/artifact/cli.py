"""Command-line front door: one row of COMMANDS per command, standard library only.

Each command calls one library route (kron is kron_char) and prints plain
decimal values by default, or schema-stable JSON under --json, every record
rendered by verify._stringify (every number a decimal string, so nothing
passes through floating point).  Exit codes:
0 success or property pass (counterexample-confirmed and
inconclusive-within-range both count as successful runs), 1 invalid input,
2 property failed where a pass was expected, 3 internal consistency failure.
"""

import errno
import json
import os
import sys

from .characters import TABLE_LIMIT, character
from .kronecker import kron_char, kron_table, reduced_kron
from .partitions import format_partition, parse_partition
from .plethysm import DEGREE_CAP, pleth_coefficient, pleth_hn_expansion
from .tableaux import kostka, lr_coefficient
from .verify import (
    FAIL, _stringify, n_key, run_property, search_saturation_counterexample)

# An option is (flag, type, default, help line).  Its type is int, str (a
# path), or bool for a flag, which takes no value.
REQUIRED = object()  # the default of an option that must be given
METAVARS = {int: " INTEGER", str: " PATH", bool: ""}
OUTPUT = (("--json", bool, False, "Emit a JSON record."),
          ("--out", str, None, "Write output to PATH."))
HELP = ("--help", bool, False, "Show this message and exit.")


def _bad_out(out, exc):
    # an unwritable --out is invalid input (exit 1), not a crash
    return ValueError("Invalid value for '--out': %r: %s" % (out, exc.strerror))


def _check_out(out):
    """Fail as open(out, "w") would, before any work; create and truncate nothing.

    A command that then ends in an error (exit 1 or 3) leaves an existing
    file as it was, since _emit opens out only once the result is ready.
    """
    try:
        try:
            os.close(os.open(out, os.O_WRONLY))  # neither O_CREAT nor O_TRUNC
        except FileNotFoundError:
            parent = os.path.dirname(out) or "."
            if not os.path.basename(out) or not os.path.isdir(parent):
                raise
            if not os.access(parent, os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES)) from None
    except OSError as exc:
        raise _bad_out(out, exc) from None


def _emit(text, out):
    if out is None:
        return print(text)
    try:
        fh = open(out, "w")
    except OSError as exc:
        raise _bad_out(out, exc) from None
    with fh:
        fh.write(text + "\n")


def _value(help, args, value_key, call, *options):
    """The row of a command printing one value, or {args..., value_key: value}."""
    def handler(*parts, as_json, out, **kwargs):
        value = call(*parts, **kwargs)
        if as_json:
            record = {"lambda" if a == "lam" else a: p for a, p in zip(args, parts)}
            value = json.dumps(_stringify({**record, value_key: value}))
        _emit(str(value), out)
    params = tuple((arg.upper(), parse_partition) for arg in args)
    return help, params, options + OUTPUT, handler


def _pleth_hn(d, n, cap, as_json, out):
    terms = pleth_hn_expansion(d, n, cap=cap).coeffs.items()
    if as_json:
        rows = [{"lambda": lam, "a": a} for lam, a in terms]
        _emit(json.dumps(_stringify({"d": d, "n": n, "coeffs": rows})), out)
    else:
        _emit("\n".join("%s: %s" % (format_partition(lam), a) for lam, a in terms), out)


def _table_kron(n, cap, out):
    rows = ({"lambda": lam, "mu": mu, "nu": nu, "g": g}
            for lam, mu, nu, g in kron_table(n, limit=cap))
    _emit("\n".join(json.dumps(_stringify(row)) for row in rows), out)


def _verify(prop, n, k, d, cap, n_max, as_json, out):
    if prop == "saturation-cex":
        if n is not None or d is not None:
            raise ValueError("saturation-cex takes --k, --n-max and --cap")
        flags = {"k": k, "n_max": n_max, "size_cap": cap}
        report = search_saturation_counterexample(
            **{key: v for key, v in flags.items() if v is not None})
    else:
        flags = {"k": k, "d": d, "cap": cap, "n_max": n_max}
        if n is not None:
            flags[n_key(prop)] = n
        report = run_property(prop, {key: v for key, v in flags.items() if v is not None})
    record = report.to_json()
    text = "{property}: {status} (checked {checked_count}, {elapsed_ms} ms)"
    text = text.format(**record)
    if as_json:
        text = json.dumps(record)
    elif record["witness"] is not None:
        text += "\n" + json.dumps(record["witness"])
    _emit(text, out)
    return 2 if report.status == FAIL else 0


# Command path -> (help line, positionals as (NAME, type), options, handler).
# A group is a row with no handler; () is the whole CLI.  Each library
# function is looked up when its command runs, so that rebinding the module
# attribute (as the benchmark's layer spans do) reaches it.
COMMANDS = {
    (): ("Exact structure constants for S_n characters and symmetric functions.",
         (), (), None),
    ("char",): _value("Character value chi^LAM(ALPHA).", ("lam", "alpha"), "value",
                      lambda lam, alpha: character(lam, alpha)),
    ("kostka",): _value("Kostka number K_{LAM,ALPHA}.", ("lam", "alpha"), "value",
                        lambda lam, alpha: kostka(lam, alpha)),
    ("lr",): _value("Littlewood-Richardson coefficient c^LAM_{MU,NU}.",
                    ("lam", "mu", "nu"), "value",
                    lambda lam, mu, nu: lr_coefficient(lam, mu, nu)),
    ("kron",): _value("Kronecker coefficient g(LAM, MU, NU).", ("lam", "mu", "nu"), "g",
                      lambda lam, mu, nu: kron_char(lam, mu, nu)),
    ("rkron",): _value(
        "Reduced (stable) Kronecker coefficient gbar(ALPHA, BETA, GAMMA).",
        ("alpha", "beta", "gamma"), "gbar",
        lambda alpha, beta, gamma: reduced_kron(alpha, beta, gamma)),
    ("pleth",): _value(
        "Plethysm coefficient of s_TARGET in s_OUTER[s_INNER].",
        ("target", "inner", "outer"), "a",
        lambda target, inner, outer, cap: pleth_coefficient(target, inner, outer, cap=cap),
        ("--cap", int, DEGREE_CAP, "Degree cap for |inner|*|outer|.")),
    ("pleth-hn",): (
        "Schur expansion of the plethysm h_D[h_N].", (("D", int), ("N", int)),
        (("--cap", int, DEGREE_CAP, "Degree cap for d*n."),) + OUTPUT, _pleth_hn),
    ("table",): ("Bulk JSONL exports.", (), (), None),
    ("table", "kron"): (
        "Every g(lam, mu, nu) on canonical triples lam <= mu <= nu of size N.", (),
        (("--n", int, REQUIRED, "Size of the three partitions."),
         ("--cap", int, TABLE_LIMIT, "Override the size-%d table limit." % TABLE_LIMIT),
         ("--out", str, None, "Write JSONL to PATH.")),
        _table_kron),
    ("verify",): (
        "Run one property check, or the saturation-cex counterexample search.",
        (("PROP", str),),
        (("--n", int, None, "Range parameter (see property docs)."),
         ("--k", int, None, "Staircase / family index."),
         ("--d", int, None, "Outer degree (foulkes)."),
         ("--cap", int, None, "Resource-cap override."),
         ("--n-max", int, None, "Largest stretch N (saturation-cex).")) + OUTPUT,
        _verify),
}


def _help(path):
    """The --help text of a command or a group."""
    text, params, options, handler = COMMANDS[path]
    names = [name for name, _ in params] if handler else ["COMMAND [ARGS]..."]
    usage = " ".join(["artifact", *path, "[OPTIONS]", *names])
    lines = ["Usage: " + usage, "", "  " + text, "", "Options:"]
    for flag, kind, default, line in options + (HELP,):
        lines.append("  %-22s %s" % (flag + METAVARS[kind], line))
    if handler is None:
        subs = [key for key in sorted(COMMANDS) if key[:-1] == path != key]
        lines += ["", "Commands:"] + ["  %-10s %s" % (k[-1], COMMANDS[k][0]) for k in subs]
    return "\n".join(lines)


def _convert(kind, text, name):
    """text as a value of kind, or a ValueError naming the argument NAME."""
    try:
        return kind(text)
    except ValueError as exc:
        reason = "%r is not a valid integer." % text if kind is int else exc
        raise ValueError("Invalid value for '%s': %s" % (name, reason)) from None


def _parse(argv):
    """(handler, positionals, keywords) for argv; usage errors in click's wording."""
    path, given, positional, words = (), {}, [], iter(argv)
    for word in words:
        flag, eq, value = word.partition("=")
        kinds = {opt[0]: opt[1] for opt in COMMANDS[path][2] + (HELP,)}
        if word == "--":
            positional += words  # the rest, so the loop ends here
        elif word == "-" or not word.startswith("-"):
            if COMMANDS[path][3] is not None:
                positional.append(word)
            elif path + (word,) in COMMANDS:
                path += (word,)
            else:
                raise ValueError("No such command '%s'." % word)
        elif flag not in kinds:
            raise ValueError("No such option '%s'." % flag)
        elif kinds[flag] is bool and eq:
            raise ValueError("Option '%s' does not take a value." % flag)
        elif kinds[flag] is bool:
            given[flag] = True
        else:
            given[flag] = value if eq else next(words, None)
            if given[flag] is None:
                raise ValueError("Option '%s' requires an argument." % flag)
    _, params, options, handler = COMMANDS[path]
    if "--help" in given:
        return print, (_help(path),), {}
    if handler is None:
        raise ValueError(_help(path))
    kwargs = {}
    for flag, kind, default, _ in options:
        if flag not in given and default is REQUIRED:
            raise ValueError("Missing option '%s'." % flag)
        value = _convert(kind, given[flag], flag) if flag in given else default
        kwargs["as_json" if flag == "--json" else flag[2:].replace("-", "_")] = value
    values = [_convert(kind, word, name) for (name, kind), word in zip(params, positional)]
    if len(values) < len(params):
        raise ValueError("Missing argument '%s'." % params[len(values)][0])
    extra = positional[len(params):]
    if extra:
        raise ValueError("Got unexpected extra argument%s (%s)" % (
            "s" if len(extra) > 1 else "", " ".join(extra)))
    return handler, values, kwargs


def main(argv=None):
    try:
        handler, args, kwargs = _parse(sys.argv[1:] if argv is None else argv)
        if kwargs.get("out") is not None:
            _check_out(kwargs["out"])
        return handler(*args, **kwargs) or 0
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

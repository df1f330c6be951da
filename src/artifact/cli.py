"""Command-line front door.

Dispatches to the library, prints plain decimal values by default and
schema-stable JSON under --json (every number a decimal string, so nothing
ever passes through floating point).  Exit codes: 0 success or property
pass (counterexample-confirmed and inconclusive-within-range both count as
successful runs), 1 invalid input, 2 property failed where a pass was
expected, 3 internal consistency failure.
"""

import json

import click

from .characters import TABLE_LIMIT, character
from .kronecker import kron_char, kron_schur_oracle, kron_table, reduced_kron
from .partitions import enumerate_partitions, format_partition, parse_partition
from .plethysm import pleth_coefficient, pleth_hn_expansion
from .tableaux import kostka, lr_coefficient
from .verify import FAIL, n_key, run_property, search_saturation_counterexample


class PartitionType(click.ParamType):
    """Accepts '5,4,2', exponent form '2^3,1', and '-' or '' for the empty one."""

    name = "partition"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        try:
            return parse_partition(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


PARTITION = PartitionType()


def _output_options(fn):
    fn = click.option(
        "--out", type=click.Path(), default=None, help="Write output to PATH."
    )(fn)
    fn = click.option(
        "--json", "as_json", is_flag=True, help="Emit a JSON record."
    )(fn)
    return fn


def _emit(text, out):
    if out is None:
        click.echo(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _parts(p):
    return [str(x) for x in p]


@click.group()
def cli():
    """Exact structure constants for S_n characters and symmetric functions."""


def _kron(lam, mu, nu, method, cap):
    if method == "schur":
        kwargs = {} if cap is None else {"size_cap": cap}
        return kron_schur_oracle(lam, mu, nu, **kwargs)
    if cap is not None:
        raise ValueError("kron takes --cap only with --method schur")
    return kron_char(lam, mu, nu)


def _pleth(target, inner, outer, cap):
    kwargs = {} if cap is None else {"cap": cap}
    return pleth_coefficient(target, inner, outer, **kwargs)


# The single-value commands: name, partition arguments, JSON value key, help
# line, library call and extra options.  Each call looks its library function
# up when it runs, so that rebinding the module attribute (as the
# benchmark's layer spans do) reaches it.
_VALUE_COMMANDS = (
    ("char", ("lam", "alpha"), "value", "Character value chi^LAM(ALPHA).",
     lambda lam, alpha: character(lam, alpha)),
    ("kostka", ("lam", "alpha"), "value", "Kostka number K_{LAM,ALPHA}.",
     lambda lam, alpha: kostka(lam, alpha)),
    ("lr", ("lam", "mu", "nu"), "value",
     "Littlewood-Richardson coefficient c^LAM_{MU,NU}.",
     lambda lam, mu, nu: lr_coefficient(lam, mu, nu)),
    ("kron", ("lam", "mu", "nu"), "g", "Kronecker coefficient g(LAM, MU, NU).", _kron,
     click.Option(
         ["--method"],
         type=click.Choice(["char", "schur"]),
         default="char",
         help="char = character contraction; schur = capped cross-validation oracle.",
     ),
     click.Option(["--cap"], type=int, help="Size cap for --method schur.")),
    ("rkron", ("alpha", "beta", "gamma"), "gbar",
     "Reduced (stable) Kronecker coefficient gbar(ALPHA, BETA, GAMMA).",
     lambda alpha, beta, gamma: reduced_kron(alpha, beta, gamma)),
    ("pleth", ("target", "inner", "outer"), "a",
     "Plethysm coefficient of s_TARGET in s_OUTER[s_INNER].", _pleth,
     click.Option(["--cap"], type=int, help="Degree cap for |inner|*|outer|.")),
)


def _value_command(name, args, value_key, help, call, *options):
    """Add a command printing one value, or {args..., value_key: value} under --json."""
    params = [click.Argument([arg], type=PARTITION) for arg in args]

    @cli.command(name, help=help, params=params + list(options))
    @_output_options
    def command(as_json, out, **kwargs):
        parts = [kwargs.pop(arg) for arg in args]
        text = str(call(*parts, **kwargs))
        if as_json:
            record = {
                "lambda" if arg == "lam" else arg: _parts(part)
                for arg, part in zip(args, parts)
            }
            record[value_key] = text
            text = json.dumps(record)
        _emit(text, out)


for _row in _VALUE_COMMANDS:
    _value_command(*_row)


@cli.command("pleth-hn")
@click.argument("d", type=int)
@click.argument("n", type=int)
@click.option("--cap", type=int, default=None, help="Degree cap for d*n.")
@_output_options
def pleth_hn(d, n, cap, as_json, out):
    """Schur expansion of the plethysm h_D[h_N]."""
    kwargs = {} if cap is None else {"cap": cap}
    coeffs = pleth_hn_expansion(d, n, **kwargs).coeffs
    terms = [(lam, coeffs[lam]) for lam in enumerate_partitions(d * n) if lam in coeffs]
    if as_json:
        rows = [{"lambda": _parts(lam), "a": str(a)} for lam, a in terms]
        _emit(json.dumps({"d": str(d), "n": str(n), "coeffs": rows}), out)
    else:
        _emit("\n".join("%s: %s" % (format_partition(lam), a) for lam, a in terms), out)


@cli.group()
def table():
    """Bulk JSONL exports."""


@table.command("kron")
@click.option("--n", type=int, required=True, help="Size of the three partitions.")
@click.option(
    "--cap", type=int, default=None,
    help="Override the size-%d table limit." % TABLE_LIMIT,
)
@click.option("--out", type=click.Path(), default=None, help="Write JSONL to PATH.")
def table_kron(n, cap, out):
    """Every g(lam, mu, nu) on canonical triples lam <= mu <= nu of size N."""
    kwargs = {} if cap is None else {"limit": cap}
    rows = kron_table(n, **kwargs)
    lines = [
        json.dumps(
            {
                "lambda": _parts(lam),
                "mu": _parts(mu),
                "nu": _parts(nu),
                "g": str(value),
            }
        )
        for lam, mu, nu, value in rows
    ]
    _emit("\n".join(lines), out)


@cli.command()
@click.argument("prop")
@click.option("--n", type=int, default=None, help="Range parameter (see property docs).")
@click.option("--k", type=int, default=None, help="Staircase / family index.")
@click.option("--d", type=int, default=None, help="Outer degree (foulkes).")
@click.option("--cap", type=int, default=None, help="Resource-cap override.")
@click.option("--n-max", type=int, default=None, help="Largest stretch N (saturation-cex).")
@_output_options
def verify(prop, n, k, d, cap, n_max, as_json, out):
    """Run one property check, or the saturation-cex counterexample search."""
    if prop == "saturation-cex":
        if n is not None or d is not None:
            raise ValueError("saturation-cex takes --k, --n-max and --cap")
        kwargs = {} if cap is None else {"size_cap": cap}
        report = search_saturation_counterexample(
            k if k is not None else 3,
            n_max if n_max is not None else 4,
            **kwargs,
        )
    else:
        flags = {"k": k, "d": d, "cap": cap, "n_max": n_max}
        if n is not None:
            flags[n_key(prop)] = n
        params = {key: value for key, value in flags.items() if value is not None}
        report = run_property(prop, params)
    record = report.to_json()
    if as_json:
        _emit(json.dumps(record), out)
    else:
        text = "%s: %s (checked %s, %s ms)" % (
            record["property"],
            record["status"],
            record["checked_count"],
            record["elapsed_ms"],
        )
        if record["witness"] is not None:
            text += "\n" + json.dumps(record["witness"])
        _emit(text, out)
    return 2 if report.status == FAIL else 0


def main(argv=None):
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo("error: %s" % exc.format_message(), err=True)
        return 1
    except ValueError as exc:
        click.echo("error: %s" % exc, err=True)
        return 1
    except ArithmeticError as exc:
        click.echo("internal consistency failure: %s" % exc, err=True)
        return 3
    return 0 if rv is None else rv


if __name__ == "__main__":
    raise SystemExit(main())

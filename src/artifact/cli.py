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

from .characters import character
from .kronecker import (
    InternalConsistencyError,
    kron_char,
    kron_schur_oracle,
    kron_table,
    reduced_kron,
)
from .partitions import format_partition, parse_partition
from .plethysm import hn_expansion_json, pleth_coefficient
from .tableaux import kostka, lr_coefficient
from .verify import FAIL, run_property, search_saturation_counterexample


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


@cli.command()
@click.argument("lam", type=PARTITION)
@click.argument("alpha", type=PARTITION)
@_output_options
def char(lam, alpha, as_json, out):
    """Character value chi^LAM(ALPHA)."""
    value = character(lam, alpha)
    if as_json:
        record = {"lambda": _parts(lam), "alpha": _parts(alpha), "value": str(value)}
        _emit(json.dumps(record), out)
    else:
        _emit(str(value), out)


@cli.command("kostka")
@click.argument("lam", type=PARTITION)
@click.argument("alpha", type=PARTITION)
@_output_options
def kostka_cmd(lam, alpha, as_json, out):
    """Kostka number K_{LAM,ALPHA}."""
    value = kostka(lam, alpha)
    if as_json:
        record = {"lambda": _parts(lam), "alpha": _parts(alpha), "value": str(value)}
        _emit(json.dumps(record), out)
    else:
        _emit(str(value), out)


@cli.command()
@click.argument("lam", type=PARTITION)
@click.argument("mu", type=PARTITION)
@click.argument("nu", type=PARTITION)
@_output_options
def lr(lam, mu, nu, as_json, out):
    """Littlewood-Richardson coefficient c^LAM_{MU,NU}."""
    value = lr_coefficient(lam, mu, nu)
    if as_json:
        record = {
            "lambda": _parts(lam),
            "mu": _parts(mu),
            "nu": _parts(nu),
            "value": str(value),
        }
        _emit(json.dumps(record), out)
    else:
        _emit(str(value), out)


@cli.command()
@click.argument("lam", type=PARTITION)
@click.argument("mu", type=PARTITION)
@click.argument("nu", type=PARTITION)
@click.option(
    "--method",
    type=click.Choice(["char", "schur"]),
    default="char",
    help="char = character contraction; schur = capped cross-validation oracle.",
)
@click.option("--cap", type=int, default=None, help="Size cap for --method schur.")
@_output_options
def kron(lam, mu, nu, method, cap, as_json, out):
    """Kronecker coefficient g(LAM, MU, NU)."""
    if method == "schur":
        kwargs = {} if cap is None else {"size_cap": cap}
        value = kron_schur_oracle(lam, mu, nu, **kwargs)
    else:
        value = kron_char(lam, mu, nu)
    if as_json:
        record = {
            "lambda": _parts(lam),
            "mu": _parts(mu),
            "nu": _parts(nu),
            "g": str(value),
        }
        _emit(json.dumps(record), out)
    else:
        _emit(str(value), out)


@cli.command()
@click.argument("alpha", type=PARTITION)
@click.argument("beta", type=PARTITION)
@click.argument("gamma", type=PARTITION)
@_output_options
def rkron(alpha, beta, gamma, as_json, out):
    """Reduced (stable) Kronecker coefficient gbar(ALPHA, BETA, GAMMA)."""
    value = reduced_kron(alpha, beta, gamma)
    if as_json:
        record = {
            "alpha": _parts(alpha),
            "beta": _parts(beta),
            "gamma": _parts(gamma),
            "gbar": str(value),
        }
        _emit(json.dumps(record), out)
    else:
        _emit(str(value), out)


@cli.command("pleth-hn")
@click.argument("d", type=int)
@click.argument("n", type=int)
@click.option("--cap", type=int, default=None, help="Degree cap for d*n.")
@_output_options
def pleth_hn(d, n, cap, as_json, out):
    """Schur expansion of the plethysm h_D[h_N]."""
    kwargs = {} if cap is None else {"cap": cap}
    record = hn_expansion_json(d, n, **kwargs)
    if as_json:
        _emit(json.dumps(record), out)
    else:
        lines = [
            "%s: %s" % (format_partition(tuple(int(x) for x in row["lambda"])), row["a"])
            for row in record["coeffs"]
        ]
        _emit("\n".join(lines), out)


@cli.command()
@click.argument("target", type=PARTITION)
@click.argument("inner", type=PARTITION)
@click.argument("outer", type=PARTITION)
@click.option("--cap", type=int, default=None, help="Degree cap for |inner|*|outer|.")
@_output_options
def pleth(target, inner, outer, cap, as_json, out):
    """Plethysm coefficient of s_TARGET in s_OUTER[s_INNER]."""
    kwargs = {} if cap is None else {"cap": cap}
    value = pleth_coefficient(target, inner, outer, **kwargs)
    if as_json:
        record = {
            "target": _parts(target),
            "inner": _parts(inner),
            "outer": _parts(outer),
            "a": str(value),
        }
        _emit(json.dumps(record), out)
    else:
        _emit(str(value), out)


@cli.group()
def table():
    """Bulk JSONL exports."""


@table.command("kron")
@click.option("--n", type=int, required=True, help="Size of the three partitions.")
@click.option("--cap", type=int, default=None, help="Override the size-22 table guard.")
@click.option("--jobs", type=int, default=1, help="Accepted and ignored (serial).")
@click.option("--out", type=click.Path(), default=None, help="Write JSONL to PATH.")
def table_kron(n, cap, jobs, out):
    """Every g(lam, mu, nu) on canonical triples lam <= mu <= nu of size N."""
    kwargs = {} if cap is None else {"limit": cap}
    rows = kron_table(n, jobs=jobs, **kwargs)
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


# The generic --n flag lands on whichever range parameter the property
# sweeps; everything not listed here takes it as the partition size n.
_N_KEY = {
    "murnaghan": "max_size",
    "tworow": "max_cells",
    "cauchy": "max_degree",
    "semigroup": "samples",
}


@cli.command()
@click.argument("prop")
@click.option("--n", type=int, default=None, help="Range parameter (see property docs).")
@click.option("--k", type=int, default=None, help="Staircase / family index.")
@click.option("--d", type=int, default=None, help="Outer degree (foulkes).")
@click.option("--cap", type=int, default=None, help="Resource-cap override.")
@click.option("--n-max", type=int, default=None, help="Largest stretch N (saturation-cex).")
@click.option("--jobs", type=int, default=1, help="Accepted and ignored (serial).")
@_output_options
def verify(prop, n, k, d, cap, n_max, jobs, as_json, out):
    """Run one property check, or the saturation-cex counterexample search."""
    if prop == "saturation-cex":
        kwargs = {} if cap is None else {"size_cap": cap}
        report = search_saturation_counterexample(
            k if k is not None else 3,
            n_max if n_max is not None else 4,
            **kwargs,
        )
    else:
        params = {}
        if n is not None:
            params[_N_KEY.get(prop, "n")] = n
        if k is not None:
            params["k"] = k
        if d is not None:
            params["d"] = d
        if cap is not None:
            params["cap"] = cap
        report = run_property(prop, params, jobs=jobs)
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
    except InternalConsistencyError as exc:
        click.echo("internal consistency failure: %s" % exc, err=True)
        return 3
    except ArithmeticError as exc:
        click.echo("internal consistency failure: %s" % exc, err=True)
        return 3
    return 0 if rv is None else rv


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

Exit codes are a machine contract: 0 = verified/success, 1 = a negative
mathematical finding (obstructed, stuck, or a failed verification),
2 = input or usage error.  Standard output is deterministic for fixed inputs;
diagnostics go to standard error.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import dsl, family
from .cochain import cohomology as compute_cohomology
from .deform import MapSeries, _Ledger, deform_to_order, trivialize
from .errors import DgmError, NotADifferential
from .field import GF, QQ, FieldSpec


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    # an explicit stream: for a default stream click caches a wrapper that
    # keeps the stream alive, so each in-process run with its own captured
    # stdout and stderr (tests, embedding callers) would leak both
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _parse_field(text: str) -> FieldSpec:
    if text == "Q":
        return QQ
    if text.startswith("GF:"):
        # ASCII digits only, as in a file's ``field GF <p>``: int() would also
        # take a sign, spaces, underscores and the digits of other scripts
        digits = text[3:]
        try:
            if digits.isascii() and digits.isdigit():
                return GF(int(digits))
        except ValueError:  # more digits than int() converts
            pass
        raise click.UsageError(f"field modulus must be an integer, got {digits!r}")
    raise click.UsageError(f"field must be 'Q' or 'GF:<p>', got {text!r}")


def _load_complex(path: str):
    try:
        return dsl.load_complex(dsl.parse(Path(path).read_text(encoding="utf-8")))
    except NotADifferential as exc:
        _echo(f"check failed: {exc}", err=True)
        sys.exit(1)


def _load_deformation(path: str):
    cx, _, lifts = _load_complex(path)
    if not lifts:
        raise click.UsageError("file has no deformation block")
    return cx, lifts


class _Main(click.Group):
    """The one exit-2 path: a library error, a file that cannot be read,
    decoded or written, or a usage error ends in one ``error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            message = exc.format_message()
        except (DgmError, OSError, UnicodeDecodeError) as exc:
            message = str(exc)
        _echo(f"error: {message}", err=True)
        sys.exit(2)


# no help page for a bare call, and an unknown option before the command is
# read as a command name: both then fail inside _Main.invoke, in one line
@click.group(cls=_Main, no_args_is_help=False,
             context_settings={"ignore_unknown_options": True})
def main():
    """Exact deformation theory of differential graded modules."""


@main.command()
@click.argument("file", type=click.Path())
def check(file):
    """Parse FILE, validate it, and confirm d^2 = 0."""
    cx, maps, lifts = _load_complex(file)
    _echo(
        f"ok: module {cx.module.name} over {cx.field}, dim {cx.module.dim}, "
        f"{len(maps)} maps, {len(lifts)} deformation orders; d^2 = 0"
    )


@main.command(name="cohomology")
@click.argument("file", type=click.Path())
@click.option("--p", "ps", type=int, multiple=True, required=True,
              help="cochain degree to compute (repeatable)")
def cohomology_cmd(file, ps):
    """Cohomology dimensions and representatives of FILE's complex."""
    cx, _, _ = _load_complex(file)
    results = [compute_cohomology(cx, cx, p) for p in ps]
    for p, result in zip(ps, results):
        _echo(f"H^{p} dim={result.dim_h}")
        for rep in result.representatives:
            _echo(f"  {rep.render()}")


@main.command(name="obstruction")
@click.argument("file", type=click.Path())
@click.option("--order", "k", type=int, required=True, help="obstruction order")
def obstruction_cmd(file, k):
    """Print O_k for FILE's deformation block."""
    cx, lifts = _load_deformation(file)
    if k < 1:
        raise click.UsageError("order must be >= 1")
    # O_k reads only d_1..d_k, and the ledger forms only the nonzero products
    # of their entries, so any k costs the same
    _echo(f"O_{k} = {_Ledger(cx, lifts[:k]).obstruction(k).render()}")


@main.command(name="deform")
@click.argument("file", type=click.Path())
@click.option("--order", "n", type=int, required=True, help="target order")
@click.option("--lifts", "strategy", type=click.Choice(["file", "canonical"]),
              default="file", show_default=True,
              help="validate the file's lifts, or re-solve from d_1 alone")
def deform_cmd(file, n, strategy):
    """Extend FILE's infinitesimal deformation to the requested order."""
    cx, lifts = _load_deformation(file)
    supplied = lifts[1:n] if strategy == "file" else None
    report = deform_to_order(cx, lifts[0], n, lifts=supplied)
    _echo(report.render())
    sys.exit(0 if report.extended else 1)


@main.command(name="trivialize")
@click.argument("file", type=click.Path())
@click.option("--order", "n", type=int, required=True, help="truncation order")
def trivialize_cmd(file, n):
    """Gauge FILE's deformation toward the trivial one."""
    cx, lifts = _load_deformation(file)
    report = trivialize(MapSeries.deformation(cx, lifts[:n], order=n))
    _echo(report.render())
    sys.exit(0 if report.trivialized else 1)


@main.command(name="paper-family")
@click.option("--n", type=int, required=True, help="order of the family member")
@click.option("--variant", type=click.Choice(family.VARIANTS), default="polynomial",
              show_default=True)
@click.option("--truncate", "truncation", type=int, default=None,
              help="truncation degree (defaults to the minimal window)")
@click.option("--field", "field_text", default="Q", show_default=True,
              help="Q or GF:<p>")
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="output file; '-' for standard output")
def paper_family_cmd(n, variant, truncation, field_text, out_path):
    """Emit a member of the built-in example family as a .dgm file."""
    field = _parse_field(field_text)
    spec = family.FamilySpec(n, variant, truncation, field)
    cx, lifts = spec.cx, family.family_lifts(spec)
    maps = {"d": cx.d}
    names = []
    for k, m in enumerate(lifts, start=1):
        maps[f"d{k}"] = m
        names.append(f"d{k}")
    text = dsl.render(dsl.Document(field, cx.module, maps, names))
    if out_path == "-":
        _echo(text, nl=False)
    else:
        Path(out_path).write_text(text)


@main.command(name="verify-paper")
@click.option("--n", type=int, required=True, help="order of the family member")
@click.option("--variant",
              type=click.Choice(["polynomial", "obstructed", "infinite", "all"]),
              default="all", show_default=True)
@click.option("--field", "field_texts", multiple=True, default=("Q",),
              show_default=True, help="Q or GF:<p> (repeatable)")
def verify_paper_cmd(n, variant, field_texts):
    """Re-derive and mechanically check the built-in example family."""
    fields = [_parse_field(t) for t in field_texts]
    verifiers = {
        "polynomial": family.verify_polynomial,
        "obstructed": family.verify_obstructed,
        "infinite": family.verify_infinite,
    }
    # only "all" skips the polynomial variant below n = 2; asked for, it is an error
    chosen = [v for v in verifiers
              if v == variant or (variant == "all" and (v != "polynomial" or n >= 2))]
    for v in chosen:
        family.FamilySpec(n, v)  # order and truncation cap, before anything is built
    reports = [verifiers[v](n, field=field) for field in fields for v in chosen]
    for report in reports:
        _echo(report.render())
    ok = all(r.ok for r in reports)
    _echo("all checks passed" if ok else "some checks FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

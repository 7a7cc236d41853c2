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
from .deform import MapSeries, deform_to_order, obstruction, trivialize
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
        try:
            return GF(int(text[3:]))
        except ValueError:
            _echo(f"error: field modulus must be an integer, got {text[3:]!r}", err=True)
        except DgmError as exc:
            _echo(f"error: {exc}", err=True)
        sys.exit(2)
    raise click.UsageError(f"field must be 'Q' or 'GF:<p>', got {text!r}")


def _load(path: str) -> dsl.Document:
    try:
        return dsl.parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, DgmError) as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(2)


def _load_complex(path: str):
    doc = _load(path)
    try:
        return dsl.load_complex(doc)
    except NotADifferential as exc:
        _echo(f"check failed: {exc}", err=True)
        sys.exit(1)
    except DgmError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(2)


@click.group()
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
    for p in ps:
        result = compute_cohomology(cx, cx, p)
        _echo(f"H^{p} dim={result.dim_h}")
        for rep in result.representatives:
            _echo(f"  {rep.render()}")


@main.command(name="obstruction")
@click.argument("file", type=click.Path())
@click.option("--order", "k", type=int, required=True, help="obstruction order")
def obstruction_cmd(file, k):
    """Print O_k for FILE's deformation block."""
    cx, _, lifts = _load_complex(file)
    if not lifts:
        _echo("error: file has no deformation block", err=True)
        sys.exit(2)
    if k < 1:
        _echo("error: order must be >= 1", err=True)
        sys.exit(2)
    from .gmap import GradedMap

    # O_k = -sum d_i d_{k-i+1} has no nonzero term once k >= 2 * len(lifts)
    m = min(k, 2 * len(lifts))
    padded = list(lifts) + [GradedMap.zero(cx.module, degree=-1)] * (m - len(lifts))
    o_k = obstruction(cx, padded[:m])
    _echo(f"O_{k} = {o_k.render()}")


@main.command(name="deform")
@click.argument("file", type=click.Path())
@click.option("--order", "n", type=int, required=True, help="target order")
@click.option("--lifts", "strategy", type=click.Choice(["file", "canonical"]),
              default="file", show_default=True,
              help="validate the file's lifts, or re-solve from d_1 alone")
def deform_cmd(file, n, strategy):
    """Extend FILE's infinitesimal deformation to the requested order."""
    cx, _, lifts = _load_complex(file)
    if not lifts:
        _echo("error: file has no deformation block", err=True)
        sys.exit(2)
    supplied = lifts[1:n] if strategy == "file" else None
    try:
        report = deform_to_order(cx, lifts[0], n, lifts=supplied)
    except DgmError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(2)
    _echo(report.render())
    sys.exit(0 if report.extended else 1)


@main.command(name="trivialize")
@click.argument("file", type=click.Path())
@click.option("--order", "n", type=int, required=True, help="truncation order")
def trivialize_cmd(file, n):
    """Gauge FILE's deformation toward the trivial one."""
    cx, _, lifts = _load_complex(file)
    if not lifts:
        _echo("error: file has no deformation block", err=True)
        sys.exit(2)
    try:
        d_t = MapSeries.deformation(cx, lifts[:n], order=n)
        report = trivialize(d_t)
    except DgmError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(2)
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
    try:
        spec = family.FamilySpec(n, variant, truncation, field)
        cx = family.base_complex(spec.truncation, field)
        lifts = family.family_lifts(spec)
    except DgmError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(2)
    maps = {"d": cx.d}
    names = []
    for k, m in enumerate(lifts, start=1):
        maps[f"d{k}"] = m
        names.append(f"d{k}")
    text = dsl.render(dsl.Document(field, cx.module, maps, names))
    if out_path == "-":
        _echo(text, nl=False)
    else:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(2)


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
    reports = []
    try:
        for field in fields:
            if variant in ("polynomial", "all") and n >= 2:
                reports.append(family.verify_polynomial(n, field=field))
            if variant in ("obstructed", "all"):
                reports.append(family.verify_obstructed(n, field=field))
            if variant in ("infinite", "all"):
                reports.append(family.verify_infinite(n, field=field))
    except DgmError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(2)
    for report in reports:
        _echo(report.render())
    ok = all(r.ok for r in reports)
    _echo("all checks passed" if ok else "some checks FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

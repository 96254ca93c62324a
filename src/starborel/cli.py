"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 verification failure.
"""

from __future__ import annotations

import json
import sys

import click

from . import suites
from .borel import borel as borel_fn
from .borel import borel_star, borel_T, hadamard as hadamard_fn
from .borel import inverse_borel, odot_ij
from .errors import StarBorelError
from .locus import conv_locus, hadamard_locus_1d, hadamard_locus_5var, odot_locus
from .poly import MultiPoly, UniOverPoly, simple_decompose, sylvester_resultant
from .series import FormalSeries, Truncation, VariableSet, as_rat
from .star import StarKind, star as star_fn, transition_T


def _emit(text: str, as_json: bool):
    if as_json:
        click.echo(json.dumps({"result": text}), file=sys.stdout)
    else:
        click.echo(text, file=sys.stdout)


def _parse_vars(spec: str) -> VariableSet:
    names = tuple(n.strip() for n in spec.split(",") if n.strip())
    return VariableSet(names, dof=0)


def _uni(text: str, vars: VariableSet, var: str) -> UniOverPoly:
    """Parse a polynomial and read it in its distinguished variable."""
    return UniOverPoly.from_multipoly(MultiPoly.from_string(text, vars), var)


trunc_t_opt = click.option("--trunc-t", default=8, show_default=True,
                           help="degree cap for the distinguished variable")
trunc_xy_opt = click.option("--trunc-xy", default=8, show_default=True,
                            help="joint degree cap for the remaining variables")
dof_opt = click.option("--dof", default=1, show_default=True,
                       help="number of (q, p) pairs")
json_opt = click.option("--json", "as_json", is_flag=True,
                        help="machine-readable output")
kind_opt = click.option("--kind", type=click.Choice(["standard", "moyal"]),
                        default="standard", show_default=True)


def series_options(command):
    """Apply --dof, --trunc-t, --trunc-xy and --json, listed in that order."""
    for option in (json_opt, trunc_xy_opt, trunc_t_opt, dof_opt):
        command = option(command)
    return command


def _series(plane: str, dof: int, trunc_t: int, trunc_xy: int, *texts) -> list:
    """Parse series over the phase space with deformation variable ``plane``
    (t or xi), in the window (trunc_t, trunc_xy)."""
    vars = VariableSet.phase_space(dof, plane)
    trunc = Truncation(trunc_t, trunc_xy)
    return [FormalSeries.from_string(text, vars, trunc) for text in texts]


@click.group()
def cli():
    """Exact star products, Borel-plane counterparts, singular loci, and
    numeric verification."""


@cli.command()
@click.argument("f")
@click.argument("g")
@kind_opt
@series_options
def star(f, g, kind, dof, trunc_t, trunc_xy, as_json):
    """Star product of two t-plane series."""
    a, b = _series("t", dof, trunc_t, trunc_xy, f, g)
    _emit(str(star_fn(a, b, StarKind(kind))), as_json)


@cli.command()
@click.argument("f")
@series_options
def borel(f, dof, trunc_t, trunc_xy, as_json):
    """Borel transform t^n -> xi^n/n! of a t-plane series."""
    a, = _series("t", dof, trunc_t, trunc_xy, f)
    _emit(str(borel_fn(a)), as_json)


@cli.command()
@click.argument("fhat")
@series_options
def unborel(fhat, dof, trunc_t, trunc_xy, as_json):
    """Inverse Borel transform xi^n -> n! t^n."""
    a, = _series("xi", dof, trunc_t, trunc_xy, fhat)
    _emit(str(inverse_borel(a)), as_json)


@cli.command("borel-star")
@click.argument("fhat")
@click.argument("ghat")
@kind_opt
@series_options
def borel_star_cmd(fhat, ghat, kind, dof, trunc_t, trunc_xy, as_json):
    """Borel-plane star product of two xi-plane series."""
    a, b = _series("xi", dof, trunc_t, trunc_xy, fhat, ghat)
    _emit(str(borel_star(a, b, StarKind(kind))), as_json)


@cli.command()
@click.argument("f")
@click.option("--inverse", is_flag=True, help="apply the inverse operator")
@click.option("--borel-plane", is_flag=True,
              help="treat the input as a xi-plane series")
@series_options
def transition(f, inverse, borel_plane, dof, trunc_t, trunc_xy, as_json):
    """Transition operator between the standard and Moyal products."""
    plane, op = ("xi", borel_T) if borel_plane else ("t", transition_T)
    a, = _series(plane, dof, trunc_t, trunc_xy, f)
    _emit(str(op(a, inverse=inverse)), as_json)


@cli.command()
@click.argument("phi")
@click.argument("psi")
@trunc_t_opt
@json_opt
def hadamard(phi, psi, trunc_t, as_json):
    """Coefficientwise (Hadamard) product of univariate xi-series."""
    vars = VariableSet(("xi",))
    trunc = Truncation(trunc_t, 0)
    out = hadamard_fn(FormalSeries.from_string(phi, vars, trunc),
                      FormalSeries.from_string(psi, vars, trunc))
    _emit(str(out), as_json)


@cli.command()
@click.argument("f")
@click.option("--i", "var_i", required=True, help="first pairing variable")
@click.option("--j", "var_j", required=True, help="second pairing variable")
@click.option("--vars", "vars_spec", required=True,
              help="comma-separated variable names, distinguished first")
@trunc_t_opt
@trunc_xy_opt
@json_opt
def odot(f, var_i, var_j, vars_spec, trunc_t, trunc_xy, as_json):
    """Diagonal pairing in two variables; prepends a fresh xi."""
    vars = _parse_vars(vars_spec)
    trunc = Truncation(trunc_t, trunc_xy)
    out = odot_ij(FormalSeries.from_string(f, vars, trunc), var_i, var_j)
    _emit(str(out), as_json)


@cli.command("simple-poly")
@click.argument("p")
@click.option("--var", required=True, help="distinguished variable")
@click.option("--vars", "vars_spec", required=True,
              help="comma-separated variable names")
@json_opt
def simple_poly(p, var, vars_spec, as_json):
    """Square-free part (same zero set) in the distinguished variable."""
    vars = _parse_vars(vars_spec)
    _emit(str(simple_decompose(_uni(p, vars, var))), as_json)


@cli.command()
@click.argument("p")
@click.argument("q")
@click.option("--var", required=True, help="elimination variable")
@click.option("--vars", "vars_spec", required=True,
              help="comma-separated variable names")
@json_opt
def resultant(p, q, var, vars_spec, as_json):
    """Sylvester resultant eliminating the given variable."""
    vars = _parse_vars(vars_spec)
    _emit(str(sylvester_resultant(_uni(p, vars, var), _uni(q, vars, var))), as_json)


@cli.group()
def locus():
    """Candidate singular varieties."""


@locus.command("conv")
@click.argument("p")
@click.argument("pbar")
@click.option("--var", default="z1", show_default=True)
@click.option("--vars", "vars_spec", required=True,
              help="variables of P, comma-separated")
@click.option("--bar-vars", "bar_spec", required=True,
              help="variables of PBAR, comma-separated")
@json_opt
def locus_conv(p, pbar, var, vars_spec, bar_spec, as_json):
    """Convolution-type locus from a simple polynomial and endpoint branch."""
    P = _uni(p, _parse_vars(vars_spec), var)
    V = conv_locus(P, MultiPoly.from_string(pbar, _parse_vars(bar_spec)))
    _emit(V.serialize(), as_json)


@locus.command("hadamard1d")
@click.option("--sf", default="", help="comma-separated singular points of f")
@click.option("--sg", default="", help="comma-separated singular points of g")
@json_opt
def locus_hadamard1d(sf, sg, as_json):
    """Univariate Hadamard locus {0} plus the product set."""
    S_f = [as_rat(s.strip()) for s in sf.split(",") if s.strip()]
    S_g = [as_rat(s.strip()) for s in sg.split(",") if s.strip()]
    _emit(hadamard_locus_1d(S_f, S_g).serialize(), as_json)


@locus.command("hadamard")
@click.argument("pf")
@click.argument("qg")
@json_opt
def locus_hadamard(pf, qg, as_json):
    """Five-variable Hadamard locus; PF over (xi1,q,p) simple in p, QG over
    (xi2,q,p) simple in q."""
    Pf = _uni(pf, VariableSet(("xi1", "q", "p")), "p")
    Qg = _uni(qg, VariableSet(("xi2", "q", "p")), "q")
    _emit(hadamard_locus_5var(Pf, Qg).serialize(), as_json)


@locus.command("odot")
@click.argument("p")
@click.option("--i", "var_i", required=True)
@click.option("--j", "var_j", required=True)
@click.option("--vars", "vars_spec", required=True,
              help="comma-separated variable names")
@json_opt
def locus_odot(p, var_i, var_j, vars_spec, as_json):
    """Diagonal-pairing locus."""
    P = MultiPoly.from_string(p, _parse_vars(vars_spec))
    _emit(odot_locus(P, var_i, var_j).serialize(), as_json)


@cli.command()
@click.argument("suite", type=click.Choice(["examples", "integral-reps", "radius"]))
@click.option("--seed", default=suites.DEFAULT_SEED, show_default=True,
              help="seed for the randomized suites")
@json_opt
def verify(suite, seed, as_json):
    """Run a packaged verification suite; exits 2 on failure."""
    if suite == "examples":
        ok, lines = suites.examples_suite()
    elif suite == "integral-reps":
        ok, lines = suites.integral_reps_suite(seed)
    else:
        ok, lines = suites.radius_suite(seed)
    if as_json:
        click.echo(json.dumps({"suite": suite, "ok": ok, "report": lines}), file=sys.stdout)
    else:
        for line in lines:
            click.echo(line, file=sys.stdout)
        click.echo(f"{suite}: {'OK' if ok else 'FAILED'}", file=sys.stdout)
    if not ok:
        raise SystemExit(2)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code or 0
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", file=sys.stderr)
        return 1
    except StarBorelError as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        return 1
    except click.exceptions.Abort:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end, on the standard library's argparse.

Every command takes --help.  Exit codes: 0 success, 1 usage or parse error
(reported as ``error: <message>`` on stderr), 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import suites
from .borel import borel as borel_fn
from .borel import borel_star, borel_T, hadamard as hadamard_fn
from .borel import inverse_borel, odot_ij
from .errors import StarBorelError
from .locus import conv_locus, hadamard_locus_1d, hadamard_locus_5var, odot_locus
from .poly import MultiPoly, UniOverPoly, simple_decompose, sylvester_resultant
from .series import FormalSeries, Truncation, VariableSet, as_rat
from .star import StarKind, star as star_fn, transition_T


class _UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises a usage error where argparse would exit."""

    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, as_json: bool):
    # flushed here, so that a closed stdout raises inside main()
    print(json.dumps({"result": text}) if as_json else text, file=sys.stdout, flush=True)


def _parse_vars(spec: str) -> VariableSet:
    return VariableSet(tuple(n.strip() for n in spec.split(",") if n.strip()), dof=0)


def _uni(text: str, vars: VariableSet, var: str) -> UniOverPoly:
    """Parse a polynomial and read it in its distinguished variable."""
    return UniOverPoly.from_multipoly(MultiPoly.from_string(text, vars), var)


def _series(plane: str, args, *texts) -> list:
    """Parse series over the phase space in ``plane`` (t or xi), as --dof and the window say."""
    vars = VariableSet.phase_space(args.dof, plane)
    trunc = Truncation(args.trunc_t, args.trunc_xy)
    return [FormalSeries.from_string(text, vars, trunc) for text in texts]


def _star(args):
    """Star product of two t-plane series."""
    _emit(str(star_fn(*_series("t", args, args.f, args.g), StarKind(args.kind))), args.json)


def _borel(args):
    """Borel transform t^n -> xi^n/n! of a t-plane series."""
    _emit(str(borel_fn(*_series("t", args, args.f))), args.json)


def _unborel(args):
    """Inverse Borel transform xi^n -> n! t^n."""
    _emit(str(inverse_borel(*_series("xi", args, args.fhat))), args.json)


def _borel_star(args):
    """Borel-plane star product of two xi-plane series."""
    fhat, ghat = _series("xi", args, args.fhat, args.ghat)
    _emit(str(borel_star(fhat, ghat, StarKind(args.kind))), args.json)


def _transition(args):
    """Transition operator between the standard and Moyal products."""
    plane, op = ("xi", borel_T) if args.borel_plane else ("t", transition_T)
    a, = _series(plane, args, args.f)
    _emit(str(op(a, inverse=args.inverse)), args.json)


def _hadamard(args):
    """Coefficientwise (Hadamard) product of univariate xi-series."""
    vars, trunc = VariableSet(("xi",)), Truncation(args.trunc_t, 0)
    phi, psi = (FormalSeries.from_string(text, vars, trunc) for text in (args.phi, args.psi))
    _emit(str(hadamard_fn(phi, psi)), args.json)


def _odot(args):
    """Diagonal pairing in two variables; prepends a fresh xi."""
    f = FormalSeries.from_string(args.f, _parse_vars(args.vars),
                                 Truncation(args.trunc_t, args.trunc_xy))
    _emit(str(odot_ij(f, args.i, args.j)), args.json)


def _simple_poly(args):
    """Square-free part (same zero set) in the distinguished variable."""
    _emit(str(simple_decompose(_uni(args.p, _parse_vars(args.vars), args.var))), args.json)


def _resultant(args):
    """Sylvester resultant eliminating the given variable."""
    P, Q = (_uni(text, _parse_vars(args.vars), args.var) for text in (args.p, args.q))
    _emit(str(sylvester_resultant(P, Q)), args.json)


def _locus_conv(args):
    """Convolution-type locus from a simple polynomial and endpoint branch."""
    P = _uni(args.p, _parse_vars(args.vars), args.var)
    V = conv_locus(P, MultiPoly.from_string(args.pbar, _parse_vars(args.bar_vars)))
    _emit(V.serialize(), args.json)


def _locus_hadamard1d(args):
    """Univariate Hadamard locus {0} plus the product set."""
    S_f = [as_rat(s.strip()) for s in args.sf.split(",") if s.strip()]
    S_g = [as_rat(s.strip()) for s in args.sg.split(",") if s.strip()]
    _emit(hadamard_locus_1d(S_f, S_g).serialize(), args.json)


def _locus_hadamard(args):
    """Five-variable Hadamard locus; PF over (xi1,q,p) simple in p, QG over
    (xi2,q,p) simple in q."""
    Pf = _uni(args.pf, VariableSet(("xi1", "q", "p")), "p")
    Qg = _uni(args.qg, VariableSet(("xi2", "q", "p")), "q")
    _emit(hadamard_locus_5var(Pf, Qg).serialize(), args.json)


def _locus_odot(args):
    """Diagonal-pairing locus."""
    P = MultiPoly.from_string(args.p, _parse_vars(args.vars))
    _emit(odot_locus(P, args.i, args.j).serialize(), args.json)


def _verify(args):
    """Run a packaged verification suite; exits 2 on failure."""
    if args.suite == "examples":
        ok, lines = suites.examples_suite()
    elif args.suite == "integral-reps":
        ok, lines = suites.integral_reps_suite(args.seed)
    else:
        ok, lines = suites.radius_suite(args.seed)
    if args.json:
        lines = [json.dumps({"suite": args.suite, "ok": ok, "report": lines})]
    else:
        lines = [*lines, f"{args.suite}: {'OK' if ok else 'FAILED'}"]
    print(*lines, sep="\n", file=sys.stdout, flush=True)
    return None if ok else 2


# add_argument keywords of the options that several commands share
_SHARED = {
    "--kind": dict(choices=["standard", "moyal"], default="standard", help="[default: standard]"),
    "--dof": dict(type=int, default=1, help="number of (q, p) pairs [default: 1]"),
    "--trunc-t": dict(type=int, default=8,
                      help="degree cap for the distinguished variable [default: 8]"),
    "--trunc-xy": dict(type=int, default=8,
                       help="joint degree cap for the remaining variables [default: 8]"),
    "--vars": dict(required=True, help="comma-separated variable names"),
}
_SERIES = ("--dof", "--trunc-t", "--trunc-xy")


def _command(commands, name, run, *args):
    """Add the command ``name``, described by the docstring of ``run``, which it
    calls; returns its ``add_argument``, for the options of its own."""
    sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
    sub.set_defaults(run=run)
    for arg in args:  # a positional, or an option in _SHARED
        sub.add_argument(arg, **_SHARED.get(arg, {"metavar": arg.upper()}))
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    return sub.add_argument


def _build_parser() -> _Parser:
    parser = _Parser(prog="starborel", allow_abbrev=False, description="Exact star products, "
                     "Borel-plane counterparts, singular loci, and numeric verification.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    _command(commands, "star", _star, "f", "g", "--kind", *_SERIES)
    _command(commands, "borel", _borel, "f", *_SERIES)
    _command(commands, "unborel", _unborel, "fhat", *_SERIES)
    _command(commands, "borel-star", _borel_star, "fhat", "ghat", "--kind", *_SERIES)
    add = _command(commands, "transition", _transition, "f", *_SERIES)
    add("--inverse", action="store_true", help="apply the inverse operator")
    add("--borel-plane", action="store_true", help="treat the input as a xi-plane series")
    _command(commands, "hadamard", _hadamard, "phi", "psi", "--trunc-t")
    add = _command(commands, "odot", _odot, "f", "--trunc-t", "--trunc-xy")
    add("--i", required=True, help="first pairing variable")
    add("--j", required=True, help="second pairing variable")
    add("--vars", required=True, help="comma-separated variable names, distinguished first")
    add = _command(commands, "simple-poly", _simple_poly, "p", "--vars")
    add("--var", required=True, help="distinguished variable")
    add = _command(commands, "resultant", _resultant, "p", "q", "--vars")
    add("--var", required=True, help="elimination variable")
    add = _command(commands, "verify", _verify)
    add("suite", choices=["examples", "integral-reps", "radius"])
    add("--seed", type=int, default=suites.DEFAULT_SEED,
        help=f"seed for the randomized suites [default: {suites.DEFAULT_SEED}]")

    loci = commands.add_parser("locus", help="Candidate singular varieties.",
                               description="Candidate singular varieties.", allow_abbrev=False)
    loci = loci.add_subparsers(metavar="COMMAND", required=True)
    add = _command(loci, "conv", _locus_conv, "p", "pbar")
    add("--var", default="z1", help="[default: z1]")
    add("--vars", required=True, help="variables of P, comma-separated")
    add("--bar-vars", required=True, help="variables of PBAR, comma-separated")
    add = _command(loci, "hadamard1d", _locus_hadamard1d)
    add("--sf", default="", help="comma-separated singular points of f")
    add("--sg", default="", help="comma-separated singular points of g")
    _command(loci, "hadamard", _locus_hadamard, "pf", "qg")
    add = _command(loci, "odot", _locus_odot, "p", "--vars")
    add("--i", required=True)
    add("--j", required=True)
    return parser


_PARSER = _build_parser()


def _attach_values(argv) -> list:
    """Attach the values of --sf and --sg (``--sf=-1,2``): argparse reads an
    option value that starts with "-" only in that form."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--sf", "--sg"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    """Run one command line (by default ``sys.argv[1:]``) and return its exit code."""
    try:
        args = _PARSER.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
        return args.run(args) or 0
    except (_UsageError, StarBorelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyboardInterrupt, EOFError):
        print(file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone: the flush at exit writes to nowhere instead
        sys.stdout = open(os.devnull, "w")
        return 1
    except SystemExit as exc:  # --help
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

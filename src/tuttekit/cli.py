"""Command-line front end.

Verbs: tutte, char, coboundary, invariants, poset, family, arith, toric,
multivariate, check.  Output is deterministic: polynomials print in graded
lexicographic order, highest term first.  Exit code 1 signals a parse or
input-format problem, 2 a computation error (bad prime, non-central query,
exceeded budget, bad family parameters, a method that does not apply, or
running out of memory); either prints a one-line machine-readable `error:`
record.  Without `--method`, `tutte`, `coboundary` and `invariants` use the
subset expansion when the bound on its walk's charge, sum_{k <= r+1} C(m, k)
over the m non-loops of rank r, is at most 2^10, which every arrangement of
at most 10 hyperplanes meets, and the flat-lattice coboundary above that;
`invariants` reads every value off the one Tutte polynomial that engine
gives.
"""

import argparse
import functools
import json
import os
import sys

from . import families
from .arithmetic import (
    VectorConfig,
    arithmetic_char_poly,
    arithmetic_tutte,
    multivariate_tutte,
    toric_point_profile,
    zonotope_evaluations,
)
from .arrangement import Arrangement
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ConsistencyError,
    InputFormatError,
    TuttekitError,
)
from .finite_field import coboundary_ffm, point_profile, select_primes
from .poset import intersection_poset
from .tutte import (
    TutteResult,
    char_poly,
    coboundary_transform,
    scalar_invariants,
    subset_first,
    tutte_activity,
    tutte_delcon,
    tutte_from_coboundary,
    tutte_subset,
    validate_chi_shape,
    whitney_char,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print("error: parse: %s" % message, file=sys.stderr)
        raise SystemExit(1)


def _budget(flag):
    """The work budget: --budget when given, else TUTTEKIT_BUDGET when set
    and not empty, else DEFAULT_BUDGET; a negative one is an input-format
    error."""
    budget, source = flag, "--budget"
    if flag is None:
        source = "TUTTEKIT_BUDGET"
        env = os.environ.get(source)
        if not env:
            return DEFAULT_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise InputFormatError("TUTTEKIT_BUDGET must be an integer, got %r" % env)
    if budget < 0:
        raise InputFormatError("%s must be >= 0, got %d" % (source, budget))
    return budget


def _read(path):
    try:
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError("cannot read %s: %s" % (path, exc))


def _load_arrangement(path):
    return Arrangement.from_json(_read(path))


def _load_config(path):
    return VectorConfig.from_text(_read(path))


def _load_edges(path):
    edges = []
    for line in _read(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            i, j = map(int, line.split())
        except ValueError:
            raise InputFormatError("graph line must be 'i j': %r" % line)
        edges.append((i, j))
    return edges


def _emit_poly(poly, args, extra=None):
    if args.format == "latex":
        print(poly.to_latex())
    elif args.format == "structured":
        record = {"polynomial": poly.term_list(), "text": poly.format()}
        if extra:
            record.update(extra)
        print(json.dumps(record, sort_keys=True))
    else:
        print(poly.format())


def _emit_record(record, args):
    """A record of named values: JSON when structured, else `key = value`
    lines in key order."""
    if args.format == "structured":
        print(json.dumps(record, sort_keys=True))
    else:
        for key in sorted(record):
            print("%s = %s" % (key, record[key]))


def _method(arr, args):
    """The engine to run: `auto` is subset when the bound on its walk's
    charge, known before it runs, is at most 2^10 (`tutte.subset_first`),
    else the flat lattice."""
    if args.method == "auto":
        return "subset" if subset_first(arr) else "lattice"
    return args.method


def _tutte_by_method(arr, args):
    method = _method(arr, args)
    if method == "subset":
        return tutte_subset(arr, budget=args.budget)
    if method == "delcon":
        return tutte_delcon(arr, budget=args.budget)
    if method == "activity":
        return tutte_activity(arr, budget=args.budget)[0]
    if method in ("finite-field", "lattice"):
        r = arr.rank
        tut = tutte_from_coboundary(_coboundary(arr, args, method), r)
        return TutteResult(tut, r, arr.n, method)
    raise InputFormatError("unknown method %r" % method)


def _coboundary(arr, args, method):
    """Coboundary polynomial by the finite field method or the flat lattice."""
    if method == "lattice":
        return intersection_poset(arr, budget=args.budget).coboundary()
    primes = None
    if args.primes != "auto":
        try:
            primes = [int(p) for p in args.primes.split(",")]
        except ValueError:
            raise InputFormatError("--primes must be 'auto' or comma-separated "
                                   "integers, got %r" % args.primes)
        repeated = next((p for i, p in enumerate(primes) if p in primes[:i]), None)
        if repeated is not None:
            raise InputFormatError("--primes lists %d more than once" % repeated)
    return coboundary_ffm(arr, primes=primes, budget=args.budget)


def _add_output_flags(p):
    p.add_argument("--format", choices=["text", "structured", "latex"],
                   default="text")


def _add_method_flags(p):
    p.add_argument("--method",
                   choices=["auto", "subset", "delcon", "activity",
                            "finite-field"], default="auto")
    p.add_argument("--primes", default="auto",
                   help="'auto' or comma-separated primes for finite-field")
    p.add_argument("--budget", type=int, default=None)


def build_parser():
    """(the parser, its `family` subparser): main parses a `family` command
    line with the subparser, so that its flags and words may mix."""
    top = _Parser(prog="tuttekit",
                  description="Tutte polynomials of hyperplane arrangements")
    sub = top.add_subparsers(dest="verb", required=True)

    for verb in ("tutte", "char", "coboundary", "invariants", "poset",
                 "multivariate", "check"):
        p = sub.add_parser(verb, parents=[], add_help=True)
        p.add_argument("--input", required=True)
        _add_method_flags(p)
        _add_output_flags(p)

    family = p = sub.add_parser("family")
    p.add_argument("tag")
    p.add_argument("action", nargs="?", default="char",
                   choices=["tutte", "char", "coboundary", "invariants",
                            "poset", "multivariate", "check"])
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--k", type=int, help="thicken: replace each hyperplane by k copies")
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--graph", help="edge file, one 'i j' per line, 1-indexed")
    _add_method_flags(p)
    _add_output_flags(p)
    # parse_intermixed_args formats the usage text on every call unless it
    # is set, at several times the cost of the parse: set it once, to the
    # text that it would format
    p.usage = p.format_usage().removeprefix("usage: ")

    p = sub.add_parser("arith")
    p.add_argument("action", choices=["tutte", "zonotope", "toric", "char"])
    p.add_argument("--input", required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--budget", type=int, default=None)
    _add_output_flags(p)

    p = sub.add_parser("toric")
    p.add_argument("--input", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(action="toric")
    _add_output_flags(p)

    return top, family


@functools.cache
def _parser():
    """`build_parser()`, built on the first call and reused by later ones;
    a parse leaves it unchanged, and building it costs some 30 parses."""
    return build_parser()


def _run_action(action, arr, args):
    if action == "tutte":
        result = _tutte_by_method(arr, args)
        _emit_poly(result.tutte, args,
                   {"method": result.engine, "rank": result.rank,
                    "n": result.n_hyperplanes, "dim": arr.dim})
    elif action == "char":
        chi = char_poly(arr, budget=args.budget)
        _emit_poly(chi, args, {"rank": arr.rank, "n": arr.n, "dim": arr.dim})
    elif action == "coboundary":
        method = _method(arr, args)
        if method in ("finite-field", "lattice"):
            cob = _coboundary(arr, args, method)
        else:
            cob = coboundary_transform(_tutte_by_method(arr, args).tutte, arr.rank)
        _emit_poly(cob, args, {"rank": arr.rank, "n": arr.n, "dim": arr.dim})
    elif action == "invariants":
        inv = scalar_invariants(arr, _tutte_by_method(arr, args).tutte)
        _emit_record({
            "regions": str(inv["regions"]),
            "bounded_regions": str(inv["bounded_regions"]),
            "poincare": inv["poincare"].format(),
            "complement_size": inv["complement_size"].format(),
            "general_position_bounded": str(inv["general_position_bounded"]),
            "beta": None if inv["beta"] is None else str(inv["beta"]),
        }, args)
    elif action == "poset":
        poset = intersection_poset(arr, budget=args.budget)
        poset.verify_mobius()
        rows = [{"hyperplanes": hyperplanes, "rank": rank, "dim": arr.dim - rank,
                 "mobius": mu} for hyperplanes, rank, mu in poset.table()]
        if args.format == "structured":
            print(json.dumps(rows))
        else:
            for row in rows:
                print("rank=%d dim=%d mu=%d hyperplanes=%s" % (
                    row["rank"], row["dim"], row["mobius"], row["hyperplanes"]))
    elif action == "multivariate":
        mv = multivariate_tutte(arr, budget=args.budget)
        _emit_poly(mv.poly, args, {"rank": mv.rank, "n": mv.n})
    elif action == "check":
        _run_check(arr, args)
    else:
        raise InputFormatError("unknown action %r" % action)


def _run_check(arr, args):
    """Cross-engine and identity consistency report; exits 2 on any failure."""
    failures = []

    def report(name, ok):
        print("%s %s" % ("ok  " if ok else "FAIL", name))
        if not ok:
            failures.append(name)

    budget = args.budget
    t_sub = tutte_subset(arr, budget=budget).tutte

    def agrees(name, engine):
        try:
            report(name, engine().tutte == t_sub)
        except BudgetExceededError as exc:
            report("%s (%s)" % (name, exc.code), False)

    agrees("engine-agreement subset/delcon", lambda: tutte_delcon(arr, budget=budget))
    agrees("engine-agreement subset/activity",
           lambda: tutte_activity(arr, budget=budget)[0])
    cob = coboundary_transform(t_sub, arr.rank)
    try:
        poset = intersection_poset(arr, budget=budget)
    except BudgetExceededError as exc:
        # the two checks that read the lattice are skipped
        report("engine-agreement subset/lattice (%s)" % exc.code, False)
        chi = whitney_char(arr, tutte=t_sub)
    else:
        report("engine-agreement subset/lattice", poset.coboundary() == cob)
        try:
            poset.verify_mobius()
            report("mobius-recursion", True)
        except ConsistencyError:
            report("mobius-recursion", False)
        chi = poset.char_poly()
        report("whitney-theorem", chi == whitney_char(arr, tutte=t_sub))
    shape = validate_chi_shape(chi)
    report("chi-sign-and-logconcavity", shape["ok"])
    report("coboundary-roundtrip",
           tutte_from_coboundary(cob, arr.rank) == t_sub)
    if arr.prime is None:
        try:
            mods = select_primes(arr, 1, budget=budget)
            profile = point_profile(mods[0], budget=budget)
            p, lift = mods[0].prime, profile.lift
            # compared before the lift, as `check_profile` does
            report("profile-sums-to-p^d",
                   sum(profile.quotient) == p ** (arr.dim - lift))
            report("profile-t0-slice",
                   profile.quotient[0] * p ** lift == chi.evaluate({"q": p}))
        except TuttekitError as exc:
            report("finite-field-profile (%s)" % exc.code, False)
    if failures:
        raise SystemExit(2)


def _family_arrangement(args):
    edges = None
    if args.tag == "graphical":
        if not args.graph:
            raise InputFormatError("graphical family needs --graph edges.txt")
        edges = _load_edges(args.graph)
    arr = families.build_family(args.tag, n=args.n, p=args.p, d=args.d,
                                m=args.m, edges=edges, budget=args.budget)
    if args.k is not None:
        arr = families.thicken(arr, args.k, args.budget)
    return arr


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    top, family = _parser()
    if argv and argv[0] == "family":
        # its action word may come after the flags: `family braid --n 3 char`
        args = family.parse_intermixed_args(argv[1:],
                                            argparse.Namespace(verb="family"))
    else:
        args = top.parse_args(argv)
    try:
        args.budget = _budget(args.budget)
        if args.verb == "family":
            arr = _family_arrangement(args)
            _run_action(args.action, arr, args)
        elif args.verb in ("arith", "toric"):
            config = _load_config(args.input)
            if args.action == "tutte":
                _emit_poly(arithmetic_tutte(config, args.budget), args,
                           {"rank": config.rank, "n": config.n})
            elif args.action == "char":
                _emit_poly(arithmetic_char_poly(config, budget=args.budget), args)
            elif args.action == "zonotope":
                z = zonotope_evaluations(config, budget=args.budget)
                _emit_record({"volume": str(z["volume"]),
                              "lattice_points": str(z["lattice_points"]),
                              "interior_points": str(z["interior_points"]),
                              "ehrhart": z["ehrhart"].format()}, args)
            else:
                if args.q is None:
                    raise InputFormatError("toric point count needs --q")
                prof = toric_point_profile(config, args.q, budget=args.budget)
                _emit_poly(prof["polynomial"], args,
                           {"q": args.q, "counts": list(prof["counts"])})
        else:
            arr = _load_arrangement(args.input)
            _run_action(args.verb, arr, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered to
        # devnull, so that flushing at exit reports nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputFormatError as exc:
        print("error: %s: %s" % (exc.code, exc), file=sys.stderr)
        return 1
    except TuttekitError as exc:
        print("error: %s: %s" % (exc.code, exc), file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out-of-memory: %s" % (str(exc) or "the computation ran out of memory"),
              file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code or 0
    return 0


if __name__ == "__main__":
    sys.exit(main())

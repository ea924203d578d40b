"""Command line front end.

Exit codes: 0 success, 1 domain error, 2 input parse error.

Each command imports the modules it runs in its own branch, so a process
loads only those, besides this module, `errors` and `quiver`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import InputParseError, StringCharError
from .quiver import BoundIceQuiver, Walk, string_module


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stringchar",
        description="Laurent polynomials, cluster characters and mutation "
                    "checks for strings in bound quivers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, walk=False, string=False, extra=()):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("quiverfile", help="quiver description file")
        if walk:
            p.add_argument("--walk", required=True,
                           help="walk expression, e.g. 'alpha beta^-1' or "
                                "'e(1)'")
        if string:
            p.add_argument("--string", required=True,
                           help="string expression (a walk that is a string)")
        for args, kwargs in extra:
            p.add_argument(*args, **kwargs)
        return p

    json_flag = (("--json",), {"action": "store_true",
                               "help": "emit JSON instead of canonical text"})
    add("lpoly", "matrix-product Laurent polynomial of a walk",
        walk=True, extra=[json_flag])
    add("lcount", "integer matrix-product count of a walk", walk=True)
    add("character", "cluster character of a string module",
        string=True, extra=[json_flag])
    add("chi", "submodule count(s) of a string module", string=True,
        extra=[(("--dimvec",),
                {"help": "dimension vector as v=d,v=d,...; omit for the "
                         "total count"})])
    add("normalise", "normalising vector of a string module", string=True)
    add("euler", "truncated and anti-symmetrised Euler forms of two strings",
        extra=[(("--lhs",), {"required": True, "help": "first string"}),
               (("--rhs",), {"required": True, "help": "second string"})])
    add("enumerate", "enumerate cluster variables by seed mutation",
        extra=[(("--depth",), {"type": int, "required": True}), json_flag])
    add("match", "search the enumerated cluster variables for the character "
        "of a string", string=True,
        extra=[(("--depth",), {"type": int, "required": True})])
    add("verify", "sweep all strings and check character * x^n == L",
        extra=[(("--max-length",), {"type": int, "required": True})])
    return parser


def _parse_dimvec(q, text):
    dims = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise InputParseError(
                f"dimension vector entry {piece!r} is not of the form v=d")
        v, _, d = piece.partition("=")
        v = v.strip()
        try:
            n = int(d)
        except ValueError:
            raise InputParseError(
                f"dimension {d!r} for vertex {v!r} is not an "
                "integer") from None
        if v not in q.vertex_set:
            raise InputParseError(f"{v!r} in the dimension vector is not a "
                                  "vertex of the quiver")
        if v in dims:
            raise InputParseError(
                f"vertex {v!r} appears twice in the dimension vector")
        if n < 0:
            raise InputParseError(f"dimension {n} for vertex {v!r} is "
                                  "negative")
        dims[v] = n
    return dims


def _nonnegative(option, value):
    if value < 0:
        raise InputParseError(f"{option} must be nonnegative, got {value}")
    return value


def _emit_poly(f, as_json):
    print(f.to_json() if as_json else f.text())


def _run(args):
    q = BoundIceQuiver.from_file(args.quiverfile)
    if args.command == "lpoly":
        from . import formula
        c = Walk.parse(q, args.walk)
        _emit_poly(formula.walk_laurent(q, c), args.json)
    elif args.command == "lcount":
        from . import formula
        c = Walk.parse(q, args.walk)
        print(formula.walk_count(c))
    elif args.command == "character":
        from . import character
        c = Walk.parse(q, args.string)
        _emit_poly(character.cluster_character(q, c), args.json)
    elif args.command == "chi":
        from . import character
        c = Walk.parse(q, args.string)
        if args.dimvec is None:
            print(character.total_gr_euler(c))
        else:
            print(character.gr_euler(c, _parse_dimvec(q, args.dimvec)))
    elif args.command == "normalise":
        from . import homalg
        c = Walk.parse(q, args.string)
        vector = homalg.normalisation_vector(q, c)
        print(json.dumps(dict(sorted(vector.items()))))
    elif args.command == "euler":
        from . import homalg
        lhs = string_module(q, Walk.parse(q, args.lhs))
        rhs = string_module(q, Walk.parse(q, args.rhs))
        truncated, anti = homalg.euler_forms(q, lhs, rhs)
        print(json.dumps({"truncated": truncated,
                          "antisymmetrised": anti}))
    elif args.command == "enumerate":
        from . import mutation
        depth = _nonnegative("--depth", args.depth)
        seed = mutation.seed_from_ice_quiver(q)
        variables = mutation.enumerate_cluster_variables(seed, depth)
        if args.json:
            print("[" + ", ".join(f.to_json() for f in variables) + "]")
        else:
            for f in variables:
                print(f.text())
    elif args.command == "match":
        from . import character, mutation
        depth = _nonnegative("--depth", args.depth)
        c = Walk.parse(q, args.string)
        f = character.cluster_character(q, c)
        seed = mutation.seed_from_ice_quiver(q)
        if mutation.match_character(seed, f, depth):
            print("found")
        else:
            print("not-found")
    elif args.command == "verify":
        return _verify(q, _nonnegative("--max-length", args.max_length))
    return 0


def _verify(q, max_length):
    from .sweep import sweep
    failures = 0
    for swept in sweep(q, max_length):
        status = "PASS" if swept.holds else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status}  {swept.string}")
    print(f"{'OK' if not failures else 'FAILED'}: {failures} failure(s)")
    return 1 if failures else 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except InputParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except StringCharError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

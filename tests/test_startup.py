"""What a cold process loads, and the public names of the package.

This module imports nothing at its top beyond `os` and `sys`, so that a
fresh interpreter that runs one of its functions starts with no module of
stringchar or of the test runner loaded."""

import os
import sys

A4DEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "fixtures", "a4dec.quiver")

# the 57 names and 8 submodules that the package lists
PUBLIC = [
    "Arrow", "BoundIceQuiver", "ExponentOverflow", "InputParseError",
    "InvalidStringError", "K0IllDefined", "LaurentPoly", "Mat2",
    "NotDivisible", "NotInvertible", "NotSubtractionFree", "PathBasis",
    "PathLimitExceeded", "QuiverError", "Representation", "Seed", "Step",
    "StringCharError", "StringDiagram", "UnfrozenViolation", "Walk",
    "Winding", "blow_up", "character", "check_identity",
    "cluster_character", "coefficient_monomial", "ensure_string",
    "enumerate_cluster_variables", "enumerate_strings", "errors",
    "euler_forms", "exactmat", "ext1_dim", "formula", "frieze_entry",
    "gr_euler", "hom_dim", "homalg", "is_rigid", "is_valid_string",
    "laurent", "match_character", "mutate", "mutation",
    "normalisation_vector", "pp_character", "pp_variable_map",
    "principal_extension", "quiver", "seed_from_ice_quiver", "separate",
    "simple", "simple_pairings", "step_matrix", "string_module",
    "total_gr_euler", "validate_string", "vertex_matrix", "w_monomial",
    "walk_count", "walk_denominator", "walk_laurent", "walk_matrix",
    "walk_numerator",
]

# names the package listed until their functions, which only tests run,
# moved to tests/oracles.py
MOVED = [
    "closure_and_border", "direct_sum", "hereditary_euler",
    "numerator_normalisation", "projective", "pushforward",
]


def test_a_command_loads_only_the_modules_it_runs():
    from conftest import run_in_fresh_interpreter
    run_in_fresh_interpreter(_cold_start)


def _cold_start():
    # what the standard library loads for the CLI's own argparse and json
    # is not the package's to shed
    import argparse  # noqa: F401
    import json  # noqa: F401
    before = set(sys.modules)
    import stringchar.cli
    from stringchar.quiver import BoundIceQuiver
    BoundIceQuiver.from_file(A4DEC)
    added = set(sys.modules) - before
    assert not added & {"dataclasses", "fractions", "decimal", "inspect"}
    assert sorted(name for name in added if name.startswith("stringchar")) \
        == ["stringchar", "stringchar.cli", "stringchar.errors",
            "stringchar.quiver"]

    assert stringchar.cli.main(["enumerate", A4DEC, "--depth", "3"]) == 0
    assert not sys.modules.keys() & {
        "fractions", "stringchar.homalg", "stringchar.exactmat",
        "stringchar.character", "stringchar.formula", "stringchar.sweep"}

    # the string commands do no linear algebra, so no Fraction either
    for argv in (["verify", A4DEC, "--max-length", "2"],
                 ["character", A4DEC, "--string", "a1 a2^-1"],
                 ["chi", A4DEC, "--string", "a1 a2^-1"],
                 ["normalise", A4DEC, "--string", "a1 a2^-1"],
                 ["lpoly", A4DEC, "--walk", "a1 a2^-1"],
                 ["lcount", A4DEC, "--walk", "a1 a2^-1"]):
        assert stringchar.cli.main(argv) == 0, argv
        assert not sys.modules.keys() & {"fractions", "decimal"}, argv
    # euler runs the generic engine, whose elimination divides
    assert stringchar.cli.main(
        ["euler", A4DEC, "--lhs", "a1", "--rhs", "a1 a2^-1"]) == 0
    assert "fractions" in sys.modules

    assert stringchar.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(stringchar))
    namespace = {}
    exec("from stringchar import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(stringchar, name), name
    for name in ["no_such_name", *MOVED]:
        try:
            getattr(stringchar, name)
        except AttributeError as exc:
            assert f"{name!r}" in str(exc), exc
        else:
            raise AssertionError(f"stringchar.{name} did not raise")

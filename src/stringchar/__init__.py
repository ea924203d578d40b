"""Laurent polynomials, cluster characters and mutation checks for strings
in bound quivers with frozen vertices.

Each public name is imported from its home module on first access
(PEP 562), so a process loads only the modules it uses: `import
stringchar.cli` and a quiver parse load `errors`, `quiver` and `cli`."""

import importlib

_HOMES = {
    "errors": (
        "ExponentOverflow",
        "InputParseError",
        "InvalidStringError",
        "K0IllDefined",
        "NotDivisible",
        "NotInvertible",
        "NotSubtractionFree",
        "PathLimitExceeded",
        "QuiverError",
        "StringCharError",
        "UnfrozenViolation",
    ),
    "laurent": ("LaurentPoly", "Mat2"),
    "quiver": (
        "Arrow",
        "BoundIceQuiver",
        "Representation",
        "Step",
        "Walk",
        "Winding",
        "blow_up",
        "ensure_string",
        "enumerate_strings",
        "is_valid_string",
        "principal_extension",
        "simple",
        "string_module",
        "validate_string",
    ),
    "formula": (
        "check_identity",
        "coefficient_monomial",
        "frieze_entry",
        "step_matrix",
        "vertex_matrix",
        "w_monomial",
        "walk_count",
        "walk_denominator",
        "walk_laurent",
        "walk_matrix",
        "walk_numerator",
    ),
    "homalg": (
        "PathBasis",
        "euler_forms",
        "ext1_dim",
        "hom_dim",
        "is_rigid",
        "normalisation_vector",
        "simple_pairings",
    ),
    "character": (
        "StringDiagram",
        "cluster_character",
        "gr_euler",
        "pp_character",
        "pp_variable_map",
        "separate",
        "total_gr_euler",
    ),
    "mutation": (
        "Seed",
        "enumerate_cluster_variables",
        "match_character",
        "mutate",
        "seed_from_ice_quiver",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
# the submodules are public too; exactmat is the one that exports no name
_SUBMODULES = (*_HOMES, "exactmat")

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read from the home module at each access, so the two never differ
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})

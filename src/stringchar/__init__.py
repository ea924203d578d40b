"""Laurent polynomials, cluster characters and mutation checks for strings
in bound quivers with frozen vertices."""

from .errors import (
    ExponentOverflow,
    InputParseError,
    InvalidStringError,
    K0IllDefined,
    NotDivisible,
    NotInvertible,
    NotSubtractionFree,
    PathLimitExceeded,
    QuiverError,
    StringCharError,
    UnfrozenViolation,
)
from .laurent import LaurentPoly, Mat2
from .quiver import (
    Arrow,
    BoundIceQuiver,
    Representation,
    Step,
    Walk,
    Winding,
    blow_up,
    closure_and_border,
    ensure_string,
    enumerate_strings,
    is_valid_string,
    principal_extension,
    pushforward,
    simple,
    string_module,
    validate_string,
)
from .formula import (
    check_identity,
    coefficient_monomial,
    frieze_entry,
    numerator_normalisation,
    step_matrix,
    vertex_matrix,
    w_monomial,
    walk_count,
    walk_denominator,
    walk_laurent,
    walk_matrix,
    walk_numerator,
)
from .homalg import (
    PathBasis,
    direct_sum,
    euler_forms,
    ext1_dim,
    hereditary_euler,
    hom_dim,
    is_rigid,
    normalisation_vector,
    projective,
    simple_pairings,
)
from .character import (
    StringDiagram,
    cluster_character,
    gr_euler,
    pp_character,
    pp_variable_map,
    separate,
    total_gr_euler,
)
from .mutation import (
    Seed,
    enumerate_cluster_variables,
    match_character,
    mutate,
    seed_from_ice_quiver,
)

__all__ = [name for name in dir() if not name.startswith("_")]

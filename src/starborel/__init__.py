"""Exact symbolic star products, Borel-plane counterparts, singular-locus
constructions, and numeric convergence checks."""

from .borel import (
    borel,
    borel_star,
    borel_star_standard_formula,
    borel_T,
    hadamard,
    inverse_borel,
    odot_ij,
)
from .errors import (
    AliasingError,
    BindingError,
    DegenerateError,
    NotSimpleError,
    OnVarietyError,
    ParseError,
    StarBorelError,
    UnknownVariableError,
    VariableMismatchError,
    WindowOverflowError,
)
from .integral import (
    eval_borel_star_rep,
    eval_formulahigh,
    eval_moyal_rep,
    eval_That_rep,
    hadamard_contour,
)
from .locus import (
    Leaf,
    Variety,
    conv_locus,
    hadamard_locus_1d,
    hadamard_locus_5var,
    odot_locus,
)
from .poly import (
    MultiPoly,
    UniOverPoly,
    content_primitive,
    discriminant_locus,
    gcd_over_fraction_field,
    is_simple,
    mp_divexact,
    mp_gcd,
    simple_decompose,
    sylvester_resultant,
)
from .series import FormalSeries, Truncation, VariableSet, as_rat
from .star import (
    MOYAL,
    STANDARD,
    StarKind,
    moyal_commutator,
    moyal_star,
    poisson_bracket,
    standard_star,
    star,
    transition_T,
)
from .verify import (
    RadiusReport,
    check_radius_vs_locus,
    euler_borel_coeffs,
    locus_distance_xi,
    logstar_borel_coeffs,
    quadrature_hadamard,
    radius_estimate,
)

__version__ = "1.0.0"

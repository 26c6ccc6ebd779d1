"""eisterm: constant terms of Eisenstein classes over real quadratic fields.

Exact arithmetic in Q(sqrt D), ray class groups and their characters,
Schwartz-Bruhat tables with an exact finite adelic Fourier transform,
Shintani-cone zeta oracles, Eisenstein lattice sums with rational
certification, and the horospherical map with its spherical projector.
"""

from .field import (
    FieldElement,
    FractionalIdeal,
    NumberField,
    construct_field,
    fundamental_unit,
    split_prime,
    totally_positive_unit,
    unit_subgroup_generator,
)
from .classfield import (
    FiniteAbelianGroup,
    GroupCharacter,
    HeckeCharacterData,
    RayClassGroup,
    all_characters,
    characters_with_sign,
    narrow_class_group,
    ray_class_group,
)
from .schwartz import (
    CyclotomicValue,
    FractionalSchwartz,
    TwistedSchwartz,
    act_group,
    fourier_transform,
    is_S0,
    parse_schwartz,
    serialize_schwartz,
    trace_pairing,
)
from .zeta import (
    ShintaniCone,
    bernoulli_poly,
    dedekind_zeta_neg,
    shintani_partial_zeta,
    siegel_sigma1,
    twisted_zeta_rank1,
)
from .eisenstein import (
    LatticeSumResult,
    RationalCertificate,
    TorusData,
    certify_rational,
    constant_term,
    constant_term_quadrature,
    eisenstein_value,
)
from .horospherical import (
    IndFunction,
    horospherical_map,
    kernel_coefficient,
    lambda_constant,
    preimage,
    psi_project,
    spherical_function,
)

__version__ = "1.0.0"

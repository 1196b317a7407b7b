"""Exact-arithmetic moduli of genus-0 tropical stable maps and curve counts.

The package builds the cone complex of tropical stable maps to a complete
simplicial fan, embeds it linearly as a fan, and computes toric genus-0
curve counts as degrees of evaluation maps via lattice-index
multiplicities.  All arithmetic is exact (arbitrary-precision integers and
rationals); nothing here touches floating point.
"""

from .counting import (
    CountProblem,
    CountResult,
    count,
    generate_constraints,
    kontsevich_oracle,
    mikhalkin_multiplicity,
    multiplicity,
)
from .exactmath import (
    IntMatrix,
    Rational,
    SmithDecomposition,
    integer_kernel,
    lattice_index,
    smith_normal_form,
    solve_rational,
)
from .maps import (
    CombinatorialType,
    DiscreteData,
    TropicalStableMap,
    ev_trop,
    subdivide,
    torically_transverse,
    validate,
)
from .moduli import (
    ConeComplex,
    EmbeddedFan,
    ModuliCone,
    assemble_complex,
    contains,
    face_types,
    gkm_embedding,
    moduli_cone,
)
from .polyhedral import (
    ExtendedPoint,
    Fan,
    extended_point,
    fan_product,
    fan_projective_space,
    locate,
    quotient_projection,
)

__all__ = [
    "CombinatorialType",
    "ConeComplex",
    "CountProblem",
    "CountResult",
    "DiscreteData",
    "EmbeddedFan",
    "ExtendedPoint",
    "Fan",
    "IntMatrix",
    "ModuliCone",
    "Rational",
    "SmithDecomposition",
    "TropicalStableMap",
    "assemble_complex",
    "contains",
    "count",
    "ev_trop",
    "extended_point",
    "face_types",
    "fan_product",
    "fan_projective_space",
    "generate_constraints",
    "gkm_embedding",
    "integer_kernel",
    "kontsevich_oracle",
    "lattice_index",
    "locate",
    "mikhalkin_multiplicity",
    "moduli_cone",
    "multiplicity",
    "quotient_projection",
    "smith_normal_form",
    "solve_rational",
    "subdivide",
    "torically_transverse",
    "validate",
]

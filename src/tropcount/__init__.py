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
)
from .exactmath import IntMatrix, Rational, integer_kernel
from .maps import (
    CombinatorialType,
    DiscreteData,
    TropicalStableMap,
    subdivide,
    torically_transverse,
    validate,
)
from .moduli import (
    ConeComplex,
    EmbeddedFan,
    ModuliCone,
    assemble_complex,
    face_types,
    gkm_embedding,
    moduli_cone,
)
from .polyhedral import (
    Fan,
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
    "Fan",
    "IntMatrix",
    "ModuliCone",
    "Rational",
    "TropicalStableMap",
    "assemble_complex",
    "count",
    "face_types",
    "fan_product",
    "fan_projective_space",
    "generate_constraints",
    "gkm_embedding",
    "integer_kernel",
    "kontsevich_oracle",
    "locate",
    "mikhalkin_multiplicity",
    "moduli_cone",
    "quotient_projection",
    "subdivide",
    "torically_transverse",
    "validate",
]

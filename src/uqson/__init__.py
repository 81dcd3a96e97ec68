"""q-deformed orthogonal enveloping algebra: normal forms, representations,
embeddings, and verification tools."""

from . import coeffring, djembed, errors, jsonio, reps
from .coeffring import LaurentPoly, RootOfUnity, qnumber
from .pbw import (
    MINUS,
    PLUS,
    AlgebraElement,
    bracket_generator,
    qcommutator,
    verify_commutation_relations,
    verify_defining_relations,
)
from .reps import ParamsOmega, Tableau, build_representation, random_generic_params

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "LaurentPoly",
    "MINUS",
    "PLUS",
    "ParamsOmega",
    "RootOfUnity",
    "Tableau",
    "__version__",
    "bracket_generator",
    "build_representation",
    "coeffring",
    "djembed",
    "errors",
    "jsonio",
    "qcommutator",
    "qnumber",
    "random_generic_params",
    "reps",
    "verify_commutation_relations",
    "verify_defining_relations",
]

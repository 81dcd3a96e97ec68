"""PBW normal-form arithmetic for the deformed orthogonal enveloping algebra."""

from ._rules import MINUS, PLUS, VARIANTS, MAX_RANK, check_rank, classify_pair, gen_pairs
from .algebra import AlgebraElement, bracket_generator, qcommutator
from .classical import classical_generator, verify_classical_limit
from .fuzz import associativity_fuzz, random_monomial
from .printing import element_to_str, generator_name
from .verify import (
    all_pass,
    commutation_relation_instances,
    defining_relation_instances,
    verify_commutation_relations,
    verify_defining_relations,
)

__all__ = [
    "AlgebraElement",
    "MAX_RANK",
    "MINUS",
    "PLUS",
    "VARIANTS",
    "all_pass",
    "associativity_fuzz",
    "bracket_generator",
    "check_rank",
    "classical_generator",
    "classify_pair",
    "commutation_relation_instances",
    "defining_relation_instances",
    "element_to_str",
    "gen_pairs",
    "generator_name",
    "qcommutator",
    "random_monomial",
    "verify_classical_limit",
    "verify_commutation_relations",
    "verify_defining_relations",
]

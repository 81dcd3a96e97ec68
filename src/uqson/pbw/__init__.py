"""PBW normal-form arithmetic for the deformed orthogonal enveloping algebra.

Every name is loaded on first access, so reading the variant names (`PLUS`,
`MINUS`) loads only the rule table, and the relation table
(`defining_relation_instances`, `defining_relation_residuals`) only that
and `_relations`, not the straightening kernel.
"""

from .._lazy import lazy_attributes

# submodule -> the public names it defines
_EXPORTS = {
    "_relations": ("defining_relation_instances", "defining_relation_residuals"),
    "_rules": ("MAX_RANK", "MINUS", "PLUS", "VARIANTS", "check_rank", "classify_pair",
               "gen_pairs"),
    "algebra": ("AlgebraElement", "bracket_generator", "qcommutator"),
    "classical": ("classical_generator", "verify_classical_limit"),
    "fuzz": ("associativity_fuzz", "random_monomial"),
    "printing": ("element_to_str", "generator_name"),
    "verify": ("all_pass", "verify_commutation_relations", "verify_defining_relations"),
}

__all__, __getattr__, __dir__ = lazy_attributes(globals(), _EXPORTS)

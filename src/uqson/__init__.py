"""q-deformed orthogonal enveloping algebra: normal forms, representations,
embeddings, and verification tools.

Every submodule and public name but `errors` and `__version__` is loaded on
first access (PEP 562), so `import uqson` loads no other uqson module than
`errors` and `_lazy`: neither numpy, nor the exact ring and `fractions`,
nor the PBW kernel. `RootOfUnity` resolves from `qnumeric`, without the
exact ring.
"""

from . import errors
from ._lazy import lazy_attributes

__version__ = "0.1.0"

# submodule -> the public names loaded from it on first access
_EXPORTS = {
    "coeffring": ("coeffring", "LaurentPoly", "qnumber"),
    "djembed": ("djembed",),
    "jsonio": ("jsonio",),
    "params": ("ParamsOmega", "random_generic_params"),
    "pbw": ("pbw", "AlgebraElement", "MINUS", "PLUS", "bracket_generator", "qcommutator",
            "verify_commutation_relations", "verify_defining_relations"),
    "qnumeric": ("RootOfUnity",),
    "reps": ("reps", "build_representation"),
}

__all__, __getattr__, __dir__ = lazy_attributes(
    globals(), _EXPORTS, eager=("__version__", "errors"),
)

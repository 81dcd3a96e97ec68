"""q-deformed orthogonal enveloping algebra: normal forms, representations,
embeddings, and verification tools.

The subpackage `pbw`, the modules `djembed`, `jsonio` and `reps`, and the
names they define are loaded on first access (PEP 562), so `import uqson`
loads neither numpy nor the PBW kernel.
"""

from . import coeffring, errors
from ._lazy import lazy_attributes
from .coeffring import LaurentPoly, RootOfUnity, qnumber

__version__ = "0.1.0"

# submodule -> the public names loaded from it on first access
_EXPORTS = {
    "djembed": ("djembed",),
    "jsonio": ("jsonio",),
    "params": ("ParamsOmega", "random_generic_params"),
    "pbw": ("pbw", "AlgebraElement", "MINUS", "PLUS", "bracket_generator", "qcommutator",
            "verify_commutation_relations", "verify_defining_relations"),
    "reps": ("reps", "build_representation"),
}

__all__, __getattr__, __dir__ = lazy_attributes(
    globals(), _EXPORTS,
    eager=("LaurentPoly", "RootOfUnity", "__version__", "coeffring", "errors", "qnumber"),
)

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

__all__ = [
    "AlgebraElement",
    "LaurentPoly",
    "MINUS",
    "PLUS",
    "ParamsOmega",
    "RootOfUnity",
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

# public name -> submodule that defines it (a submodule maps to itself)
_LAZY = {
    "djembed": "djembed",
    "jsonio": "jsonio",
    "pbw": "pbw",
    "reps": "reps",
    "AlgebraElement": "pbw",
    "MINUS": "pbw",
    "PLUS": "pbw",
    "ParamsOmega": "params",
    "bracket_generator": "pbw",
    "build_representation": "reps",
    "qcommutator": "pbw",
    "random_generic_params": "params",
    "verify_commutation_relations": "pbw",
    "verify_defining_relations": "pbw",
}

__getattr__, __dir__ = lazy_attributes(globals(), _LAZY)

"""q-deformed orthogonal enveloping algebra: normal forms, representations,
embeddings, and verification tools.

The modules `djembed`, `jsonio` and `reps` and the representation names are
loaded on first access (PEP 562), so `import uqson` does not load numpy.
"""

import importlib

from . import coeffring, errors
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

# public name -> submodule that defines it (a submodule maps to itself)
_LAZY = {
    "djembed": "djembed",
    "jsonio": "jsonio",
    "reps": "reps",
    "ParamsOmega": "params",
    "Tableau": "reps",
    "build_representation": "reps",
    "random_generic_params": "params",
}


def __getattr__(name):
    try:
        source = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{source}")
    value = module if source == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

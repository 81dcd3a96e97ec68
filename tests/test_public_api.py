"""The package's public names: every exported name resolves, the lazily
loaded ones are the objects their modules define, the few names of the
parameter layer that `reps` holds are the objects `params` defines, not
copies, every error class in `uqson.errors` is raised somewhere in the
package, and each belongs to the one family that decides its exit code.

Tools that patch a function wherever a uqson module holds it (the traced
benchmark launcher does) rely on that identity.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import uqson
from uqson import errors, params, pbw, reps

# names defined in uqson.params
PARAMS_NAMES = (
    "_ZERO_TOL",
    "variable_slots",
    "num_positive_roots",
    "parameter_count",
    "_as_complex",
    "ParamsOmega",
    "_dist_to_integers",
    "_dist_to_half_integers",
    "assert_generic",
    "_sample_real_part",
    "_sample_imag_part",
    "random_generic_params",
)
# the ones reps holds: it uses the first two, and re-exports the last
# because the benchmark launcher patches it as reps.sample
USED_BY_REPS = ("_ZERO_TOL", "variable_slots")
MOVED = ("random_generic_params",)

# the exit-code families of uqson.errors, each a base class, and their codes
FAMILIES = {
    errors.ExpressionSyntaxError: 2,
    errors.DegenerateInput: 3,
    errors.StructuralMisuse: 4,
}


@pytest.mark.parametrize("module", [uqson, pbw], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("module", [uqson, pbw], ids=lambda m: m.__name__)
def test_every_name_in_the_export_table_is_public(module):
    # one table per package lists each lazy name, and __all__ is derived
    # from it: uqson's hand-kept __all__ had drifted from its lookup, and
    # left out pbw
    table = [name for names in module._EXPORTS.values() for name in names]
    assert len(table) == len(set(table))
    assert set(table) <= set(module.__all__)
    assert list(module.__all__) == sorted(module.__all__)
    assert "pbw" in uqson.__all__


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from uqson import *", namespace)
    assert set(uqson.__all__) <= set(namespace)
    assert namespace["build_representation"] is reps.build_representation


def test_lazy_names_are_the_defining_modules_objects():
    assert uqson.reps is sys.modules["uqson.reps"]
    assert uqson.djembed is sys.modules["uqson.djembed"]
    assert uqson.jsonio is sys.modules["uqson.jsonio"]
    assert uqson.build_representation is reps.build_representation
    assert uqson.ParamsOmega is params.ParamsOmega
    assert uqson.random_generic_params is params.random_generic_params
    assert uqson.pbw is pbw
    algebra, rules = sys.modules["uqson.pbw.algebra"], sys.modules["uqson.pbw._rules"]
    assert uqson.AlgebraElement is pbw.AlgebraElement is algebra.AlgebraElement
    assert uqson.PLUS is pbw.PLUS is rules.PLUS
    assert pbw.associativity_fuzz is sys.modules["uqson.pbw.fuzz"].associativity_fuzz


def test_coeffring_reexports_the_numeric_helpers():
    # the numeric verbs take them from qnumeric, without the exact ring; a
    # patch of the coeffring name (the traced launcher makes one) reaches both
    from uqson import coeffring, qnumeric

    assert coeffring.qbracket_numeric is qnumeric.qbracket_numeric
    assert coeffring.qpow_complex is qnumeric.qpow_complex
    assert uqson.RootOfUnity is coeffring.RootOfUnity is qnumeric.RootOfUnity


@pytest.mark.parametrize("name", PARAMS_NAMES)
def test_reps_reexports_params_objects(name):
    assert (name in vars(reps)) == (name in USED_BY_REPS + MOVED)
    obj = getattr(params, name)
    holders = {
        mod.__name__: vars(mod)[name]
        for mod in list(sys.modules.values())
        if getattr(mod, "__name__", "").startswith("uqson") and name in vars(mod)
    }
    assert "uqson.params" in holders
    assert all(value is obj for value in holders.values())


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(uqson, "nope")
    with pytest.raises(AttributeError, match="module 'uqson' has no attribute 'nope'"):
        uqson.nope  # noqa: B018
    assert getattr(uqson, "active_kernel", None) is None
    with pytest.raises(AttributeError, match="module 'uqson.pbw' has no attribute 'nope'"):
        pbw.nope  # noqa: B018


def test_tableau_path_is_not_public():
    # the one-object-per-tableau path lives in tests/tableau_oracle.py
    assert "Tableau" not in uqson.__all__
    assert not hasattr(uqson, "Tableau")
    assert not hasattr(reps, "enumerate_tableaux")


def test_every_error_class_is_raised_in_the_package():
    # an exception that nothing raises still costs an exit-code mapping and a
    # docstring; the oracle-only ones live with their oracles under tests/
    src = Path(errors.__file__).parent
    raised = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    defined = {cls.__name__ for cls in error_classes()}
    assert sorted(defined - raised) == []


def error_classes():
    """Every error class of uqson.errors but the bases: UqsonError and the
    families no code raises as such."""
    return [
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.UqsonError)
        and obj not in (errors.UqsonError, errors.DegenerateInput, errors.StructuralMisuse)
    ]


def families_of(cls):
    return [family for family in FAMILIES if issubclass(cls, family)]


def test_every_error_class_belongs_to_one_family():
    # cli.main has one except clause per family, so a class outside every
    # family would exit 5 as a file error, or 1 with a traceback
    classes = error_classes()
    assert classes
    assert {cls.__name__: len(families_of(cls)) for cls in classes} == {
        cls.__name__: 1 for cls in classes
    }

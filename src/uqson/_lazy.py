"""Package attributes loaded on first access (PEP 562)."""

import importlib


def lazy_attributes(namespace, exports, eager=()):
    """`__all__`, `__getattr__` and `__dir__` for the package whose globals
    are `namespace`.

    `exports` maps each submodule to the public names it defines; a name
    equal to its submodule's is the module. `__all__` is those names and the
    `eager` ones the package binds itself, sorted. The first access imports
    the submodule and binds the name in the package, so later lookups are
    plain attribute reads. Unknown names raise AttributeError.
    """
    package = namespace["__name__"]
    sources = {name: source for source, names in exports.items() for name in names}

    def __getattr__(name):
        try:
            source = sources[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(f"{package}.{source}")
        value = module if source == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(sources))

    return sorted([*sources, *eager]), __getattr__, __dir__

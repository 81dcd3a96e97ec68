"""Package attributes loaded on first access (PEP 562)."""

import importlib


def lazy_attributes(namespace, sources):
    """`__getattr__` and `__dir__` for the package whose globals are `namespace`.

    `sources` maps each lazy name to the submodule that defines it; a
    submodule mapped to itself is the module. The first access imports the
    submodule and binds the name in the package, so later lookups are plain
    attribute reads. Unknown names raise AttributeError.
    """
    package = namespace["__name__"]

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
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__

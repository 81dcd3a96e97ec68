"""JSON round-trips for parameter files and representation dumps.

All writers are byte-deterministic for equal inputs: keys sorted, two-space
indent, trailing newline. Complex numbers are {"re": float, "im": float}.
load_rep reads a representation file with each such object made a checked
complex as soon as it is parsed, so no dict per entry outlives the parse.
"""

from __future__ import annotations

import cmath
import json
import sys
from itertools import pairwise

from .qnumeric import RootOfUnity

_FLOAT_MAX = sys.float_info.max  # a JSON number past it parses as inf


def complex_to_json(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj):
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ValueError(f"expected {{re, im}} object, got {obj!r}")
    # float() would read true and "0.5", and json.load admits NaN, Infinity
    # and 1e400 (inf): only finite JSON numbers pass
    if not all(type(x) in (int, float) and abs(x) <= _FLOAT_MAX for x in obj.values()):
        raise TypeError(f"re and im must be finite numbers, got {obj!r}")
    return complex(float(obj["re"]), float(obj["im"]))


def params_to_json(omega):
    def table(entries):
        # slot (i, s) is serialized as i plus row index j = s
        return [
            {"i": i, "j": s, "value": complex_to_json(entries[(i, s)])}
            for (i, s) in sorted(entries, key=lambda key: (key[1], key[0]))
        ]

    return {
        "n": omega.n,
        "orderK": omega.root.order,
        "t": omega.root.t,
        "mTop": [complex_to_json(z) for z in omega.m_top],
        "h": table(omega.h),
        "c": table(omega.c),
    }


def _integer(value, what):
    """A JSON integer as is; a float, bool or string is refused, not truncated
    (the loaders turn the TypeError into a malformed-file ValueError)."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def params_from_json(data):
    from .params import ParamsOmega  # writing a parameter file never needs the class

    def slots(table):
        return {
            (_integer(e["i"], "i"), _integer(e["j"], "j")): complex_from_json(e["value"])
            for e in table
        }

    try:
        n = _integer(data["n"], "n")
        order = _integer(data["orderK"], "orderK")
        t = _integer(data.get("t", 1), "t")
        m_top = tuple(complex_from_json(z) for z in data["mTop"])
        h = slots(data["h"])
        c = slots(data["c"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed parameter file: {exc}") from exc
    return ParamsOmega(n=n, root=RootOfUnity(order, t), m_top=m_top, h=h, c=c)


# One entry of a representation file as json.dumps(indent=2, sort_keys=True)
# lays it out, and its value object; %r of a float is float.__repr__, the
# text json writes
_ENTRY = "        [\n          %d,\n          %d,\n          {\n%s\n          }\n        ]"
_VALUE = '            "im": %r,\n            "re": %r'


def dump_rep(ops, path):
    """Write a representation file: the bytes of json.dumps(obj, indent=2,
    sort_keys=True) and a newline, for obj = {"dim": dim, "generators":
    [{"entries": [[row, col, {"im": ..., "re": ...}], ...], "name": name},
    ...]}, written one generator at a time. A non-finite part is refused
    before the file is opened, since rep_from_json would refuse it.

    Each value object's text is formatted once per operator, keyed by its
    id: a tiled generator repeats the same few value objects, and
    op.entries keeps each of them alive, so no id is reused meanwhile."""
    ops = list(ops)
    if not ops:
        raise ValueError("representation dump needs at least one operator")
    for op in ops:
        for row, col, value in op.entries:
            if not cmath.isfinite(value):
                raise ValueError(
                    f"{op.name} cell ({row}, {col}) is {complex(value)!r}: "
                    "a representation file holds only finite numbers"
                )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "dim": %d,\n  "generators": [' % ops[0].dim)
        for i, op in enumerate(ops):
            fh.write(",\n    {\n" if i else "\n    {\n")
            if op.entries:
                texts = {}  # id(value) -> _VALUE text
                lines = []
                for row, col, value in op.entries:
                    text = texts.get(id(value))
                    if text is None:
                        z = complex(value)
                        text = texts[id(value)] = _VALUE % (z.imag, z.real)
                    lines.append(_ENTRY % (row, col, text))
                fh.write('      "entries": [\n')
                fh.write(",\n".join(lines))
                fh.write("\n      ],\n")
            else:
                fh.write('      "entries": [],\n')
            fh.write('      "name": %s\n    }' % json.dumps(op.name))
        fh.write("\n  ]\n}\n")


def rep_from_json(data):
    """Operators from a representation dump. The dimension and each entry's
    row and col must be JSON integers, with 1 <= dim <= _MAX_DIM and
    0 <= row, col < dim, in strictly increasing (row, col) order (the order
    dump_rep writes), so no index is truncated or wraps and no cell is given
    twice. Each name must be a JSON string. A file with no generator is
    refused too. An entry value is a {re, im} object, or the complex that
    load_rep's parse made of one."""
    from .reps import _MAX_DIM, SparseOperator  # parameter files never need the operator layer

    try:
        dim = _integer(data["dim"], "dim")
        if not 1 <= dim <= _MAX_DIM:
            raise ValueError(f"dim = {dim} is not in 1..{_MAX_DIM}")
        ops = []
        for gen in data["generators"]:
            name = gen["name"]
            if type(name) is not str:
                raise TypeError(f"name must be a string, got {name!r}")
            entries = tuple(
                (row, col, _parsed_complex(value)) for row, col, value in gen["entries"]
            )
            cells = [(row, col) for row, col, _ in entries]
            if not all(
                type(row) is int and type(col) is int and 0 <= row < dim and 0 <= col < dim
                for row, col in cells
            ) or not all(a < b for a, b in pairwise(cells)):
                raise ValueError(
                    f"{name} entries must be integers in "
                    f"0..{dim - 1}, in strictly increasing (row, col) order"
                )
            ops.append(SparseOperator(name=name, dim=dim, entries=entries))
        if not ops:
            raise ValueError("no generators")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed representation file: {exc}") from exc
    return ops


def _parsed_complex(value):
    """An entry value as load_rep's parse left it: a complex made by its
    hook, or a value the hook passed over, which complex_from_json refuses.
    json.load makes no complex, so on its output this is complex_from_json."""
    return value if type(value) is complex else complex_from_json(value)


def _complex_hook(obj):
    """A {re, im} object of two finite floats, what dump_rep writes, made a
    complex inline; any other {re, im} object through complex_from_json."""
    if len(obj) != 2 or "re" not in obj or "im" not in obj:
        return obj
    re, im = obj["re"], obj["im"]
    if type(re) is type(im) is float and abs(re) <= _FLOAT_MAX and abs(im) <= _FLOAT_MAX:
        return complex(re, im)
    return complex_from_json(obj)


def load_rep(path):
    """Operators from a representation file, with rep_from_json's checks.
    The parse turns each {"im", "re"} object into a complex at once, through
    complex_from_json's checks; a refusal there is a malformed file too."""
    try:
        data = load_json(path, object_hook=_complex_hook)
    except TypeError as exc:
        raise ValueError(f"malformed representation file: {exc}") from exc
    return rep_from_json(data)


def dumps_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj))


def load_json(path, object_hook=None):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_hook=object_hook)

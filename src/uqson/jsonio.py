"""JSON round-trips for parameter files and representation dumps.

All writers are byte-deterministic for equal inputs: keys sorted, two-space
indent, trailing newline. Complex numbers are {"re": float, "im": float}.
"""

from __future__ import annotations

import json
import sys

from .coeffring import RootOfUnity
from .params import ParamsOmega


def complex_to_json(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj):
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ValueError(f"expected {{re, im}} object, got {obj!r}")
    # float() would read true and "0.5", and json.load admits NaN, Infinity
    # and 1e400 (inf): only finite JSON numbers pass
    if not all(type(x) in (int, float) and abs(x) <= sys.float_info.max
               for x in obj.values()):
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
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed parameter file: {exc}") from exc
    return ParamsOmega(n=n, root=RootOfUnity(order, t), m_top=m_top, h=h, c=c)


def rep_to_json(ops):
    ops = list(ops)
    if not ops:
        raise ValueError("representation dump needs at least one operator")
    dim = ops[0].dim
    return {
        "dim": dim,
        "generators": [
            {
                "name": op.name,
                "entries": [
                    [row, col, complex_to_json(value)] for row, col, value in op.entries
                ],
            }
            for op in ops
        ],
    }


def rep_from_json(data):
    """Operators from a representation dump. The dimension and each entry's
    row and col must be JSON integers, with 0 <= row, col < dim, in strictly
    increasing (row, col) order (the order rep_to_json writes), so no index
    is truncated or wraps and no cell is given twice."""
    from .reps import SparseOperator  # parameter files never need the operator layer

    try:
        dim = _integer(data["dim"], "dim")
        ops = []
        for gen in data["generators"]:
            name = str(gen["name"])
            entries = tuple(
                (row, col, complex_from_json(value)) for row, col, value in gen["entries"]
            )
            cells = [(row, col) for row, col, _ in entries]
            if not all(
                type(row) is int and type(col) is int and 0 <= row < dim and 0 <= col < dim
                for row, col in cells
            ) or cells != sorted(set(cells)):
                raise ValueError(
                    f"malformed representation file: {name} entries must be integers in "
                    f"0..{dim - 1}, in strictly increasing (row, col) order"
                )
            ops.append(SparseOperator(name=name, dim=dim, entries=entries))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed representation file: {exc}") from exc
    return ops


def dumps_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj))


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

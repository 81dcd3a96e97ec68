"""JSON round-trips for parameter files and representation dumps.

All writers are byte-deterministic for equal inputs: keys sorted, two-space
indent, trailing newline. Complex numbers are {"re": float, "im": float}.
"""

from __future__ import annotations

import json

from .coeffring import RootOfUnity
from .params import ParamsOmega


def complex_to_json(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj):
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ValueError(f"expected {{re, im}} object, got {obj!r}")
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


def params_from_json(data):
    try:
        n = int(data["n"])
        order = int(data["orderK"])
        t = int(data.get("t", 1))
        m_top = tuple(complex_from_json(z) for z in data["mTop"])
        h = {(int(e["i"]), int(e["j"])): complex_from_json(e["value"]) for e in data["h"]}
        c = {(int(e["i"]), int(e["j"])): complex_from_json(e["value"]) for e in data["c"]}
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
    """Operators from a representation dump. Each generator's entries must lie
    in 0 <= row, col < dim, in strictly increasing (row, col) order (the order
    rep_to_json writes), so no index wraps and no cell is given twice."""
    from .reps import SparseOperator  # parameter files never need the operator layer

    try:
        dim = int(data["dim"])
        ops = []
        for gen in data["generators"]:
            name = str(gen["name"])
            entries = tuple(
                (int(row), int(col), complex_from_json(value))
                for row, col, value in gen["entries"]
            )
            cells = [(row, col) for row, col, _ in entries]
            if cells != sorted(set(cells)) or not all(
                0 <= row < dim and 0 <= col < dim for row, col in cells
            ):
                raise ValueError(
                    f"malformed representation file: {name} entries must lie in "
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

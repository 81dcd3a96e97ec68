"""Test oracle for the representation file: the standard-library encoder.

`uqson.jsonio.dump_rep` writes representation files from a per-entry
template, one generator at a time. This module keeps the object path that
template replaced: the whole file as one JSON object, encoded by
`json.dumps(indent=2, sort_keys=True)`. The tests require the two to give
the same bytes.
"""

from __future__ import annotations

import json

from uqson.jsonio import complex_to_json


def rep_to_json(ops):
    ops = list(ops)
    return {
        "dim": ops[0].dim,
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


def dumps_rep(ops):
    """The bytes a representation file of `ops` must hold, as text."""
    return json.dumps(rep_to_json(ops), indent=2, sort_keys=True) + "\n"

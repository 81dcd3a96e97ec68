"""Representation files: the template writer against the standard-library
encoder, the refusal of non-finite values, the read-side order check on
long entry lists, and load_rep against rep_from_json on valid and corrupted
files."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rep_json_oracle import dumps_rep, rep_to_json
from uqson import cli, jsonio
from uqson.reps import SparseOperator

DIM = 6

VALUES = st.one_of(
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)
NAMES = st.one_of(st.sampled_from(["I21", "I32", 'I"q"', "Iß7"]), st.text(max_size=6))


@st.composite
def operators(draw):
    cells = sorted(draw(st.sets(st.tuples(st.integers(0, DIM - 1), st.integers(0, DIM - 1)),
                                max_size=8)))
    entries = tuple((row, col, draw(VALUES)) for row, col in cells)
    return SparseOperator(name=draw(NAMES), dim=DIM, entries=entries)


EDGE_VALUES = (-0.0, complex(0.0, -0.0), 5e-324, 1e16, 0.1 + 0.2, 7, -3.5, complex(-1e-300, 2.5))


@settings(max_examples=200, deadline=None)
@given(st.lists(operators(), min_size=1, max_size=4))
@example([
    SparseOperator("I21", DIM, tuple((0, col, v) for col, v in enumerate(EDGE_VALUES[:DIM]))),
    SparseOperator('I"ß"', DIM, ()),
    SparseOperator("I43", DIM, tuple((5, col, v) for col, v in enumerate(EDGE_VALUES[DIM:]))),
])
@example([SparseOperator("empty", DIM, ())])
def test_dump_rep_writes_the_bytes_of_json_dumps(tmp_path_factory, ops):
    path = tmp_path_factory.mktemp("rep") / "rep.json"
    jsonio.dump_rep(ops, path)
    assert path.read_bytes() == dumps_rep(ops).encode()


def test_dump_rep_round_trips_through_the_loader(tmp_path):
    ops = [
        SparseOperator("I21", 3, ((0, 1, complex(-0.0, 1.0)), (2, 2, complex(5e-324, -0.0)))),
        SparseOperator("I32", 3, ()),
    ]
    path = tmp_path / "rep.json"
    jsonio.dump_rep(ops, path)
    back = jsonio.rep_from_json(jsonio.load_json(path))
    assert back == ops
    assert math.copysign(1.0, back[0].entries[0][2].real) == -1.0
    assert math.copysign(1.0, back[0].entries[1][2].imag) == -1.0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, complex(1.0, math.inf),
                                   complex(math.nan, 0.0)],
                         ids=["inf", "-inf", "nan", "inf-im", "nan-re"])
def test_dump_rep_refuses_non_finite_values_before_opening_the_file(tmp_path, value):
    # json.dumps would write Infinity or NaN, which the loader refuses
    ops = [
        SparseOperator("I21", 3, ((0, 1, 1.0),)),
        SparseOperator("I32", 3, ((0, 0, 2.0), (1, 2, value), (2, 1, 3.0))),
    ]
    path = tmp_path / "rep.json"
    with pytest.raises(ValueError, match=r"^I32 cell \(1, 2\) is .*only finite numbers$"):
        jsonio.dump_rep(ops, path)
    assert not path.exists()


def test_dump_rep_refuses_an_empty_representation(tmp_path):
    path = tmp_path / "rep.json"
    with pytest.raises(ValueError, match="at least one operator"):
        jsonio.dump_rep([], path)
    assert not path.exists()


def long_rep(dim, cells):
    one = {"re": 1.0, "im": 0.0}
    return {"dim": dim, "generators": [
        {"name": "I21", "entries": [[0, 0, one]]},
        {"name": "I32", "entries": [[r, c, one] for r, c in cells]},
    ]}


@pytest.mark.parametrize("fault", ["equal", "descending"])
def test_rep_from_json_refuses_disorder_deep_in_a_long_entry_list(fault):
    dim = 200
    cells = list(dict.fromkeys((r, c) for r in range(dim) for c in (r // 2, r)))
    assert jsonio.rep_from_json(long_rep(dim, cells))[1].entries[-1][:2] == (199, 199)
    deep = len(cells) // 2 + 1
    if fault == "equal":
        cells[deep + 1] = cells[deep]
    else:
        cells[deep], cells[deep + 1] = cells[deep + 1], cells[deep]
    with pytest.raises(ValueError, match="I32 entries must be integers in 0..199, in strictly "
                                         r"increasing \(row, col\) order"):
        jsonio.rep_from_json(long_rep(dim, cells))


# Corruptions of a representation file, each of which both readers must
# refuse. A value-part literal replaces the marker string in the file text.
PART_LITERALS = ("NaN", "Infinity", "-Infinity", "1e400", '"0.5"', "true", "null")
BAD_INDICES = (1.0, True, -1, DIM, "1")
MARKER = "@value-part@"  # longer than any generated name


def corrupt(obj, fault, pick):
    """Apply `fault` to the file object in place; False if it has no entry
    to apply it to (the file stays valid)."""
    if fault == "dim-complex":
        obj["dim"] = {"im": 0.0, "re": float(DIM)}
        return True
    if fault == "name-complex":
        obj["generators"][pick % len(obj["generators"])]["name"] = {"im": 0.0, "re": 1.0}
        return True
    if fault == "no-generators":
        obj["generators"] = []
        return True
    lists = [gen["entries"] for gen in obj["generators"] if len(gen["entries"]) > 1]
    if fault in ("unordered", "repeated"):
        if not lists:
            return False
        entries = lists[pick % len(lists)]
        i = pick % (len(entries) - 1)
        if fault == "unordered":
            entries[i], entries[i + 1] = entries[i + 1], entries[i]
        else:
            entries[i + 1] = entries[i]
        return True
    entries = [e for gen in obj["generators"] for e in gen["entries"]]
    if not entries:
        return False
    entry = entries[pick % len(entries)]
    if fault == "part":
        entry[2]["re" if pick % 2 else "im"] = MARKER
    elif fault == "index":
        entry[pick % 2] = BAD_INDICES[pick % len(BAD_INDICES)]
    elif fault == "extra-key":
        entry[2]["abs"] = 1.0
    elif fault == "missing-key":
        del entry[2]["im"]
    else:  # "bare-value"
        entry[2] = 1.5
    return True


FAULTS = ("part", "index", "unordered", "repeated", "extra-key", "missing-key", "bare-value",
          "dim-complex", "name-complex", "no-generators")


def read_both(path):
    """What load_rep and the reference rep_from_json(json.load(...)) make of
    a file: the operators' repr, or ValueError."""
    def attempt(read):
        try:
            return repr(read())
        except ValueError:
            return ValueError

    def reference():
        with open(path, encoding="utf-8") as fh:
            return jsonio.rep_from_json(json.load(fh))

    return attempt(lambda: jsonio.load_rep(path)), attempt(reference)


@settings(max_examples=300, deadline=None)
@given(st.lists(operators(), min_size=1, max_size=3),
       st.one_of(st.none(), st.sampled_from(FAULTS)), st.integers(0, 10**6),
       st.sampled_from(PART_LITERALS))
def test_load_rep_reads_and_refuses_what_rep_from_json_does(tmp_path_factory, ops, fault, pick,
                                                            literal):
    obj = rep_to_json(ops)
    corrupted = fault is not None and corrupt(obj, fault, pick)
    path = tmp_path_factory.mktemp("rep") / "rep.json"
    path.write_text(json.dumps(obj, indent=2).replace(f'"{MARKER}"', literal), encoding="utf-8")
    fast, reference = read_both(path)
    assert fast == reference
    assert (fast is ValueError) == corrupted
    if corrupted:
        assert cli.main(["rep-commutant", "--rep", str(path)]) == cli.EXIT_IO

"""The committed BENCH_*.json records: each performance claim's measurements
must name the size of the source it measured, `src_py_lines` for the parent
commit and for the change, so that speed and code size are read together."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

BENCH_FILES = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def test_bench_files_are_found():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_records_src_py_lines_for_both_sides(path):
    lines = json.loads(path.read_text())["src_py_lines"]
    for side in ("parent", "change"):
        counts = lines[side] if isinstance(lines[side], list) else [lines[side]]
        assert counts and all(type(c) is int and c > 0 for c in counts), (side, lines[side])

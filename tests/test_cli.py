"""Command-line surface: every verb, the exit-code contract, golden stdout
for the reducer, and byte-identical JSON artifacts for seeded runs.

Exit codes: 0 pass, 1 check failed, 2 usage/syntax, 3 degenerate value,
4 structural misuse, 5 file/format trouble.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from uqson import cli, errors

from test_public_api import FAMILIES, error_classes, families_of

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_REDUCE = "q*I21*I32 - q^(1/2)*I31\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- pass paths -----------------------------------------------------------------


def test_pbw_reduce_golden_stdout(capsys):
    code, out, _ = run(capsys, "pbw-reduce", "--n", "3", "I32*I21")
    assert code == 0
    assert out == GOLDEN_REDUCE


def test_pbw_reduce_infers_minus_variant(capsys):
    code, out, _ = run(capsys, "pbw-reduce", "--n", "3", "Im31")
    assert code == 0
    assert out == "Im31\n"


def test_pbw_reduce_names_two_digit_generators(capsys):
    # from rank 10 on, I1110 would read back as other tokens
    code, out, _ = run(capsys, "pbw-reduce", "--n", "12", "I[11,10]*I21")
    assert (code, out) == (0, "I21*I[11,10]\n")
    code, out, _ = run(capsys, "pbw-reduce", "--n", "12", "I[12,10]*I[11,10]")
    assert (code, out) == (0, "q^(-1)*I[11,10]*I[12,10] + q^(-1/2)*I[12,11]\n")


def test_pbw_reduce_folds_a_long_sum(capsys):
    # a sum is folded term by term, so its length does not nest any call
    code, out, _ = run(capsys, "pbw-reduce", "--n", "3", "+".join(["I21"] * 1500))
    assert (code, out) == (0, "1500*I21\n")


def test_relations_verify_summary(capsys):
    code, out, _ = run(capsys, "relations-verify", "--n", "4")
    assert code == 0
    assert "serre-a[2]: exact-zero: true" in out
    assert out.rstrip().endswith("relations-verify n=4 variant=plus: PASS (5 relations)")


def test_commrel_verify_both_variants(capsys):
    for variant in ("plus", "minus"):
        code, out, _ = run(capsys, "commrel-verify", "--n", "4", "--variant", variant)
        assert code == 0
        assert f"commrel-verify n=4 variant={variant}: PASS (15 identities)" in out


def test_assoc_fuzz_seeded_pass(capsys):
    code, out, _ = run(capsys, "assoc-fuzz", "--n", "3", "--degree", "3",
                       "--trials", "40", "--seed", "11")
    assert code == 0
    assert "assoc-fuzz n=3 degree=3 trials=40 seed=11 variant=plus: PASS" in out
    again, out2, _ = run(capsys, "assoc-fuzz", "--n", "3", "--degree", "3",
                         "--trials", "40", "--seed", "11")
    assert (again, out2) == (code, out)


def test_rep_pipeline_and_artifact_determinism(capsys, tmp_path):
    params = tmp_path / "omega.json"
    rep = tmp_path / "rep.json"
    report = tmp_path / "report.json"

    code, out, _ = run(capsys, "params-sample", "--n", "3", "--order", "5",
                       "--seed", "7", "--out", str(params))
    assert code == 0
    assert "parameters=3" in out

    code, out, _ = run(capsys, "rep-build", "--params", str(params), "--out", str(rep))
    assert code == 0
    assert "dim=5" in out

    code, out, _ = run(capsys, "rep-verify", "--rep", str(rep), "--q-order", "5",
                       "--commutant", "--out", str(report))
    assert code == 0
    assert "commutant-dim: 1" in out
    assert "PASS" in out

    code, out, _ = run(capsys, "rep-commutant", "--rep", str(rep))
    assert code == 0
    assert "commutant-dim: 1" in out

    # identical seeds must reproduce identical bytes
    params2 = tmp_path / "omega2.json"
    rep2 = tmp_path / "rep2.json"
    report2 = tmp_path / "report2.json"
    run(capsys, "params-sample", "--n", "3", "--order", "5", "--seed", "7",
        "--out", str(params2))
    run(capsys, "rep-build", "--params", str(params2), "--out", str(rep2))
    run(capsys, "rep-verify", "--rep", str(rep2), "--q-order", "5",
        "--commutant", "--out", str(report2))
    assert params.read_bytes() == params2.read_bytes()
    assert rep.read_bytes() == rep2.read_bytes()
    assert report.read_bytes() == report2.read_bytes()


@pytest.mark.parametrize("k,cdim,code,verdict", [
    # (4,4) is the known even-order result (README, "Known limitation"):
    # two invariant subspaces, commutant dimension 2, exit 1
    (4, 2, 1, "rep-verify dim=16 tol=1.000e-09: FAIL"),
    (5, 1, 0, "rep-verify dim=25 tol=1.000e-09: PASS"),
])
def test_commutant_verdicts_at_rank_4(capsys, tmp_path, k, cdim, code, verdict):
    params = tmp_path / "omega.json"
    rep = tmp_path / "rep.json"
    run(capsys, "params-sample", "--n", "4", "--order", str(k), "--seed", "0",
        "--out", str(params))
    run(capsys, "rep-build", "--params", str(params), "--out", str(rep))

    got, out, _ = run(capsys, "rep-verify", "--rep", str(rep), "--q-order", str(k),
                      "--commutant")
    lines = out.splitlines()
    assert got == code
    assert lines[-2:] == [f"commutant-dim: {cdim}", verdict]

    got, out, _ = run(capsys, "rep-commutant", "--rep", str(rep))
    assert got == code
    assert out.splitlines() == [
        f"commutant-dim: {cdim}",
        f"rep-commutant: {'PASS' if cdim == 1 else 'FAIL'} (irreducible iff 1)",
    ]


def test_params_sample_counts(capsys, tmp_path):
    for n, expected in [(3, 3), (4, 6), (5, 10), (6, 15)]:
        out_path = tmp_path / f"p{n}.json"
        code, out, _ = run(capsys, "params-sample", "--n", str(n), "--order", "5",
                           "--seed", "1", "--out", str(out_path))
        assert code == 0
        assert f"parameters={expected}" in out
        data = json.loads(out_path.read_text())
        assert len(data["mTop"]) + len(data["h"]) + len(data["c"]) == expected


def test_embed_and_psi_reports(capsys, tmp_path):
    out_path = tmp_path / "embed.json"
    code, out, _ = run(capsys, "embed-verify", "--n", "3", "--out", str(out_path))
    assert code == 0
    assert "embed-verify n=3: PASS (4 checks)" in out
    assert len(json.loads(out_path.read_text())) == 4

    code, out, _ = run(capsys, "psi-verify", "--twoj", "4", "--seed", "9")
    assert code == 0
    assert "psi-verify twoj=4 samples=10 seed=9 tol=1.0e-10: PASS" in out


# -- failure and error paths ------------------------------------------------------


def test_exit_1_when_tolerance_is_unreachable(capsys, tmp_path):
    params = tmp_path / "omega.json"
    rep = tmp_path / "rep.json"
    run(capsys, "params-sample", "--n", "3", "--order", "3", "--seed", "2",
        "--out", str(params))
    run(capsys, "rep-build", "--params", str(params), "--out", str(rep))
    code, out, _ = run(capsys, "rep-verify", "--rep", str(rep), "--q-order", "3",
                       "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_exit_2_on_syntax_and_usage(capsys):
    code, _, err = run(capsys, "pbw-reduce", "--n", "4", "I43*(")
    assert code == 2
    assert "column 5" in err
    assert run(capsys, "no-such-verb")[0] == 2
    assert run(capsys, "assoc-fuzz", "--n", "4")[0] == 2  # --seed is mandatory
    assert run(capsys)[0] == 2


def test_exit_3_on_degenerate_order(capsys, tmp_path):
    params = tmp_path / "omega.json"
    run(capsys, "params-sample", "--n", "4", "--order", "2", "--seed", "1",
        "--out", str(params))
    code, _, err = run(capsys, "rep-build", "--params", str(params),
                       "--out", str(tmp_path / "rep.json"))
    assert code == 3
    assert "degenerate" in err.lower()


def test_exit_4_on_structural_misuse(capsys):
    code, _, err = run(capsys, "pbw-reduce", "--n", "3", "I43*I21")
    assert code == 4
    assert "exceeds rank 3" in err
    code, _, _ = run(capsys, "pbw-reduce", "--n", "3", "Ip31*Im21")
    assert code == 4
    # the rank and mixed Ip/Im markers are checked before the grammar
    assert run(capsys, "pbw-reduce", "--n", "2", "I21*(")[0] == 4
    assert run(capsys, "pbw-reduce", "--n", "3", "Ip31*Im21*(")[0] == 4


@pytest.mark.parametrize("cls", error_classes(), ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_family_code(capsys, monkeypatch, cls):
    # main has one clause per family of uqson.errors, whatever a verb raises
    exc = cls("boom", 1) if cls is errors.ExpressionSyntaxError else cls("boom")

    def verb(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_relations_verify", verb)
    code, out, err = run(capsys, "relations-verify", "--n", "3")
    (family,) = families_of(cls)
    assert (code, out) == (FAMILIES[family], "")
    prefix = "error: degenerate input: " if family is errors.DegenerateInput else "error: "
    assert err == f"{prefix}{exc}\n"


def test_exit_3_on_an_overflowing_q_power(capsys, tmp_path):
    # q^x = exp(2 pi i x / 3) overflows at Im x = -400; cmath's OverflowError
    # used to escape as a traceback with exit 1
    params, rep = tmp_path / "omega.json", tmp_path / "rep.json"
    run(capsys, "params-sample", "--n", "3", "--order", "3", "--seed", "0", "--out", str(params))
    data = json.loads(params.read_text())
    data["h"][0]["value"]["im"] = -400
    params.write_text(json.dumps(data))
    proc = run_process([sys.executable, "-m", "uqson.cli", "rep-build",
                        "--params", str(params), "--out", str(rep)])
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "error: degenerate input: q-power overflows in bracket [(0.420571580830845-400j)]\n"
    )
    assert not rep.exists()


def test_rep_build_refuses_a_dimension_no_file_may_declare(capsys, tmp_path):
    # (10,3) has dimension 3^20, above the 3037000499 a representation file
    # may declare; the build used to start tiling it until memory ran out
    params, rep = tmp_path / "omega.json", tmp_path / "rep.json"
    code, _, _ = run(capsys, "params-sample", "--n", "10", "--order", "3", "--seed", "0",
                     "--out", str(params))
    assert code == 0
    proc = run_process([sys.executable, "-m", "uqson.cli", "rep-build",
                        "--params", str(params), "--out", str(rep)], timeout=10)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == ("error: dim = 3486784401 is not in 1..3037000499, "
                           "the dimensions a representation file may declare\n")
    assert not rep.exists()


# runs the CLI with its address space capped at 1 GiB, so that a
# certificate that did start on a large dimension fails at once
CAPPED_CLI = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
    "from uqson.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("verb", ["rep-commutant", "rep-verify"])
def test_exit_4_on_a_commutant_past_its_dimension_limit(tmp_path, verb):
    # the certificate's dense matrices need about 125 B * d^2; at d = 4096
    # it used to run out of memory with a traceback and exit 1
    from uqson import reps

    dim = reps._COMMUTANT_MAX_DIM + 1
    one = {"re": 1.0, "im": 0.0}
    rep, report = tmp_path / "rep.json", tmp_path / "report.json"
    rep.write_text(json.dumps({"dim": dim, "generators": [
        {"name": "I21", "entries": [[0, 1, one]]}, {"name": "I32", "entries": [[1, 2, one]]}]}))
    argv = {"rep-commutant": ["rep-commutant", "--rep", str(rep)],
            "rep-verify": ["rep-verify", "--rep", str(rep), "--q-order", "3", "--commutant",
                           "--out", str(report)]}[verb]
    proc = run_process([sys.executable, "-c", CAPPED_CLI, *argv], timeout=20)
    assert proc.returncode == 4
    assert proc.stderr == (f"error: commutant certificate: dim = {dim} is above its limit "
                           f"{dim - 1} (its dense matrices need about 125 B * dim^2)\n")
    assert proc.stdout == ""  # rep-verify refuses before it takes any residual
    assert not report.exists()


@pytest.mark.parametrize("dim", [9, 2402])
def test_rep_verify_refuses_one_generator_before_the_commutant(capsys, monkeypatch, tmp_path,
                                                               dim):
    from uqson import reps

    def certificate(ops):
        raise AssertionError("the certificate ran on a rank-2 file")

    monkeypatch.setattr(reps, "commutant_certificate", certificate)
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"dim": dim, "generators": [
        {"name": "I21", "entries": [[0, 1, {"re": 1.0, "im": 0.0}]]}]}))
    assert run(capsys, "rep-verify", "--rep", str(rep), "--q-order", "3", "--commutant") == (
        4, "", "error: rank must be an integer >= 3, got 2\n")


def test_exit_5_on_missing_or_malformed_files(capsys, tmp_path):
    code, _, _ = run(capsys, "rep-build", "--params", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out.json"))
    assert code == 5

    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    code, _, _ = run(capsys, "rep-verify", "--rep", str(junk), "--q-order", "3")
    assert code == 5

    # valid JSON with the wrong schema
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"n": 4}')
    code, _, _ = run(capsys, "rep-build", "--params", str(wrong),
                     "--out", str(tmp_path / "out.json"))
    assert code == 5

    # a representation with no generator
    empty = tmp_path / "empty.json"
    empty.write_text('{"dim": 3, "generators": []}')
    for argv in (["rep-verify", "--rep", str(empty), "--q-order", "3"],
                 ["rep-commutant", "--rep", str(empty)]):
        code, _, _ = run(capsys, *argv)
        assert code == 5


def write_rep(path, entries):
    """A 2-dim representation file whose I21 has the given (row, col) entries."""
    one = {"re": 1.0, "im": 0.0}
    gens = [
        {"name": "I21", "entries": [[r, c, one] for r, c in entries]},
        {"name": "I32", "entries": [[0, 0, one], [1, 1, one]]},
    ]
    path.write_text(json.dumps({"dim": 2, "generators": gens}))
    return path


@pytest.mark.parametrize(
    "entries",
    [[(0, 1), (2, 0)], [(-1, 0), (0, 1)], [(0, 1), (0, 1)], [(1, 0), (0, 1)]],
    ids=["out-of-range", "negative", "duplicate", "unsorted"],
)
def test_exit_5_on_malformed_entry_indices(capsys, tmp_path, entries):
    # a negative index would wrap to the last row, and a repeated cell would be
    # kept once by to_dense but summed by the sparse residual: the file is
    # refused instead
    rep = write_rep(tmp_path / "rep.json", entries)
    for argv in (["rep-verify", "--rep", str(rep), "--q-order", "3"],
                 ["rep-commutant", "--rep", str(rep)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (5, "")
        assert "malformed representation file: I21 entries" in err


NOT_INTEGERS = pytest.mark.parametrize("value", [0.9, True, "1"], ids=["float", "bool", "string"])


@NOT_INTEGERS
@pytest.mark.parametrize("field", ["dim", "row", "col"])
def test_exit_5_on_non_integer_rep_indices(capsys, tmp_path, field, value):
    # int() would read 0.9 as 0 and true or "1" as 1, i.e. a different matrix
    rep = write_rep(tmp_path / "rep.json", [(0, 1), (1, 0)])
    data = json.loads(rep.read_text())
    if field == "dim":
        data["dim"] = value
    else:
        data["generators"][0]["entries"][1][field == "col"] = value
    rep.write_text(json.dumps(data))
    code, out, err = run(capsys, "rep-commutant", "--rep", str(rep))
    assert (code, out) == (5, "")
    assert "malformed representation file" in err


@pytest.mark.parametrize("dim", [0, 3037000500, 4000000000])
def test_exit_5_on_a_dimension_that_cannot_be_indexed(tmp_path, dim):
    # the sparse residual indexes cell (row, col) as row * dim + col in int64,
    # so dim * dim must stay below 2**63. The file is refused before anything
    # is allocated; the limit on the address space makes an array of dim
    # indices (32 GB at 4e9) fail instead of taking the memory
    rep = write_rep(tmp_path / "rep.json", [(0, 1), (1, 0)])
    data = json.loads(rep.read_text())
    data["dim"] = dim
    rep.write_text(json.dumps(data))
    argv = ["rep-verify", "--rep", str(rep), "--q-order", "3"]
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from uqson.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    proc = run_process([sys.executable, "-c", code])
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr == (f"error: malformed representation file: dim = {dim} "
                           "is not in 1..3037000499\n")


@NOT_INTEGERS
@pytest.mark.parametrize("field", ["n", "orderK", "t", "i", "j"])
def test_exit_5_on_non_integer_params_indices(capsys, tmp_path, field, value):
    params = tmp_path / "omega.json"
    run(capsys, "params-sample", "--n", "3", "--order", "3", "--seed", "2",
        "--out", str(params))
    data = json.loads(params.read_text())
    if field in ("i", "j"):
        data["h"][0][field] = value
    else:
        data[field] = value
    params.write_text(json.dumps(data))
    rep = tmp_path / "rep.json"
    code, out, err = run(capsys, "rep-build", "--params", str(params), "--out", str(rep))
    assert (code, out) == (5, "")
    assert f"malformed parameter file: {field}" in err
    assert not rep.exists()


NOT_FINITE_NUMBERS = pytest.mark.parametrize(
    "literal", ["true", '"0.5"', "null", "NaN", "-Infinity", "1e400"],
    ids=["bool", "string", "null", "nan", "infinity", "overflow"],
)


def write_with_literal(path, data, target, key, literal):
    """Write data to path with target[key], an object inside data, set to a
    raw JSON literal."""
    target[key] = "@literal@"
    path.write_text(json.dumps(data).replace('"@literal@"', literal))


@NOT_FINITE_NUMBERS
def test_exit_5_on_non_finite_rep_values(capsys, tmp_path, literal):
    # float() would read true as 1.0 and "0.5" as 0.5, and json.load reads NaN
    # and Infinity: a NaN entry made every residual nan
    rep = write_rep(tmp_path / "rep.json", [(0, 1), (1, 0)])
    data = json.loads(rep.read_text())
    write_with_literal(rep, data, data["generators"][0]["entries"][0][2], "re", literal)
    code, out, err = run(capsys, "rep-verify", "--rep", str(rep), "--q-order", "3")
    assert (code, out) == (5, "")
    assert "malformed representation file: re and im must be finite numbers" in err


@NOT_FINITE_NUMBERS
@pytest.mark.parametrize("field", ["mTop", "h"])
def test_exit_5_on_non_finite_params_values(capsys, tmp_path, literal, field):
    params = tmp_path / "omega.json"
    run(capsys, "params-sample", "--n", "3", "--order", "3", "--seed", "2",
        "--out", str(params))
    data = json.loads(params.read_text())
    target = data["mTop"][0] if field == "mTop" else data["h"][0]["value"]
    write_with_literal(params, data, target, "im", literal)
    rep = tmp_path / "rep.json"
    code, out, err = run(capsys, "rep-build", "--params", str(params), "--out", str(rep))
    assert (code, out) == (5, "")
    assert "malformed parameter file: re and im must be finite numbers" in err
    assert not rep.exists()


@pytest.mark.parametrize("value", [1.5, {"re": 1.0, "im": 0.0, "abs": 1.0}],
                         ids=["bare-value", "extra-key"])
def test_exit_5_names_the_file_on_a_value_that_is_not_a_complex(capsys, tmp_path, value):
    rep = write_rep(tmp_path / "rep.json", [(0, 1), (1, 0)])
    data = json.loads(rep.read_text())
    data["generators"][0]["entries"][0][2] = value
    rep.write_text(json.dumps(data))
    code, out, err = run(capsys, "rep-verify", "--rep", str(rep), "--q-order", "3")
    assert (code, out) == (5, "")
    expected = f"expected {{re, im}} object, got {value!r}\n"
    assert err == "error: malformed representation file: " + expected

    params = tmp_path / "omega.json"
    run(capsys, "params-sample", "--n", "3", "--order", "3", "--seed", "2",
        "--out", str(params))
    data = json.loads(params.read_text())
    data["mTop"][0] = value
    params.write_text(json.dumps(data))
    code, out, err = run(capsys, "rep-build", "--params", str(params),
                         "--out", str(tmp_path / "out.json"))
    assert (code, out) == (5, "")
    assert err == "error: malformed parameter file: " + expected


def write_overflowing_rep(path):
    """A 3-dim representation file with entries of 1e200: the products
    overflow, and inf - inf gives nan residuals."""
    big = {"re": 1e200, "im": 0.0}
    cells = [[r, c, big] for r in range(3) for c in range(3)]
    path.write_text(json.dumps({"dim": 3, "generators": [
        {"name": "I21", "entries": cells}, {"name": "I32", "entries": cells}]}))
    return path


NAN_VERDICT = ("serre-a[2]: residual: nan\nserre-b[2]: residual: nan\n"
               "rep-verify dim=3 tol=1.000e-09: FAIL\n")


def test_exit_1_on_nan_residuals(capsys, tmp_path):
    # max() used to drop the nan residuals and print PASS
    rep = write_overflowing_rep(tmp_path / "rep.json")
    code, out, _ = run(capsys, "rep-verify", "--rep", str(rep), "--q-order", "3")
    assert code == 1
    assert out == NAN_VERDICT


@pytest.mark.parametrize("argv", [
    ["psi-verify", "--twoj", "2", "--seed", "1", "--samples", "0"],
    ["psi-verify", "--twoj", "2", "--seed", "1", "--samples", "-3"],
    ["assoc-fuzz", "--n", "3", "--seed", "1", "--trials", "0"],
    ["assoc-fuzz", "--n", "3", "--seed", "1", "--degree", "0"],
], ids=["samples-0", "samples-negative", "trials-0", "degree-0"])
def test_exit_2_on_counts_that_check_nothing(capsys, argv):
    # zero samples or trials used to print PASS having checked nothing
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "must be a positive integer" in err


OUT = ["--out", "{tmp}/omega.json"]
REP = ["--rep", "{tmp}/rep.json"]


@pytest.mark.parametrize("argv, message", [
    (["params-sample", "--n", "3", "--order", "1", "--seed", "0", *OUT],
     "uqson params-sample: error: --order/--t: order must be an integer >= 2, got 1"),
    (["params-sample", "--n", "3", "--order", "3", "--t", "3", "--seed", "0", *OUT],
     "uqson params-sample: error: --order/--t: t = 3 is not coprime to order = 3"),
    (["params-sample", "--n", "3", "--order", "5", "--t", "0", "--seed", "0", *OUT],
     "uqson params-sample: error: --order/--t: t must be a positive integer, got 0"),
    (["rep-verify", *REP, "--q-order", "1"],
     "uqson rep-verify: error: --q-order/--q-t: order must be an integer >= 2, got 1"),
    (["rep-verify", *REP, "--q-order", "4", "--q-t", "2"],
     "uqson rep-verify: error: --q-order/--q-t: t = 2 is not coprime to order = 4"),
    (["psi-verify", "--twoj", "-1", "--seed", "1"],
     "argument --twoj: must be a non-negative integer, got '-1'"),
], ids=["order-1", "t-not-coprime", "t-0", "q-order-1", "q-t-not-coprime", "twoj-negative"])
def test_exit_2_on_out_of_range_argument_values(capsys, tmp_path, argv, message):
    # no file is read or written: these used to exit 5, file or format trouble
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("order, t, message", [
    (1, 1, "order must be an integer >= 2, got 1"),
    (3, 3, "t = 3 is not coprime to order = 3"),
], ids=["order-1", "t-not-coprime"])
def test_exit_5_on_out_of_range_root_in_a_parameter_file(capsys, tmp_path, order, t, message):
    params = tmp_path / "omega.json"
    run(capsys, "params-sample", "--n", "3", "--order", "3", "--seed", "2",
        "--out", str(params))
    data = json.loads(params.read_text())
    data["orderK"], data["t"] = order, t
    params.write_text(json.dumps(data))
    rep = tmp_path / "rep.json"
    code, out, err = run(capsys, "rep-build", "--params", str(params), "--out", str(rep))
    assert (code, out) == (5, "")
    assert err == f"error: {message}\n"
    assert not rep.exists()


# -- separate processes ------------------------------------------------------------


def run_process(argv, timeout=60):
    """Run argv with the package importable from src/, as a user's shell would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, timeout=timeout, env=env,
                          cwd=ROOT)


def test_embed_verify_refuses_a_rank_above_the_maximum_at_once():
    # the rank is checked before the vector representation is built: building
    # and self-checking it first ran for more than 100 s at n = 24
    proc = run_process([sys.executable, "-m", "uqson.cli", "embed-verify", "--n", "24"],
                       timeout=10)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "error: rank 24 exceeds the supported maximum 23\n"


def test_rep_verify_reports_nan_residuals_with_clean_stderr(tmp_path):
    # numpy used to print overflow and invalid-value RuntimeWarnings first
    rep = write_overflowing_rep(tmp_path / "rep.json")
    proc = run_process([sys.executable, "-m", "uqson.cli", "rep-verify", "--rep", str(rep),
                        "--q-order", "3"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, NAN_VERDICT, "")


def test_deep_nesting_is_a_syntax_error_without_traceback():
    expression = "(" * 1101 + "I21" + ")" * 1101
    proc = run_process([sys.executable, "-m", "uqson.cli", "pbw-reduce", "--n", "3", expression])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: parentheses nest too deeply (column ")
    assert "Traceback" not in proc.stderr


def test_module_invocation_has_clean_stderr():
    proc = run_process([sys.executable, "-m", "uqson.cli", "pbw-reduce", "--n", "3", "I32*I21"])
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_REDUCE
    assert proc.stderr == ""


HEAVY = ("numpy", "scipy", "sympy", "mpmath", "hypothesis")


def test_cli_import_leaves_heavy_modules_unloaded():
    # every CLI process pays its imports (numpy about 0.15 s, scipy about
    # 0.36 s more); the verbs load them only where they compute with them
    code = (
        "import sys\n"
        f"heavy = {HEAVY!r}\n"
        "import uqson\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "import uqson.cli\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    proc = run_process([sys.executable, "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def test_import_uqson_loads_only_errors_and_lazy():
    # every other submodule and name resolves on first access, so a process
    # that reads one name compiles only the modules behind it
    code = (
        "import sys\n"
        "import uqson\n"
        "print(sorted(m for m in sys.modules if m.startswith('uqson')))\n"
        "uqson.RootOfUnity\n"
        "print(sorted(m for m in sys.modules if m.startswith('uqson')))\n"
    )
    proc = run_process([sys.executable, "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['uqson', 'uqson._lazy', 'uqson.errors']",
        "['uqson', 'uqson._lazy', 'uqson.errors', 'uqson.qnumeric']",
    ]


# the exact verbs, params-sample and rep-build run without numpy; rep-verify,
# rep-commutant and psi-verify need it. Each verb's setup runs first, in its
# own process.
VERB_ARGV = {
    "pbw-reduce": ["pbw-reduce", "--n", "3", "I32*I21"],
    "relations-verify": ["relations-verify", "--n", "4"],
    "commrel-verify": ["commrel-verify", "--n", "4", "--variant", "minus"],
    "assoc-fuzz": ["assoc-fuzz", "--n", "3", "--degree", "3", "--trials", "5", "--seed", "1"],
    "params-sample": ["params-sample", "--n", "4", "--order", "5", "--seed", "0",
                      "--out", "{tmp}/omega.json"],
    "rep-build": ["rep-build", "--params", "{tmp}/omega.json", "--out", "{tmp}/rep.json"],
    "rep-verify": ["rep-verify", "--rep", "{tmp}/rep.json", "--q-order", "5"],
    "rep-verify --commutant": ["rep-verify", "--rep", "{tmp}/rep.json", "--q-order", "5",
                               "--commutant"],
    "rep-commutant": ["rep-commutant", "--rep", "{tmp}/rep.json"],
    "embed-verify": ["embed-verify", "--n", "4"],
    "psi-verify": ["psi-verify", "--twoj", "2", "--seed", "0", "--samples", "2"],
}
SETUP = {"rep-build": ["params-sample"], "rep-verify": ["params-sample", "rep-build"],
         "rep-verify --commutant": ["params-sample", "rep-build"],
         "rep-commutant": ["params-sample", "rep-build"]}

# The symbolic PBW code: the expression parser, the straightening kernel and
# what is built on it. The rule table `_rules` and the relation table
# `_relations` are not part of it: the parser reads the variant names from
# the one, and the numeric residuals take the relations from the other.
KERNEL = ("uqson.expr", "uqson.pbw._straighten", "uqson.pbw.algebra", "uqson.pbw.classical",
          "uqson.pbw.fuzz", "uqson.pbw.printing", "uqson.pbw.verify")
# the exact coefficient ring, and the rationals it is built on
EXACT_RING = ("fractions", "uqson.coeffring")
# the verbs that compute in floating point: they load neither KERNEL nor
# EXACT_RING
PBW_FREE = {"params-sample", "rep-build", "rep-verify", "rep-verify --commutant",
            "rep-commutant", "psi-verify"}
# the verbs that read or write a JSON file as VERB_ARGV runs them
FILE_VERBS = {"params-sample", "rep-build", "rep-verify", "rep-verify --commutant",
              "rep-commutant"}
WATCHED = (*HEAVY, "numpy.random", "dataclasses", "uqson.jsonio", *KERNEL, *EXACT_RING)


def run_verb_in_process(argv):
    """Run `main(argv)` in a fresh interpreter; return the process and the
    WATCHED modules it loaded (written to stderr, so stdout is the verb's)."""
    code = (
        "import json, sys\n"
        "from uqson.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = run_process([sys.executable, "-c", code])
    return proc, set(json.loads(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize("verb, loads_numpy", [
    ("pbw-reduce", False),
    ("relations-verify", False),
    ("commrel-verify", False),
    ("assoc-fuzz", False),
    ("params-sample", False),
    ("rep-build", False),
    ("rep-verify", True),
    ("rep-verify --commutant", True),
    ("rep-commutant", True),
    ("embed-verify", False),
    ("psi-verify", True),
])
def test_verb_loads_numpy_only_when_it_computes_with_it(tmp_path, verb, loads_numpy):
    for step in SETUP.get(verb, ()):
        setup = [a.format(tmp=tmp_path) for a in VERB_ARGV[step]]
        assert run_process([sys.executable, "-m", "uqson.cli", *setup]).returncode == 0
    argv = [a.format(tmp=tmp_path) for a in VERB_ARGV[verb]]
    in_process, loaded = run_verb_in_process(argv)
    artifacts = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    module = run_process([sys.executable, "-m", "uqson.cli", *argv])
    assert in_process.returncode == module.returncode == 0, in_process.stderr
    assert in_process.stdout == module.stdout
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == artifacts
    assert loaded & set(HEAVY) == ({"numpy"} if loads_numpy else set())
    # numpy.random costs about 6 MB and 11-17 ms; the commutant certificate
    # holds its one fixed draw as a table
    assert "numpy.random" not in loaded
    # dataclasses costs about 7 ms with inspect, more than any uqson module
    assert "dataclasses" not in loaded
    assert (not loaded & set(KERNEL)) == (verb in PBW_FREE), loaded
    assert (not loaded & set(EXACT_RING)) == (verb in PBW_FREE), loaded
    assert ("uqson.jsonio" in loaded) == (verb in FILE_VERBS)


@pytest.mark.parametrize("verb", ["embed-verify", "psi-verify"])
def test_embed_and_psi_verify_load_jsonio_only_to_write_out(tmp_path, verb):
    report = tmp_path / "report.json"
    proc, loaded = run_verb_in_process([*VERB_ARGV[verb], "--out", str(report)])
    plain = run_process([sys.executable, "-m", "uqson.cli", *VERB_ARGV[verb]])
    assert proc.returncode == plain.returncode == 0, proc.stderr
    assert proc.stdout == plain.stdout
    assert "uqson.jsonio" in loaded
    assert [entry["pass"] for entry in json.loads(report.read_text())] == [
        line.endswith(("pass", "PASS")) for line in plain.stdout.splitlines()[:-1]
    ]


@pytest.mark.parametrize("order", [16, 17], ids=["d256-dense", "d289-sparse"])
def test_rep_verify_loads_no_scipy_on_either_side_of_the_dense_residual_cutoff(tmp_path, order):
    # (4,16) = 256 dims is the largest representation whose residual is taken
    # with dense products and (4,17) = 289 the smallest one taken with sparse
    # products, which are numpy code: importing scipy.sparse would cost 0.2 s
    omega, rep = tmp_path / "omega.json", tmp_path / "rep.json"
    for setup in (["params-sample", "--n", "4", "--order", str(order), "--seed", "0",
                   "--out", str(omega)],
                  ["rep-build", "--params", str(omega), "--out", str(rep)]):
        assert run_process([sys.executable, "-m", "uqson.cli", *setup]).returncode == 0
    argv = ["rep-verify", "--rep", str(rep), "--q-order", str(order)]
    code = (
        "import sys\n"
        "from uqson.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = run_process([sys.executable, "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(f"rep-verify dim={order ** 2} ")
    assert proc.stderr == "['numpy']\n"


@pytest.mark.parametrize("order", [3, 21], ids=["d6", "d42"])
def test_uncertified_commutant_fails_at_once_without_scipy(tmp_path, order):
    # T0 (+) T0 at (3,3), d = 6, and at (3,21), d = 42: its spectrum repeats,
    # so the spectral check declines, and the commutant is uncertified at
    # either dimension
    from test_reps import direct_sum

    from uqson import jsonio, reps

    t0 = reps.build_representation(reps.random_generic_params(3, order, 0))
    rep, report = tmp_path / "rep.json", tmp_path / "report.json"
    jsonio.dump_rep(direct_sum(t0, t0), rep)
    for argv, verdict in (
        (["rep-verify", "--rep", str(rep), "--q-order", str(order), "--commutant",
          "--out", str(report)], f"rep-verify dim={2 * order} tol=1.000e-09: FAIL"),
        (["rep-commutant", "--rep", str(rep)], "rep-commutant: FAIL (irreducible iff 1)"),
    ):
        code = (
            "import sys\n"
            "from uqson.cli import main\n"
            f"code = main({argv!r})\n"
            f"print(sorted(m for m in {HEAVY!r} if m in sys.modules), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = run_process([sys.executable, "-c", code], timeout=20)
        assert (proc.returncode, proc.stderr) == (1, "['numpy']\n")
        assert proc.stdout.splitlines()[-2:] == ["commutant-dim: uncertified", verdict]
    assert json.loads(report.read_text())[-1] == {"commutantDim": None}


def test_rep_commutant_is_uncertified_when_eig_fails(capsys, monkeypatch, tmp_path):
    import numpy as np
    from test_reps import failing_eig

    from uqson import jsonio, reps

    rep = tmp_path / "rep.json"
    jsonio.dump_rep(reps.build_representation(reps.random_generic_params(3, 3, 0)), rep)
    monkeypatch.setattr(np.linalg, "eig", failing_eig)
    assert run(capsys, "rep-commutant", "--rep", str(rep)) == (
        1, "commutant-dim: uncertified\nrep-commutant: FAIL (irreducible iff 1)\n", "")


VERDICT_ARGV = {
    "relations-verify": ["--n", "3"],
    "commrel-verify": ["--n", "4", "--variant", "minus"],
    "assoc-fuzz": ["--n", "3", "--trials", "2", "--seed", "0"],
    "rep-verify": ["--rep", "{rep}", "--q-order", "3", "--commutant"],
    "rep-commutant": ["--rep", "{rep}"],
    "embed-verify": ["--n", "3"],
    "psi-verify": ["--twoj", "1", "--seed", "0", "--samples", "2"],
}


@pytest.mark.parametrize("verb", sorted(VERDICT_ARGV))
@pytest.mark.parametrize("force", [None, False], ids=["as-checked", "forced-fail"])
def test_every_checking_verb_ends_in_one_verdict_line(capsys, monkeypatch, tmp_path, verb, force):
    # one helper writes the last line and picks the exit code; forcing its
    # ok to False must give FAIL and exit 1 on every verb
    from uqson import jsonio, reps

    rep = tmp_path / "rep.json"
    jsonio.dump_rep(reps.build_representation(reps.random_generic_params(3, 3, 0)), rep)
    calls, verdict = [], cli._verdict

    def spy(ok, head, tail=""):
        calls.append((ok, head, tail))
        return verdict(ok if force is None else force, head, tail)

    monkeypatch.setattr(cli, "_verdict", spy)
    argv = [arg.format(rep=rep) for arg in VERDICT_ARGV[verb]]
    code, out, err = run(capsys, verb, *argv)
    [(ok, head, tail)] = calls
    assert ok and head.startswith(verb) and err == ""  # every input here passes
    word, want = ("PASS", 0) if force is None else ("FAIL", 1)
    assert out.splitlines()[-1] == f"{head}: {word}{tail}"
    assert code == want


def console_script_argv():
    """The installed `uqson` script, or else the entry point pyproject.toml
    declares for it, called the way the generated script calls it."""
    script = shutil.which("uqson")
    if script:
        return [script]
    text = (ROOT / "pyproject.toml").read_text()
    module, func = re.search(r'^uqson = "([\w.]+):(\w+)"$', text, re.M).groups()
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


def test_console_script_matches_module_invocation():
    proc = run_process(console_script_argv() + ["pbw-reduce", "--n", "3", "I32*I21"])
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_REDUCE

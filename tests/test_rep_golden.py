"""Regression pin for parameter sampling and the representation build: the
`params-sample` and `rep-build` JSON of seeded parameter points must stay
byte-identical, and degenerate parameters must be refused at build time with
the documented message.

The digests are the sha256 of `jsonio.dumps_json(params_to_json(omega))` and
of the file `jsonio.dump_rep(ops, path)` writes, the exact bytes
`params-sample` and `rep-build` write. Any rewrite of
`reps.build_representation` or of `jsonio.dump_rep` must reproduce these
digests: every matrix entry to the last bit, in the same order.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from uqson import jsonio
from uqson.errors import DegenerateParameter
from uqson.params import ParamsOmega, assert_generic, random_generic_params
from uqson.reps import build_representation

# (n, k, seed, t) -> sha256 of the params-sample JSON
PARAMS_DIGESTS = {
    (3, 5, 0, 1): "cd96a2de3e84a08ccb638e24e9381334316ee21a8c1032b96f03566f4b257837",
    (4, 4, 0, 1): "904c8b2e83fa170b354d52f343726da7cf5853277c560c8acefe91908f8db2c8",
    (4, 5, 0, 2): "db99da657ea1b8f27eb38d486b86ebdac2bd1b28be4eafcc39a218a071cee3d6",
    (5, 5, 0, 1): "a816622108824345c39766eff95cdfbc1fd0e6cde6d04f5d2943039bbd199b71",
    (6, 3, 0, 1): "d8df85c374331426cc7e973cc05655419327b83bc5af2c020e9ce47e1d3f19a0",
}

# (n, k, seed, t) -> sha256 of the rep-build JSON
REP_DIGESTS = {
    (3, 3, 0, 1): "729c50d4e2246f04ad08cdf52beed571dce6860a254ba7bc42713ab46fa621b0",
    (3, 8, 0, 1): "d38aebb5e3c7a2b9e57f04c061061f2534540715db3ff2344c0c967caab9149e",
    (4, 3, 0, 1): "485c4e689844c047f466e97fa4482f07b711264eea330ba6a184dee49de1def5",
    (4, 4, 0, 1): "29857160ba1d6d3494f1425f7bfa3f8875c5c48b935df5562dab66f4868f0939",
    (4, 5, 0, 2): "8fae4f6bcbc704bcc8043969a3af8318b2e549fda59d6356ae83d0de6917dfcb",
    (5, 3, 0, 1): "0ca80e251ecab6d949702eac50c0c7d1a27a4fc6400dbaf6766b9980d527aebf",
    (5, 5, 0, 1): "0775c98074ae13e26cc936987ebbd52bff27be547361665d8455a56ce27a2666",
    (6, 3, 0, 1): "2487f0993f3d8d6442493015ca9bd2f324fdb508a6f1a2e4d8511b3469f2363e",
}


@pytest.mark.parametrize("n, k, seed, t", sorted(PARAMS_DIGESTS))
def test_params_sample_json_pinned(n, k, seed, t):
    omega = random_generic_params(n, k, seed, t)
    blob = jsonio.dumps_json(jsonio.params_to_json(omega))
    assert hashlib.sha256(blob.encode()).hexdigest() == PARAMS_DIGESTS[(n, k, seed, t)]


def rep_file_digest(ops, path):
    jsonio.dump_rep(ops, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("n, k, seed, t", sorted(REP_DIGESTS))
def test_rep_build_json_pinned(tmp_path, n, k, seed, t):
    ops = build_representation(random_generic_params(n, k, seed, t))
    assert rep_file_digest(ops, tmp_path / "rep.json") == REP_DIGESTS[(n, k, seed, t)]


# A hand-written (5,3) parameter file: real h and m_top whose imaginary parts
# are 0.0 and -0.0. cmath sends 0j and -0j to opposite branches, so a
# signed zero that reached the bracket memo under a key on the complex value
# could change output bits. Digest recorded before the memo existed.
SIGNED_ZERO_PARAMS = """{
  "n": 5, "orderK": 3, "t": 1,
  "mTop": [{"re": 0.613, "im": 0.0}, {"re": 0.271, "im": -0.0}],
  "h": [
    {"i": 1, "j": 2, "value": {"re": 0.137, "im": -0.0}},
    {"i": 1, "j": 3, "value": {"re": 0.382, "im": 0.0}},
    {"i": 1, "j": 4, "value": {"re": 0.744, "im": -0.0}},
    {"i": 2, "j": 4, "value": {"re": 0.219, "im": 0.0}}
  ],
  "c": [
    {"i": 1, "j": 2, "value": {"re": 1.25, "im": -0.0}},
    {"i": 1, "j": 3, "value": {"re": -0.8, "im": 0.0}},
    {"i": 1, "j": 4, "value": {"re": 0.9, "im": -0.0}},
    {"i": 2, "j": 4, "value": {"re": 1.1, "im": 0.0}}
  ]
}"""
SIGNED_ZERO_DIGEST = "8ec7da9a416aae4c3dd97375883b6ba6ba52ef2237e6660797f1c38e6ede3e00"


def test_rep_build_json_pinned_with_signed_zero_imaginary_parts(tmp_path):
    omega = jsonio.params_from_json(json.loads(SIGNED_ZERO_PARAMS))
    assert math.copysign(1.0, omega.h[(1, 2)].imag) == -1.0  # the file's -0.0 survives
    assert_generic(omega)
    ops = build_representation(omega)
    assert rep_file_digest(ops, tmp_path / "rep.json") == SIGNED_ZERO_DIGEST


def _with_h(n, k, seed, slot, value):
    base = random_generic_params(n, k, seed)
    h = dict(base.h)
    h[slot] = value(h)
    return ParamsOmega(n=n, root=base.root, m_top=base.m_top, h=h, c=base.c)


def test_integral_same_row_difference_is_refused_at_build():
    # l_{1,4} - l_{2,4} = 3, and [3] = 0 at k = 3: a shift denominator vanishes
    omega = _with_h(5, 3, 2, (1, 4), lambda h: h[(2, 4)] + 2.0)
    message = r"^vanishing denominator bracket \[l_1,4-l_2,4\] = \["
    with pytest.raises(DegenerateParameter, match=message):
        build_representation(omega)


def test_vanishing_q_power_sum_is_refused_at_build():
    # l_{1,2} = 3/4 at k = 3: q^l + q^-l = 2 cos(pi/2) = 0
    omega = _with_h(4, 3, 2, (1, 2), lambda h: 0.75)
    message = r"^vanishing denominator q\^l\+q\^-l at l_1,2 = \(0\.75\+0j\)$"
    with pytest.raises(DegenerateParameter, match=message):
        build_representation(omega)

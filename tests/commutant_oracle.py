"""Test oracle for the commutant: the dense Sylvester solve.

`uqson.reps.commutant_certificate` decides the commutant from an eigenbasis
graph that it checks after the fact, and reports what it cannot check as
uncertified. This module keeps the dense solve that was once its fallback.
Its fixed rank threshold cannot tell a coupling near rounding from zero (it
answers 2 on the (4,4) operators with a coupling of 10 beta between their
two invariant subspaces), so it serves only as an oracle: the tests compare
it with the certificate where that certifies, and read it on the inputs the
certificate declines.
"""

from __future__ import annotations

from uqson.reps import _common_dim


def _sylvester_dimension(ops):
    """Commutant dimension from the stacked Sylvester system on d^2 unknowns,
    through a dense SVD; singular values below 1e-8 * sigma_max count as
    zero. The test oracle of commutant_certificate.
    """
    import numpy as np

    d = _common_dim(ops)
    eye = np.eye(d)
    blocks = [np.kron(eye, t) - np.kron(t.T, eye) for t in (op.to_dense() for op in ops)]
    m = np.vstack(blocks)
    if not m.any():
        return d * d
    sigma = np.linalg.svd(m, compute_uv=False)
    return int((sigma < 1e-8 * sigma[0]).sum())

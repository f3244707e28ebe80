"""Shared helpers for the test suite."""

import numpy as np

from qcflow import tensor
from qcflow.operators import Jet2Sample


def random_jet(rng, n, scale=0.3, min_det=0.05):
    """Random well-conditioned second-order jet with symmetric Hessian."""
    while True:
        j = np.eye(n) + scale * rng.standard_normal((n, n))
        if np.linalg.det(j) > min_det:
            break
    h = rng.standard_normal((n, n, n))
    h = 0.5 * (h + np.swapaxes(h, 1, 2))
    x = rng.standard_normal(n)
    return Jet2Sample(x=x, u=rng.standard_normal(n), J=j, H=h)


def random_posdet(rng, n, scale=0.3, min_det=0.05):
    """Random matrix with determinant bounded away from zero."""
    while True:
        q = np.eye(n) + scale * rng.standard_normal((n, n))
        if np.linalg.det(q) > min_det:
            return q


def count_determinants(monkeypatch) -> list:
    """Record each determinant taken from now on: n for the kernel's (tensor._det), the shape for LAPACK's."""
    calls = []
    kernel_det, lapack_det = tensor._det, np.linalg.det

    def counted_kernel(e, c, n):
        calls.append(n)
        return kernel_det(e, c, n)

    def counted_lapack(a):
        calls.append(("lapack", np.shape(a)))
        return lapack_det(a)

    monkeypatch.setattr(tensor, "_det", counted_kernel)
    monkeypatch.setattr(np.linalg, "det", counted_lapack)
    return calls

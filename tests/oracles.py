"""Test-only oracles: finite-difference jets, a plain chain fold and a path-integral drift check.

None is part of the package; the tests check the exact jets, the folded
composites and the differential-drift identity against them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from qcflow.errors import RowSwitched
from qcflow.flowlines import FlowTrajectory
from qcflow.maps import SmoothMap, _chain
from qcflow.tensor import _dilation_field


def fd_map(value_fn: Callable[[np.ndarray], np.ndarray], n: int, h: float) -> SmoothMap:
    """Map defined by a value function with centered-difference jets.

    value_fn takes a stack of points (..., n), as the samplers do. h is
    the difference step, fixed for every point. First and second
    derivatives both converge at order two; the mixed second derivatives
    are symmetrized.
    """

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        u = np.asarray(value_fn(x), dtype=float)
        j = np.zeros(x.shape[:-1] + (n, n))
        hess = np.zeros(x.shape[:-1] + (n, n, n))
        shifts = h * np.eye(n)
        plus = [np.asarray(value_fn(x + shifts[a]), dtype=float) for a in range(n)]
        minus = [np.asarray(value_fn(x - shifts[a]), dtype=float) for a in range(n)]
        for a in range(n):
            j[..., :, a] = (plus[a] - minus[a]) / (2.0 * h)
            hess[..., :, a, a] = (plus[a] - 2.0 * u + minus[a]) / h**2
        for a in range(n):
            for b in range(a + 1, n):
                pp = np.asarray(value_fn(x + shifts[a] + shifts[b]), dtype=float)
                pm = np.asarray(value_fn(x + shifts[a] - shifts[b]), dtype=float)
                mp = np.asarray(value_fn(x - shifts[a] + shifts[b]), dtype=float)
                mm = np.asarray(value_fn(x - shifts[a] - shifts[b]), dtype=float)
                mixed = (pp - pm - mp + mm) / (4.0 * h**2)
                hess[..., :, a, b] = mixed
                hess[..., :, b, a] = mixed
        return u, j, hess

    return SmoothMap(n=n, jet_fn=jet_fn)


def chained_map(composite) -> SmoothMap:
    """The composite's factors folded by a plain _chain, one factor after another.

    No product is precomputed and no factor is sign-checked: each factor's
    own sampler is taken at the previous factor's value, innermost first,
    and chained onto the jet so far.
    """

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        jet = (x,)
        for factor in composite.factors:
            raw = factor.jet_fn(jet[0], order)[: order + 1]
            jet = raw if len(jet) == 1 else _chain(raw, jet)
        return jet

    return SmoothMap(n=composite.n, jet_fn=jet_fn)


def path_integral_residual(mapping, trajectory: FlowTrajectory, row_index: int) -> float:
    """Fundamental-theorem check of the row-i differential drift.

    Integrates the chain-rule derivative of Jacobian row i along the
    recorded velocity and compares with the endpoint drift; the residual
    shrinks at second order in the step. Diagnostic companion to
    du_recovery_check with an integrand valid for every smooth map.
    """
    if not np.all(trajectory.row == row_index):
        raise RowSwitched("trajectory changed active row")
    i = int(row_index) - 1
    jets = [mapping.jet(x) for x in trajectory.x]
    integrand = np.array([np.einsum("lj,l->j", j.H[i], sign * _dilation_field(j.J)[1][i])
                          for j, sign in zip(jets, trajectory.sign)])
    integral = np.trapezoid(integrand, trajectory.s, axis=0)
    drift = jets[-1].J[i] - jets[0].J[i]
    return float(np.max(np.abs(drift - integral)))

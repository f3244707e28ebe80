"""Distortion-driven differential operators evaluated on pointwise jets.

The central objects are the power-law flux A(q), its linearization in q,
and the degenerate second-order operators built from them: the finite-p
operator in divergence and non-divergence form, and the infinite-p
operator in a factored form and an equivalent flow form. Large powers are
handled in log-domain so p up to about 10^3 stays finite.

On grids the non-divergence operator is evaluated by _contracted_operator,
which contracts the linearization with the Hessian in O(n^3) per node on
entry-first stacks and is what the gradient flow steps with. The n^4
flux_linearization stays for gradientflow.dtmax (which needs the
coefficient mass), lh_witness and lp_nondiv, and is the oracle the verify
suites and tests compare against; on single points np.linalg is faster
than the closed-form kernel. Every kernel that takes a Jacobian, Jet2Sample
included, validates it through tensor._checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedRegime
from .tensor import (
    _checked,
    _checked_det_adj,
    _dilation_field,
    _norm_sq,
    ahlfors,
    distortion_tensor,
    trace_dilation,
)

# Orientation of the large-p limit: the normalized finite-p operator
# converges to +1 times the factored infinite-p operator. Calibrated
# numerically at p=1000 against the factored form and fixed here.
ASYMPTOTIC_SIGN = +1.0


@dataclass
class Jet2Sample:
    """Second-order jet of a map at one point, validated on construction.

    Maps build exactly one per public SmoothMap.jet call; their internals
    (generator words, composition, perturbations) pass raw (u, J, H)
    arrays and sign-check only composition factors that can fold.

    x: evaluation point, length n.
    u: map value at x, length n.
    J: Jacobian, J[i, j] = d_j u^i, positive determinant.
    H: Hessian, H[k, j, l] = d_j d_l u^k, symmetric in (j, l).
    """

    x: np.ndarray
    u: np.ndarray
    J: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.J, n, _ = _checked(self.J)
        self.H = np.asarray(self.H, dtype=float)
        if self.H.shape != (n, n, n):
            raise ValueError(f"Hessian shape {self.H.shape} does not match n={n}")
        scale = np.max(np.abs(self.H)) + 1e-30
        if np.max(np.abs(self.H - np.swapaxes(self.H, 1, 2))) > 1e-6 * scale:
            raise ValueError("Hessian not symmetric in its derivative indices")


@dataclass
class EllipticityWitness:
    """One evaluation of the rank-one quadratic form with its bounds."""

    q: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    p: float
    quadForm: float
    lower: float
    upper: float


def _power_weight(nsq, det, num_pow: float, det_pow: float) -> np.ndarray:
    """|q|^num_pow / det^det_pow computed in log-domain."""
    return np.exp(0.5 * num_pow * np.log(nsq) - det_pow * np.log(det))


def flux(q, p: float) -> np.ndarray:
    """Power-law flux matrix A[i, j] at gradient q.

    A(q) = -p (q^{-T} - n q / |q|^2) |q|^{np} / (det q)^p. Conformal q
    annihilates it, and the full contraction A[i, j] q[i, j] is zero for
    every q.
    """
    a, n, d = _checked(q)
    nsq = _norm_sq(a)
    qinv_t = np.swapaxes(np.linalg.inv(a), -1, -2)
    w = _power_weight(nsq, d, n * p, p)
    bracket = qinv_t - n * a / nsq[..., None, None]
    return -p * w[..., None, None] * bracket


def _a4_bracket(q: np.ndarray, p: float) -> np.ndarray:
    """Bracket of the flux linearization, the part without the scalar weight.

    flux_linearization = -p |q|^{np-2}/(det q)^p * bracket. Exposed
    separately so large-p ratios can cancel the weight exactly.
    """
    n = q.shape[-1]
    nsq = _norm_sq(q)
    qi = np.linalg.inv(q)
    t1 = np.einsum("...ji,...kl->...ikjl", qi, q) + np.einsum(
        "...ij,...lk->...ikjl", q, qi
    )
    t2 = np.einsum("...ij,...kl->...ikjl", q, q) / nsq[..., None, None, None, None]
    t3 = np.einsum("...jk,...li->...ikjl", qi, qi) + p * np.einsum(
        "...ji,...lk->...ikjl", qi, qi
    )
    eye4 = np.einsum("ik,jl->ikjl", np.eye(n), np.eye(n))
    return (
        n * p * t1
        - n * (n * p - 2.0) * t2
        - nsq[..., None, None, None, None] * t3
        - n * eye4
    )


def _contracted_operator(q: np.ndarray, hess: np.ndarray, p: float) -> np.ndarray:
    """flux_linearization contracted with a Hessian, without the n^4 tensor.

    Takes entry-first stacks q[k, l, ...] and hess[k, j, l, ...] and
    returns the non-divergence operator as out[i, ...]. Each _a4_bracket
    term contracts to a partial trace of the Hessian, with
    v_j = q[k,l] H[k,j,l], w_j = q^{-1}[l,k] H[k,j,l] and
    w'_l = q^{-1}[j,k] H[k,j,l]:
        bracket.H = np (q^{-T} v + q w) - n(np-2)/|q|^2 q v
                    - |q|^2 (q^{-T} w' + p q^{-T} w) - n H[i,j,j].
    w' is kept apart from w, so the result equals the full contraction
    for any Hessian, symmetric or not. O(n^3) per node.
    """
    n = q.shape[0]
    det, adj = _checked_det_adj(q)
    qi = adj / det
    nsq = np.sum(q * q, axis=(0, 1))
    v = np.einsum("kl...,kjl...->j...", q, hess)
    w = np.einsum("lk...,kjl...->j...", qi, hess)
    w_prime = np.einsum("jk...,kjl...->l...", qi, hess)
    bracket = (
        np.einsum("ji...,j...->i...", qi, n * p * v - nsq * (w_prime + p * w))
        + np.einsum("ij...,j...->i...", q, n * p * w - (n * (n * p - 2.0) / nsq) * v)
        - n * np.einsum("ijj...->i...", hess)
    )
    return -p * _power_weight(nsq, det, n * p - 2.0, p) * bracket


def flux_linearization(q, p: float) -> np.ndarray:
    """Derivative of the flux in its matrix argument, indexed [i, k, j, l].

    Entry [i, k, j, l] is the sensitivity of A[i, j] to q[k, l]; the array
    is symmetric under the pair swap (i, j) <-> (k, l) because the flux is
    itself a gradient.
    """
    a, n, d = _checked(q)
    nsq = _norm_sq(a)
    w = _power_weight(nsq, d, n * p - 2.0, p)
    return -p * w[..., None, None, None, None] * _a4_bracket(a, p)


def lh_witness(q, xi, eta, p: float) -> EllipticityWitness:
    """Rank-one ellipticity check at one (q, xi, eta) triple.

    Directions are normalized internally. The quadratic form contracts
    eta on the component slots and xi on the derivative slots, and must
    land between c1*p*m1 and c2*p^2*(m1+m2) where m1, m2 are the two
    weight scales of the flux linearization.
    """
    a, n, d = _checked(q)
    if p < 1.0 or (n == 2 and p == 1.0):
        raise UnsupportedRegime(f"no ellipticity constants for n={n}, p={p}")
    nsq = _norm_sq(a)
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    nx, ne = np.linalg.norm(xi), np.linalg.norm(eta)
    if nx == 0.0 or ne == 0.0:
        raise ValueError("ellipticity directions must be nonzero")
    xi, eta = xi / nx, eta / ne
    if n == 2:
        c1 = 2.0 * (p - 1.0) / (p + 1.0)
    elif n == 3:
        # the p-form (6p-3)/(p+1) crosses the flat constant n at p=2 and is
        # invalid past it: the form attains n*p*m1 at conformal points with
        # orthogonal directions, for every p. Tests pin a counterexample.
        c1 = min(3.0, (6.0 * p - 3.0) / (p + 1.0))
    else:
        c1 = float(n)
    c2 = 100.0 * n**3
    a4 = flux_linearization(a, p)
    quad = float(np.einsum("ikjl,i,j,k,l->", a4, eta, xi, eta, xi))
    m1 = float(_power_weight(nsq, d, n * p - 2.0, p))
    m2 = float(_power_weight(nsq, d, n * (p + 2.0) - 2.0, p + 2.0))
    return EllipticityWitness(
        q=a,
        xi=xi,
        eta=eta,
        p=p,
        quadForm=quad,
        lower=c1 * p * m1,
        upper=c2 * p * p * (m1 + m2),
    )


def lp_nondiv(sample: Jet2Sample, p: float) -> np.ndarray:
    """Finite-p operator in non-divergence form: linearized flux against the Hessian."""
    a4 = flux_linearization(sample.J, p)
    return np.einsum("ikjl,kjl->i", a4, sample.H)


def lp_divergence(mapping, x, p: float, h: float) -> np.ndarray:
    """Finite-p operator as a central-difference divergence of the flux field.

    Samples the mapping's Jacobian on a stencil of radius h around x;
    converges to lp_nondiv at second order in h.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros(n)
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        a_plus = flux(mapping.jacobian(x + step), p)
        a_minus = flux(mapping.jacobian(x - step), p)
        out += (a_plus[:, j] - a_minus[:, j]) / (2.0 * h)
    return out


def linfty_factored(sample: Jet2Sample) -> np.ndarray:
    """Infinite-p operator as a product of two copies of M = n J - |J|^2 J^{-T}."""
    j, n, _ = _checked(sample.J)
    nsq = float(_norm_sq(j))
    m = n * j - nsq * np.swapaxes(np.linalg.inv(j), -1, -2)
    return np.einsum("ij,kl,kjl->i", m, m, sample.H)


def dilation_gradient(sample: Jet2Sample) -> np.ndarray:
    """Spatial gradient of the trace dilation along the jet.

    Chain rule through the Jacobian entries: the matrix derivative of K
    is K^{-1} S(g) J^{-T}, taken in closed form by tensor._dilation_field
    and contracted with the Hessian.
    """
    k, field = _dilation_field(sample.J)
    return np.einsum("kl,kjl->j", field / k, sample.H)


def linfty_flowform(sample: Jet2Sample) -> np.ndarray:
    """Infinite-p operator written through the dilation gradient.

    Equal to linfty_factored as an algebraic identity: rows are
    n^2 |J|^4 / K^3 times S(g) J^{-T} applied to grad K.
    """
    j, n, _ = _checked(sample.J)
    nsq = float(_norm_sq(j))
    k = float(trace_dilation(j))
    sg = ahlfors(distortion_tensor(j))
    p_mat = sg @ np.swapaxes(np.linalg.inv(j), -1, -2)
    grad_k = np.einsum("kl,kjl->j", p_mat / k, sample.H)
    return (n * n * nsq * nsq / k**3) * (p_mat @ grad_k)


def lp_asymptotic_ratio(sample: Jet2Sample, p: float) -> np.ndarray:
    """Finite-p operator divided by its large-p scale p^2 |J|^{np-4}/(det J)^p.

    Computed in a cancelled form, -(|J|^2/p) times the bracket of the
    linearization against the Hessian, so no overflow occurs for large p.
    Converges to ASYMPTOTIC_SIGN * linfty_factored at rate O(1/p).
    """
    j = _checked(sample.J)[0]
    nsq = float(_norm_sq(j))
    bracket = _a4_bracket(j, p)
    return -(nsq / p) * np.einsum("ikjl,kjl->i", bracket, sample.H)


def b_tensor(j, p: float) -> np.ndarray:
    """Symmetric diagnostic tensor p (I - n J J^T / |J|^2) |J|^{np} / (det J)^p.

    Its quadratic form vanishes on conformal Jacobians but carries no
    fixed sign in general.
    """
    a, n, d = _checked(j)
    nsq = _norm_sq(a)
    w = _power_weight(nsq, d, n * p, p)
    jjt = np.einsum("...ik,...jk->...ij", a, a)
    return p * w[..., None, None] * (np.eye(n) - n * jjt / nsq[..., None, None])

"""Distortion-driven differential operators evaluated on pointwise jets.

The central objects are the power-law flux A(q), its linearization in q,
and the degenerate second-order operators built from them: the finite-p
operator in divergence and non-divergence form, and the infinite-p
operator in a factored form and an equivalent flow form. Large powers are
handled in log-domain so p up to about 10^3 stays finite.

Every pointwise function here takes leading stack axes, as the tensor
kernels and the map samplers do: Jet2Sample, flux, flux_linearization,
lh_witness, lp_nondiv, linfty_factored, dilation_gradient,
linfty_flowform, lp_asymptotic_ratio and b_tensor. A single point is a
stack with no leading axes, and each row of a stack is bit-equal to the
call on that row alone, so the verify suites check a whole case's draws
in one call. lp_divergence samples a map around one point.

On grids the non-divergence operator is evaluated in two steps, which the
gradient flow steps with. _operator_coefficients prepares a coefficient
Jacobian's inverse and power weight once, from the determinant, adjugate
and |q|^2 its caller, gradientflow, computed and checked once per grid
state; _contracted_operator contracts them with a Hessian in O(n^3) per
node on entry-first stacks, so coefficients frozen over many steps are
prepared once. The n^4 flux_linearization stays for gradientflow.dtmax
(which needs the coefficient mass), lh_witness and lp_nondiv, and is the
oracle the verify suites and tests compare against. Every kernel here
that takes a Jacobian on its own, Jet2Sample included, validates it
through tensor._checked, which gives its det and |q|^2, and takes q^{-T}
from tensor._inverse_t: tensor's one kernel at every n, on floats for
one point and on node arrays for a stack, so each row has the bits of
its call alone, and q^{-T} is cofactor / det, the grid's adj / det.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedRegime
from .tensor import (
    _checked,
    _dilation_field,
    _inverse_t,
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
    """Second-order jet of a map at a point or a stack of points, validated on construction.

    SmoothMap.jet builds one for a single point; a caller that samples a
    stack of points through jet_fn builds one for the whole stack. The
    accessors value, jacobian and hessian, and the map internals
    (generator words, composition), pass raw arrays, and composition
    sign-checks only the factors that can fold. Each row is checked on
    its own: every J must have positive determinant, and every H must be
    symmetric to 1e-6 of its own largest entry.

    x: evaluation points, shape (..., n).
    u: map values at x, shape (..., n).
    J: Jacobians, J[..., i, j] = d_j u^i, positive determinant.
    H: Hessians, H[..., k, j, l] = d_j d_l u^k, symmetric in (j, l).
    """

    x: np.ndarray
    u: np.ndarray
    J: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.J, n = _checked(self.J)[:2]
        self.H = np.asarray(self.H, dtype=float)
        if self.H.shape != self.J.shape[:-2] + (n, n, n):
            raise ValueError(f"Hessian shape {self.H.shape} does not match Jacobian shape {self.J.shape}")
        axes = (-3, -2, -1)
        scale = np.max(np.abs(self.H), axis=axes) + 1e-30
        if np.any(np.max(np.abs(self.H - np.swapaxes(self.H, -2, -1)), axis=axes) > 1e-6 * scale):
            raise ValueError("Hessian not symmetric in its derivative indices")


@dataclass
class EllipticityWitness:
    """The rank-one quadratic form with its bounds, at one triple or a stack of them."""

    q: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    p: float
    quadForm: float | np.ndarray
    lower: float | np.ndarray
    upper: float | np.ndarray


def _power_weight(nsq, det, num_pow: float, det_pow: float) -> np.ndarray:
    """|q|^num_pow / det^det_pow computed in log-domain."""
    return np.exp(0.5 * num_pow * np.log(nsq) - det_pow * np.log(det))


def flux(q, p: float) -> np.ndarray:
    """Power-law flux matrix A[i, j] at gradient q.

    A(q) = -p (q^{-T} - n q / |q|^2) |q|^{np} / (det q)^p. Conformal q
    annihilates it, and the full contraction A[i, j] q[i, j] is zero for
    every q.
    """
    a, n, d, nsq = _checked(q)
    bracket = _inverse_t(a, d) - n * a / nsq[..., None, None]
    return -p * _power_weight(nsq, d, n * p, p)[..., None, None] * bracket


def _a4_bracket(q: np.ndarray, d: np.ndarray, nsq: np.ndarray, p: float) -> np.ndarray:
    """Bracket of the flux linearization of a checked q with det d, the part without the scalar weight.

    flux_linearization = -p |q|^{np-2}/(det q)^p * bracket. Exposed
    separately so large-p ratios can cancel the weight exactly. The terms
    accumulate in place, so a stack holds at most three n^4 arrays at once,
    into a C-ordered result: the contractions callers take of it sum in
    memory order, so its layout fixes their bits.
    """
    n = q.shape[-1]
    nsq = nsq[..., None, None, None, None]
    qi = np.swapaxes(_inverse_t(q, d), -1, -2)
    out = np.einsum("...ji,...kl->...ikjl", qi, q, order="C")
    out += np.einsum("...ij,...lk->...ikjl", q, qi)
    out *= n * p
    term = np.einsum("...ij,...kl->...ikjl", q, q)
    term /= nsq
    term *= n * (n * p - 2.0)
    out -= term
    term = np.einsum("...ji,...lk->...ikjl", qi, qi)
    term *= p
    term += np.einsum("...jk,...li->...ikjl", qi, qi)
    term *= nsq
    out -= term
    out -= n * np.einsum("ik,jl->ikjl", np.eye(n), np.eye(n))
    return out


def _operator_coefficients(q: np.ndarray, det: np.ndarray, adj: np.ndarray, nsq: np.ndarray,
                           p: float) -> tuple:
    """Prepare entry-first q[k, l, ...] once for _contracted_operator.

    det[...], adj[k, l, ...] and nsq[...] are q's determinant, adjugate
    and |q|^2 as the caller computed and checked them (finite q, positive
    det). Returns (q, qi, nsq, scale, p): the inverse qi = adj / det and
    the weight scale = -p |q|^{np-2} / (det q)^p join q, |q|^2 and p, and
    _contracted_operator contracts them with any number of Hessians.
    """
    n = q.shape[0]
    return q, adj / det, nsq, -p * _power_weight(nsq, det, n * p - 2.0, p), p


def _contracted_operator(coeff: tuple, hess: np.ndarray) -> np.ndarray:
    """flux_linearization contracted with a Hessian, without the n^4 tensor.

    Takes the coefficients _operator_coefficients prepared and an
    entry-first hess[k, j, l, ...], and returns the non-divergence
    operator as out[i, ...]. Each _a4_bracket term contracts to a partial
    trace of the Hessian, with
    v_j = q[k,l] H[k,j,l], w_j = q^{-1}[l,k] H[k,j,l] and
    w'_l = q^{-1}[j,k] H[k,j,l]:
        bracket.H = np (q^{-T} v + q w) - n(np-2)/|q|^2 q v
                    - |q|^2 (q^{-T} w' + p q^{-T} w) - n H[i,j,j].
    w' is kept apart from w, so the result equals the full contraction
    for any Hessian, symmetric or not. O(n^3) per node.
    """
    q, qi, nsq, scale, p = coeff
    n = q.shape[0]
    v = np.einsum("kl...,kjl...->j...", q, hess)
    w = np.einsum("lk...,kjl...->j...", qi, hess)
    w_prime = np.einsum("jk...,kjl...->l...", qi, hess)
    bracket = (
        np.einsum("ji...,j...->i...", qi, n * p * v - nsq * (w_prime + p * w))
        + np.einsum("ij...,j...->i...", q, n * p * w - (n * (n * p - 2.0) / nsq) * v)
        - n * np.einsum("ijj...->i...", hess)
    )
    return scale * bracket


def flux_linearization(q, p: float) -> np.ndarray:
    """Derivative of the flux in its matrix argument, indexed [i, k, j, l].

    Entry [i, k, j, l] is the sensitivity of A[i, j] to q[k, l]; the array
    is symmetric under the pair swap (i, j) <-> (k, l) because the flux is
    itself a gradient.
    """
    a, n, d, nsq = _checked(q)
    out = _a4_bracket(a, d, nsq, p)
    out *= -p * _power_weight(nsq, d, n * p - 2.0, p)[..., None, None, None, None]
    return out


def lh_witness(q, xi, eta, p: float) -> EllipticityWitness:
    """Rank-one ellipticity check at one (q, xi, eta) triple, or a stack of them.

    q has shape (..., n, n) and xi, eta shape (..., n); quadForm, lower
    and upper have the stack shape. Directions are normalized internally.
    The quadratic form contracts eta on the component slots and xi on the
    derivative slots, and must land between c1*p*m1 and c2*p^2*(m1+m2)
    where m1, m2 are the two weight scales of the flux linearization.
    """
    a, n, d, nsq = _checked(q)
    if p < 1.0 or (n == 2 and p == 1.0):
        raise UnsupportedRegime(f"no ellipticity constants for n={n}, p={p}")
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    # each row's dot product, as np.linalg.norm of one vector takes it
    nx, ne = np.sqrt(np.vecdot(xi, xi)), np.sqrt(np.vecdot(eta, eta))
    if np.any(nx == 0.0) or np.any(ne == 0.0):
        raise ValueError("ellipticity directions must be nonzero")
    xi, eta = xi / nx[..., None], eta / ne[..., None]
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
    m1 = _power_weight(nsq, d, n * p - 2.0, p)
    a4 = _a4_bracket(a, d, nsq, p)
    a4 *= -p * m1[..., None, None, None, None]  # flux_linearization, with the weight m1 made once
    quad = np.einsum("...ikjl,...i,...j,...k,...l->...", a4, eta, xi, eta, xi)
    m2 = _power_weight(nsq, d, n * (p + 2.0) - 2.0, p + 2.0)
    return EllipticityWitness(
        q=a,
        xi=xi,
        eta=eta,
        p=p,
        quadForm=quad[()],
        lower=(c1 * p * m1)[()],
        upper=(c2 * p * p * (m1 + m2))[()],
    )


def lp_nondiv(sample: Jet2Sample, p: float) -> np.ndarray:
    """Finite-p operator in non-divergence form: linearized flux against the Hessian."""
    a4 = flux_linearization(sample.J, p)
    return np.einsum("...ikjl,...kjl->...i", a4, sample.H)


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
    j, n, d, nsq = _checked(sample.J)
    m = n * j - nsq[..., None, None] * _inverse_t(j, d)
    return np.einsum("...ij,...kl,...kjl->...i", m, m, sample.H)


def dilation_gradient(sample: Jet2Sample) -> np.ndarray:
    """Spatial gradient of the trace dilation along the jet.

    Chain rule through the Jacobian entries: the matrix derivative of K
    is K^{-1} S(g) J^{-T}, taken in closed form by tensor._dilation_field
    and contracted with the Hessian.
    """
    k, field = _dilation_field(sample.J)
    return np.einsum("...kl,...kjl->...j", field / k[..., None, None], sample.H)


def linfty_flowform(sample: Jet2Sample) -> np.ndarray:
    """Infinite-p operator written through the dilation gradient.

    Equal to linfty_factored as an algebraic identity: rows are
    n^2 |J|^4 / K^3 times S(g) J^{-T} applied to grad K.
    """
    j, n, _, nsq = _checked(sample.J)
    k = trace_dilation(j)
    sg = ahlfors(distortion_tensor(j))
    p_mat = sg @ np.swapaxes(np.linalg.inv(j), -1, -2)
    grad_k = np.einsum("...kl,...kjl->...j", p_mat / k[..., None, None], sample.H)
    weight = n * n * nsq * nsq / np.float_power(k, 3)  # pow, as a single float's ** takes it
    # a matrix-column product keeps the bits of one point's matrix-vector product
    return weight[..., None] * (p_mat @ grad_k[..., None])[..., 0]


def lp_asymptotic_ratio(sample: Jet2Sample, p: float) -> np.ndarray:
    """Finite-p operator divided by its large-p scale p^2 |J|^{np-4}/(det J)^p.

    Computed in a cancelled form, -(|J|^2/p) times the bracket of the
    linearization against the Hessian, so no overflow occurs for large p.
    Converges to ASYMPTOTIC_SIGN * linfty_factored at rate O(1/p).
    """
    j, _, d, nsq = _checked(sample.J)
    bracket = _a4_bracket(j, d, nsq, p)
    return -(nsq[..., None] / p) * np.einsum("...ikjl,...kjl->...i", bracket, sample.H)


def b_tensor(j, p: float) -> np.ndarray:
    """Symmetric diagnostic tensor p (I - n J J^T / |J|^2) |J|^{np} / (det J)^p.

    Its quadratic form vanishes on conformal Jacobians but carries no
    fixed sign in general.
    """
    a, n, d, nsq = _checked(j)
    w = _power_weight(nsq, d, n * p, p)
    jjt = np.einsum("...ik,...jk->...ij", a, a)
    return p * w[..., None, None] * (np.eye(n) - n * jjt / nsq[..., None, None])

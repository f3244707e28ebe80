"""Tangential dilation of map restrictions to spheres and hyperplanes.

Builds the pair of adapted orthonormal frames (source tangent basis plus
image frame aligned with the pushed-forward tangent space), the block
decomposition of the Jacobian in those frames, the one-way inequality
between tangential and ambient dilation, and the critical-case equality
under the normal-eigenvector hypothesis.

The frame and record maths take leading stack axes, as operators does:
a single point is a stack with no leading axes, and each row is
bit-equal to its call alone. Norms are sqrt(vecdot), the dot product
np.linalg.norm takes for one vector. critical_equality_check takes a
stack of Jacobians and normals, and _inequality_records takes a stack of
linear maps and surface points, which the verify suite's unit-sphere
draws check in one call. Every per-row check still holds: a point off
the surface, a Jacobian _checked refuses, a degenerate tangent or normal
image, or a normal off the eigenvector hypothesis in any one row raises
what that row's own call raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTangentImage, HypothesisViolated
from .maps import SmoothMap
from .tensor import _checked, _pow

_DEPENDENCY_TOL = 1e-10
_EIGEN_TOL = 1e-8
_ON_SURFACE_TOL = 1e-9


@dataclass(frozen=True)
class Sphere:
    """Sphere hypersurface given by center and radius."""

    center: tuple
    radius: float

    def normal_at(self, x) -> np.ndarray:
        d = np.asarray(x, dtype=float) - np.asarray(self.center, dtype=float)
        r = _norm(d)
        if (abs(r - self.radius) > _ON_SURFACE_TOL * (1.0 + self.radius)).any():
            raise ValueError("point is not on the sphere")
        return d / r[..., None]


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane {x : <x, normal> = offset}."""

    normal: tuple
    offset: float = 0.0

    def normal_at(self, x) -> np.ndarray:
        nu = np.asarray(self.normal, dtype=float)
        nu = nu / _norm(nu)
        if (abs(np.vecdot(np.asarray(x, dtype=float), nu) - self.offset) > _ON_SURFACE_TOL * (
            1.0 + abs(self.offset)
        )).any():
            raise ValueError("point is not on the hyperplane")
        return nu


@dataclass
class AdaptedFrame:
    """Orthonormal frames adapted to a hypersurface and its image.

    tangent rows span the source tangent space at x, w_tangent rows span
    the image of that tangent space under the Jacobian, and w0 is the
    unit vector completing the image frame with <J normal, w0> > 0.
    """

    x: np.ndarray
    normal: np.ndarray
    tangent: np.ndarray
    w0: np.ndarray
    w_tangent: np.ndarray


def _norm(v: np.ndarray):
    """Length of each vector from its dot product, as np.linalg.norm takes one vector's."""
    return np.sqrt(np.vecdot(v, v))


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for each matrix and vector of a stack, as a matrix-column product."""
    return (m @ v[..., None])[..., 0]


def _first(values, bad) -> float:
    """The first of values where bad holds."""
    return float(np.extract(bad, values)[0])


def _complete_basis(nu: np.ndarray) -> np.ndarray:
    """Rows: orthonormal tangent vectors completing the unit vector nu, or each nu of a stack."""
    eye = np.eye(nu.shape[-1])
    v = nu - eye[0]
    vv = np.vecdot(v, v)
    near = np.sqrt(vv) < 1e-12
    reflect = eye - 2.0 * (v[..., :, None] * v[..., None, :]) / np.where(near, 1.0, vv)[..., None, None]
    basis = np.where(near[..., None, None], eye, reflect)
    return basis[..., :, 1:].mT


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass, on each row set of a stack."""
    scale = np.max(np.abs(rows), axis=(-2, -1)) + 1e-300
    out = np.array(rows, dtype=float)
    row = [out[..., i, :] for i in range(out.shape[-2])]  # views: each update writes out
    for i in range(len(row)):
        for _ in range(2):
            for j in range(i):
                row[i] -= np.vecdot(row[i], row[j])[..., None] * row[j]
        norm = _norm(row[i])
        bad = norm < _DEPENDENCY_TOL * scale
        if bad.any():
            raise DegenerateTangentImage(
                f"tangent image row {i} numerically dependent (norm {_first(norm, bad):.3e})"
            )
        row[i] /= norm[..., None]
    return out


def _frame(j: np.ndarray, x: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, AdaptedFrame]:
    """Tangential block and adapted frame of J at x on a surface with unit normal nu."""
    tangent = _complete_basis(nu)
    pushed = tangent @ j.mT  # row i is J e_i
    w_tangent = _orthonormalize(pushed)
    jn = _apply(j, nu)
    resid = jn - _apply(w_tangent.mT, _apply(w_tangent, jn))
    norm = _norm(resid)
    if (norm < _DEPENDENCY_TOL * (_norm(jn) + 1e-300)).any():
        raise DegenerateTangentImage("normal image lies in the tangent image span")
    w0 = resid / norm[..., None]  # sign makes <J nu, w0> = |resid| > 0
    # block entry [i, j] = <J e_i, w_j>; lower triangular, positive diagonal
    block = pushed @ w_tangent.mT
    return block, AdaptedFrame(x=x, normal=nu, tangent=tangent, w0=w0, w_tangent=w_tangent)


def _adapted(j, x, nu) -> tuple:
    """Checked Jacobian, its determinant, tangential block and adapted frame at x, or a stack."""
    j, _, det_j, _ = _checked(j)
    return (j, det_j) + _frame(j, x, nu)


def _at(mapping: SmoothMap, surface, x) -> tuple:
    """_adapted of the map's Jacobian at a point x of the surface."""
    x = np.asarray(x, dtype=float)
    nu = surface.normal_at(x)
    return _adapted(mapping.jacobian(x), x, nu)


def _block_det(block: np.ndarray):
    """det B of a lower triangular block B, or of each of a stack: its diagonal's product."""
    return np.prod(np.diagonal(block, axis1=-2, axis2=-1), axis=-1)


def _block_dilation(block: np.ndarray):
    """|B| / (det B)^{1/m} of an m x m lower triangular tangential block B, or each of a stack."""
    return np.sqrt(np.sum(block * block, axis=(-2, -1))) / _pow(_block_det(block), 1.0 / block.shape[-1])


def adapted_frame(mapping: SmoothMap, surface, x) -> AdaptedFrame:
    """Adapted frame pair of a map along a sphere or hyperplane at x."""
    return _at(mapping, surface, x)[3]


def tangential_dilation(mapping: SmoothMap, surface, x) -> float:
    """Dilation of the restricted map, |B| / (det B)^{1/(n-1)} for the tangent block."""
    return _block_dilation(_at(mapping, surface, x)[2])


@dataclass
class TraceInequalityRecord:
    """Both sides of the one-way trace inequality with block diagnostics.

    Each field is a float for one point and an array for a stack.
    """

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    slack: float | np.ndarray
    block_norm_residual: float | np.ndarray
    block_det_residual: float | np.ndarray


def _inequality(j, det_j, block, frame: AdaptedFrame) -> TraceInequalityRecord:
    """trace_inequality_check's record from _adapted's terms, one field per stack."""
    n = j.shape[-1]
    m = n - 1
    jn = _apply(j, frame.normal)
    norm_sq = np.sum(j * j, axis=(-2, -1))
    block_norm_sq = np.sum(block * block, axis=(-2, -1))
    jn_norm_sq = np.vecdot(jn, jn)
    pairing = np.vecdot(jn, frame.w0)
    det_block = _block_det(block)

    block_norm_residual = abs(norm_sq - block_norm_sq - jn_norm_sq) / norm_sq
    block_det_residual = abs(det_j - pairing * det_block) / abs(det_j)

    k_sq = norm_sq / _pow(det_j, 2.0 / n)
    lhs = block_norm_sq / _pow(det_block, 2.0 / m)
    rhs = n ** (1.0 / m) * _pow(k_sq, n / m) - jn_norm_sq * _pow(pairing, 2.0 / m) / _pow(
        det_j, 2.0 / m
    )
    return TraceInequalityRecord(
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        block_norm_residual=block_norm_residual,
        block_det_residual=block_det_residual,
    )


def _inequality_records(j, surface, x) -> TraceInequalityRecord:
    """trace_inequality_check of the linear maps j at the surface points x, both stacked."""
    x = np.asarray(x, dtype=float)
    return _inequality(*_adapted(j, x, surface.normal_at(x)))


def trace_inequality_check(mapping: SmoothMap, surface, x) -> TraceInequalityRecord:
    """One-way bound of squared tangential dilation by the ambient dilation.

    lhs is the squared tangential dilation; rhs combines the ambient
    dilation with the normal stretch. Also reports the residuals of the
    two block identities (norm split and determinant factorization),
    which vanish for every map and surface point.
    """
    return _inequality(*_at(mapping, surface, x))


@dataclass
class CriticalEqualityRecord:
    """Both sides of the critical-case trace equality, floats for one J and arrays for a stack."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray


def critical_equality_check(j, normal) -> CriticalEqualityRecord:
    """Equality between ambient and tangential dilation powers.

    Requires the normal to be an eigenvector of J^T J with eigenvalue
    |J|^2 / n (checked to 1e-8 relative); then
    (n-1) n^{-n/(n-1)} K^{2n/(n-1)} equals the squared tangential
    dilation on the hyperplane orthogonal to the normal. j and normal may
    carry leading stack axes, and each row is bit-equal to its call alone.
    """
    j, n, det_j, norm_sq = _checked(j)
    nu = np.asarray(normal, dtype=float)
    nu = nu / _norm(nu)[..., None]
    lam = norm_sq / n
    eig_resid = _norm(_apply(j.mT, _apply(j, nu)) - lam[..., None] * nu)
    bad = eig_resid > _EIGEN_TOL * lam
    if bad.any():
        raise HypothesisViolated(
            "normal is not an eigenvector at eigenvalue |J|^2/n "
            f"(residual {_first(eig_resid, bad):.3e})"
        )
    k_sq = norm_sq / _pow(det_j, 2.0 / n)
    m = n - 1
    lhs = m * n ** (-n / m) * _pow(k_sq, n / m)
    rhs = _pow(_block_dilation(_frame(j, np.zeros(nu.shape), nu)[0]), 2.0)
    return CriticalEqualityRecord(lhs=lhs, rhs=rhs)


def eigen_aligned_linear(normal, tangential_stretches, seed: int = 0) -> np.ndarray:
    """Linear map satisfying the critical-equality hypothesis by construction.

    Builds J = W diag(s0, s) V^T where V's first column is the unit
    normal, s are the given tangential stretches, and s0 is set so the
    normal eigenvalue equals |J|^2 / n. Random orthogonal W mixes the
    image directions.
    """
    nu = np.asarray(normal, dtype=float)
    nu = nu / np.linalg.norm(nu)
    s = np.asarray(tangential_stretches, dtype=float)
    n = nu.size
    if s.size != n - 1 or np.any(s <= 0.0):
        raise ValueError("need n-1 positive tangential stretches")
    s0 = math.sqrt(float(np.sum(s * s)) / (n - 1))
    v = np.column_stack([nu, _complete_basis(nu).T])
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if np.linalg.det(w) < 0.0:
        w[:, 0] = -w[:, 0]
    if np.linalg.det(v) < 0.0:
        s_signs = np.ones(n)
        s_signs[-1] = -1.0
        v = v * s_signs  # flip last column to keep det(J) > 0
    return w @ np.diag(np.concatenate([[s0], s])) @ v.T

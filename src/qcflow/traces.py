"""Tangential dilation of map restrictions to spheres and hyperplanes.

Builds the pair of adapted orthonormal frames (source tangent basis plus
image frame aligned with the pushed-forward tangent space), the block
decomposition of the Jacobian in those frames, the one-way inequality
between tangential and ambient dilation, and the critical-case equality
under the normal-eigenvector hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTangentImage, HypothesisViolated
from .maps import SmoothMap
from .tensor import _checked

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
        r = np.linalg.norm(d)
        if abs(r - self.radius) > _ON_SURFACE_TOL * (1.0 + self.radius):
            raise ValueError("point is not on the sphere")
        return d / r


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane {x : <x, normal> = offset}."""

    normal: tuple
    offset: float = 0.0

    def normal_at(self, x) -> np.ndarray:
        nu = np.asarray(self.normal, dtype=float)
        nu = nu / np.linalg.norm(nu)
        if abs(float(np.dot(np.asarray(x, dtype=float), nu)) - self.offset) > _ON_SURFACE_TOL * (
            1.0 + abs(self.offset)
        ):
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


def _complete_basis(nu: np.ndarray) -> np.ndarray:
    """Rows: orthonormal tangent vectors completing the unit vector nu."""
    n = nu.size
    v = nu - np.eye(n)[0]
    if np.linalg.norm(v) < 1e-12:
        basis = np.eye(n)
    else:
        basis = np.eye(n) - 2.0 * np.outer(v, v) / float(np.dot(v, v))
    return basis[:, 1:].T


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass."""
    scale = np.max(np.abs(rows)) + 1e-300
    out = np.array(rows, dtype=float)
    m = out.shape[0]
    for i in range(m):
        for _ in range(2):
            for j in range(i):
                out[i] -= np.dot(out[i], out[j]) * out[j]
        norm = np.linalg.norm(out[i])
        if norm < _DEPENDENCY_TOL * scale:
            raise DegenerateTangentImage(
                f"tangent image row {i} numerically dependent (norm {norm:.3e})"
            )
        out[i] /= norm
    return out


def _frame(j: np.ndarray, x: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, AdaptedFrame]:
    """Tangential block and adapted frame of J at x on a surface with unit normal nu."""
    tangent = _complete_basis(nu)
    pushed = tangent @ j.T  # row i is J e_i
    w_tangent = _orthonormalize(pushed)
    jn = j @ nu
    resid = jn - w_tangent.T @ (w_tangent @ jn)
    norm = np.linalg.norm(resid)
    if norm < _DEPENDENCY_TOL * (np.linalg.norm(jn) + 1e-300):
        raise DegenerateTangentImage("normal image lies in the tangent image span")
    w0 = resid / norm  # sign makes <J nu, w0> = |resid| > 0
    # block entry [i, j] = <J e_i, w_j>; lower triangular, positive diagonal
    block = pushed @ w_tangent.T
    return block, AdaptedFrame(x=x, normal=nu, tangent=tangent, w0=w0, w_tangent=w_tangent)


def _adapted(mapping: SmoothMap, surface, x) -> tuple:
    """Checked Jacobian, its determinant, tangential block and adapted frame at x."""
    x = np.asarray(x, dtype=float)
    nu = surface.normal_at(x)
    j, _, det_j = _checked(mapping.jacobian(x))
    return (j, float(det_j)) + _frame(j, x, nu)


def _block_dilation(block: np.ndarray) -> float:
    """|B| / (det B)^{1/m} of an m x m lower triangular tangential block B."""
    det = float(np.prod(np.diag(block)))
    return float(np.sqrt(np.sum(block * block))) / det ** (1.0 / block.shape[0])


def adapted_frame(mapping: SmoothMap, surface, x) -> AdaptedFrame:
    """Adapted frame pair of a map along a sphere or hyperplane at x."""
    return _adapted(mapping, surface, x)[3]


def tangential_dilation(mapping: SmoothMap, surface, x) -> float:
    """Dilation of the restricted map, |B| / (det B)^{1/(n-1)} for the tangent block."""
    return _block_dilation(_adapted(mapping, surface, x)[2])


@dataclass
class TraceInequalityRecord:
    """Both sides of the one-way trace inequality with block diagnostics."""

    lhs: float
    rhs: float
    slack: float
    block_norm_residual: float
    block_det_residual: float


def trace_inequality_check(mapping: SmoothMap, surface, x) -> TraceInequalityRecord:
    """One-way bound of squared tangential dilation by the ambient dilation.

    lhs is the squared tangential dilation; rhs combines the ambient
    dilation with the normal stretch. Also reports the residuals of the
    two block identities (norm split and determinant factorization),
    which vanish for every map and surface point.
    """
    j, det_j, block, frame = _adapted(mapping, surface, x)
    n = j.shape[0]
    m = n - 1
    jn = j @ frame.normal
    norm_sq = float(np.sum(j * j))
    block_norm_sq = float(np.sum(block * block))
    jn_norm_sq = float(np.dot(jn, jn))
    pairing = float(np.dot(jn, frame.w0))
    det_block = float(np.prod(np.diag(block)))

    block_norm_residual = abs(norm_sq - block_norm_sq - jn_norm_sq) / norm_sq
    block_det_residual = abs(det_j - pairing * det_block) / abs(det_j)

    k_sq = norm_sq / det_j ** (2.0 / n)
    lhs = block_norm_sq / det_block ** (2.0 / m)
    rhs = n ** (1.0 / m) * k_sq ** (n / m) - jn_norm_sq * pairing ** (2.0 / m) / det_j ** (
        2.0 / m
    )
    return TraceInequalityRecord(
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        block_norm_residual=block_norm_residual,
        block_det_residual=block_det_residual,
    )


@dataclass
class CriticalEqualityRecord:
    """Both sides of the critical-case trace equality."""

    lhs: float
    rhs: float


def critical_equality_check(j, normal) -> CriticalEqualityRecord:
    """Equality between ambient and tangential dilation powers.

    Requires the normal to be an eigenvector of J^T J with eigenvalue
    |J|^2 / n (checked to 1e-8 relative); then
    (n-1) n^{-n/(n-1)} K^{2n/(n-1)} equals the squared tangential
    dilation on the hyperplane orthogonal to the normal.
    """
    j, n, det_j = _checked(j)
    nu = np.asarray(normal, dtype=float)
    nu = nu / np.linalg.norm(nu)
    norm_sq = float(np.sum(j * j))
    lam = norm_sq / n
    eig_resid = np.linalg.norm(j.T @ (j @ nu) - lam * nu)
    if eig_resid > _EIGEN_TOL * lam:
        raise HypothesisViolated(
            f"normal is not an eigenvector at eigenvalue |J|^2/n (residual {eig_resid:.3e})"
        )
    k_sq = norm_sq / float(det_j) ** (2.0 / n)
    m = n - 1
    lhs = m * n ** (-n / m) * k_sq ** (n / m)
    rhs = _block_dilation(_frame(j, np.zeros(n), nu)[0]) ** 2
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

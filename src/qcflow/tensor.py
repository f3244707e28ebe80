"""Pointwise quasiconformal calculus on small square matrices.

Every operation treats the last two axes of its input as the matrix and
broadcasts over any leading axes, so the same kernels serve single-point
queries and whole grids. Supported dimensions are 2 through 4. The
private closed-form _det_adj is the exception: it takes entry-first
stacks a[i, j, ...] and serves batched grids; cofactor is its transposed
adjugate, so core.cofactor_transpose checks it against LAPACK.

Every Jacobian kernel here and in operators and traces enters through
_checked, which returns (a, n, det) for a finite square matrix with
positive determinant; every determinant-sign check goes through
_positive. The flow-line field S(g) J^{-T} and K come from
_dilation_field in closed form; factoring_residual and
operators.linfty_flowform keep the S(g) route and are its oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, NonPositiveDeterminant, QcflowError

_MIN_DIM = 2
_MAX_DIM = 4

DEFAULT_CONFORMAL_TOL = 1e-8


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrix trailing axes, got shape {a.shape}")
    n = a.shape[-1]
    if not (_MIN_DIM <= n <= _MAX_DIM):
        raise ValueError(f"dimension {n} outside supported range {_MIN_DIM}..{_MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteValue("matrix entries must be finite")
    return a


def _positive(d: np.ndarray) -> np.ndarray:
    ok = d > 0.0  # NaN fails; one value skips the slower array reduction
    if not (ok.all() if ok.ndim else ok):
        raise NonPositiveDeterminant(
            f"determinant must be positive (min {float(np.min(d)):.6e})"
        )
    return d


def _positive_det(a: np.ndarray) -> np.ndarray:
    return _positive(np.linalg.det(a))


def _checked(m) -> tuple[np.ndarray, int, np.ndarray]:
    """A finite square matrix stack with positive determinant, its n and det."""
    a = _as_matrix(m)
    return a, a.shape[-1], _positive_det(a)


def _norm_sq(a: np.ndarray) -> np.ndarray:
    return np.sum(a * a, axis=(-2, -1))


def _expand_det(rows: list) -> np.ndarray:
    """Determinant of a nested list of entries by first-row cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0.0
    for j, entry in enumerate(rows[0]):
        term = entry * _expand_det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total - term if j % 2 else total + term
    return total


def _det_adj(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form determinant and adjugate of an entry-first stack.

    a[i, j, ...] holds matrix entry (i, j) as an array over the trailing
    axes, so every product runs over contiguous node vectors instead of
    one small matrix at a time. Meant for batched grids with n = 2..4;
    single matrices are faster through np.linalg. adj[i, j, ...] is the
    adjugate, so sum_j adj[i, j] a[j, k] = det * delta_ik.
    """
    n = a.shape[0]
    rows = [[a[i, j] for j in range(n)] for i in range(n)]
    adj = np.empty_like(a)
    for i in range(n):
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
            cof = _expand_det(minor)
            adj[j, i] = -cof if (i + j) % 2 else cof
    det = sum(rows[0][j] * adj[j, 0] for j in range(n))
    return det, adj


def _checked_det_adj(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_det_adj of an entry-first stack with finite entries and positive det."""
    if not np.all(np.isfinite(a)):
        raise NonFiniteValue("matrix entries must be finite")
    det, adj = _det_adj(a)
    return _positive(det), adj


def hs_norm(m) -> float | np.ndarray:
    """Hilbert-Schmidt norm, the square root of the sum of squared entries."""
    return np.sqrt(_norm_sq(_as_matrix(m)))


def cofactor(m) -> np.ndarray:
    """Cofactor matrix, the transposed adjugate of _det_adj.

    Defined for every matrix, singular ones included, and satisfies
    cofactor(M)^T M = det(M) I.
    """
    adj = _det_adj(np.moveaxis(_as_matrix(m), (-2, -1), (0, 1)))[1]
    return np.moveaxis(adj, (0, 1), (-1, -2))


def trace_dilation(j) -> float | np.ndarray:
    """Dilation coefficient |J| / (det J)^(1/n); always at least sqrt(n)."""
    a, n, d = _checked(j)
    return np.sqrt(_norm_sq(a)) / d ** (1.0 / n)


def distortion_tensor(j) -> np.ndarray:
    """Normalized shape tensor J J^T / (det J)^(2/n), unit determinant, SPD."""
    a, n, d = _checked(j)
    g = np.einsum("...ik,...jk->...ij", a, a)
    return g / d[..., None, None] ** (2.0 / n)


def ahlfors(m) -> np.ndarray:
    """Trace-free symmetric part (M + M^T)/2 - trace(M) I / n."""
    a = _as_matrix(m)
    n = a.shape[-1]
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    tr = np.trace(a, axis1=-2, axis2=-1)
    eye = np.eye(n)
    return sym - tr[..., None, None] * eye / n


def _dilation_field(j) -> tuple[float | np.ndarray, np.ndarray]:
    """Trace dilation K and field F = S(g) J^{-T} from one checked determinant.

    F = (J - |J|^2 J^{-T} / n) / (det J)^(2/n), the identity factoring_residual
    pins; K equals trace_dilation(J) bit for bit, and K grad K = F . H.
    """
    a, n, d = _checked(j)
    nsq = _norm_sq(a)
    inv_t = np.swapaxes(np.linalg.inv(a), -1, -2)
    field = (a - (nsq / n)[..., None, None] * inv_t) / (d ** (2.0 / n))[..., None, None]
    return np.sqrt(nsq) / d ** (1.0 / n), field


def factoring_residual(j) -> float | np.ndarray:
    """Defect of the factored form of the conformality operator.

    Measures the HS-norm of
        (J^{-1})^T - n J/|J|^2 + n K^{-2} S(g) (J^{-1})^T,
    which vanishes identically; values above round-off indicate a bug in
    the caller's Jacobian, not a non-conformal map.
    """
    a, n, _ = _checked(j)
    inv_t = np.swapaxes(np.linalg.inv(a), -1, -2)
    nsq = _norm_sq(a)[..., None, None]
    ksq = trace_dilation(a) ** 2
    sg = ahlfors(distortion_tensor(a))
    resid = inv_t - n * a / nsq + (n / ksq)[..., None, None] * (sg @ inv_t)
    return hs_norm(resid)


@dataclass
class DilationReport:
    """Conformality diagnostics of a single Jacobian.

    K: trace dilation, >= sqrt(n).
    g: distortion tensor, SPD with unit determinant.
    Sg: trace-free symmetric part of g.
    SgNormSq: squared HS-norm of Sg.
    conformal: True when |Sg| falls below the analysis tolerance.
    """

    K: float | np.ndarray
    g: np.ndarray
    Sg: np.ndarray
    SgNormSq: float | np.ndarray
    conformal: bool | np.ndarray


def analyze(j) -> DilationReport:
    """Full dilation report for a Jacobian with positive determinant.

    The conformal flag tests |S(g)| <= DEFAULT_CONFORMAL_TOL; at that
    threshold the equivalent characterizations (dilation at its floor,
    vanishing factored operator) agree away from the tolerance edge.
    """
    a = _as_matrix(j)
    n = a.shape[-1]
    k = trace_dilation(a)
    g = distortion_tensor(a)
    sg = ahlfors(g)
    sg_norm_sq = np.sum(sg * sg, axis=(-2, -1))
    # algebraic ceiling |S(g)|^2 <= K^4 (1 - 1/n); failure means the
    # inputs were corrupted badly enough that nothing downstream is safe
    ceiling = k**4 * (1.0 - 1.0 / n)
    if not np.all(sg_norm_sq <= ceiling + 1e-12 * (1.0 + ceiling)):
        raise QcflowError("distortion bound violated; input Jacobian is corrupt")
    conformal = sg_norm_sq <= DEFAULT_CONFORMAL_TOL * DEFAULT_CONFORMAL_TOL
    if np.ndim(k) == 0:
        return DilationReport(
            K=float(k),
            g=g,
            Sg=sg,
            SgNormSq=float(sg_norm_sq),
            conformal=bool(conformal),
        )
    return DilationReport(K=k, g=g, Sg=sg, SgNormSq=sg_norm_sq, conformal=conformal)

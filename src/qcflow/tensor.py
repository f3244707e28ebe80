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
_positive. The flow-line field S(g) J^{-T} comes from _sg_field in
closed form, and _dilation_field adds K to it; factoring_residual and
operators.linfty_flowform keep the S(g) route and are its oracles.
_sg_field takes J^{-T} as cofactor / det over LAPACK's checked det:
one 2x2 or 3x3 matrix is computed on Python floats with the cofactors
written out in _det_adj's order (_sg_one, which takes the matrix as a
flat row-major list, so a flow line's sample or RK4 stage hands its J
over without an array), and a stack of them through _det_adj, so each
stack row keeps the bits of its single call. At n = 4 J^{-T} is
LAPACK's inverse.
"""

from __future__ import annotations

import math
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
    if not np.isfinite(a).all():
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
    return (a * a).sum(axis=(-2, -1))


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
    one small matrix at a time. Meant for batched grids and stacks with
    n = 2..4; _sg_one writes the same expansion out on floats for one
    2x2 or 3x3 matrix, and _adjugate4 takes each 2x2 minor of a 4x4 once.
    adj[i, j, ...] is the adjugate, so
    sum_j adj[i, j] a[j, k] = det * delta_ik.
    """
    n = a.shape[0]
    rows = [[a[i, j] for j in range(n)] for i in range(n)]
    adj = np.empty_like(a)
    if n == 4:
        _adjugate4(rows, adj)
    else:
        for i in range(n):
            for j in range(n):
                minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
                cof = _expand_det(minor)
                adj[j, i] = -cof if (i + j) % 2 else cof
    det = sum(rows[0][j] * adj[j, 0] for j in range(n))
    return det, adj


def _adjugate4(rows: list, adj: np.ndarray) -> None:
    """Fill adj with the adjugate of a 4x4 entry-first stack, as _expand_det expands it.

    Cofactor (i, j) expands its 3x3 minor on its first row over the 2x2
    minors of its last two rows, which are rows (2, 3), (1, 3) or (1, 2).
    Those 18 minors serve all 48 uses, each taken once by the same
    operations on the same operands, so every bit matches the recursion.
    """
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    minor = {(p, q, c, d): (0.0 + rows[p][c] * rows[q][d]) - rows[p][d] * rows[q][c]
             for p, q in ((2, 3), (1, 3), (1, 2)) for c, d in pairs}
    for i in range(4):
        r0, r1, r2 = (k for k in range(4) if k != i)
        for j in range(4):
            c0, c1, c2 = (k for k in range(4) if k != j)
            top = rows[r0]
            cof = (((0.0 + top[c0] * minor[r1, r2, c1, c2]) - top[c1] * minor[r1, r2, c0, c2])
                   + top[c2] * minor[r1, r2, c0, c1])
            adj[j, i] = -cof if (i + j) % 2 else cof


def hs_norm(m) -> float | np.ndarray:
    """Hilbert-Schmidt norm, the square root of the sum of squared entries."""
    return np.sqrt(_norm_sq(_as_matrix(m)))


def cofactor(m) -> np.ndarray:
    """Cofactor matrix, the transposed adjugate of _det_adj.

    Defined for every matrix, singular ones included, and satisfies
    cofactor(M)^T M = det(M) I.
    """
    return _cofactor(_as_matrix(m))


def _cofactor(a: np.ndarray) -> np.ndarray:
    """cofactor of a stack already read by _as_matrix."""
    adj = _det_adj(np.moveaxis(a, (-2, -1), (0, 1)))[1]
    return np.moveaxis(adj, (0, 1), (-1, -2))


def trace_dilation(j) -> float | np.ndarray:
    """Dilation coefficient |J| / (det J)^(1/n); always at least sqrt(n).

    The root is the C library's pow (np.float_power), as a single
    determinant's ** takes it, so each matrix of a stack gets the bits it
    gets alone; numpy's array ** differs from it in the last bit on a few
    percent of inputs.
    """
    a, n, d = _checked(j)
    return np.sqrt(_norm_sq(a)) / np.float_power(d, 1.0 / n)


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


def _sg_field(j) -> tuple[np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Field F = S(g) J^{-T} from one checked determinant, with |J|^2 and det J.

    F = (J - |J|^2 J^{-T} / n) / (det J)^(2/n), the identity factoring_residual
    pins, with J^{-T} = cofactor / det over the checked det. One 2x2 or
    3x3 matrix takes _sg_one's Python floats on its entries; a stack takes the cofactors
    of _det_adj, the same expansion, so each row gets the bits it gets
    alone. At n = 4, which has no float branch, J^{-T} is LAPACK's
    inverse: the closed form costs more than the rest of the call. The
    root takes np.float_power, as in trace_dilation.
    """
    a = np.asarray(j, dtype=float)
    if a.shape == (2, 2) or a.shape == (3, 3):
        field, nsq, d = _sg_one(a.ravel().tolist(), a)
        return np.array(field).reshape(a.shape), nsq, d
    a, n, d = _checked(a)
    nsq = _norm_sq(a)
    if n < 4:
        inv_t = _cofactor(a) / d[..., None, None]
    else:
        inv_t = np.linalg.inv(a).swapaxes(-1, -2)
    field = (a - (nsq / n)[..., None, None] * inv_t) / np.float_power(d, 2.0 / n)[..., None, None]
    return field, nsq, d


def _sg_one(flat: list, a: np.ndarray | None = None) -> tuple[list, float, float]:
    """_sg_field of one 2x2 or 3x3 matrix, from its row-major entries, on Python floats.

    Returns the field's row-major entries, |J|^2 and det J. a is the
    matrix as an array when the caller holds one; without it the entries
    are put into a C-ordered matrix for the det. The entries are checked
    with math.isfinite and the sign of LAPACK's det of a with _positive,
    in _checked's order and with its errors. |J|^2 adds the squares in
    numpy's reading order of a (memory order, ravel "K") and in its
    pairwise grouping: one after the other for four, the first eight
    pairwise and then the ninth for nine. The cofactors follow
    _expand_det's order, 0.0 plus the first product less the second, so
    F, |J|^2 and det carry the bits of the array branch's stack rows.
    """
    if not all(map(math.isfinite, flat)):
        raise NonFiniteValue("matrix entries must be finite")
    n = 2 if len(flat) == 4 else 3
    if a is None:
        a, e = np.array(flat).reshape(n, n), flat
    else:
        e = flat if a.flags.c_contiguous else a.ravel("K").tolist()
    d = float(_positive_det(a))
    # every sum, square and entry is written out: a comprehension costs a
    # call of its own on each of them
    if n == 2:
        nsq = e[0] * e[0] + e[1] * e[1] + e[2] * e[2] + e[3] * e[3]
        scale, root = nsq / 2, d ** (2.0 / 2)  # ** on floats is the C pow np.float_power takes
        a0, a1, b0, b1 = flat
        return [(a0 - scale * (b1 / d)) / root, (a1 - scale * (-b0 / d)) / root,
                (b0 - scale * (-a1 / d)) / root, (b1 - scale * (a0 / d)) / root], nsq, d
    nsq = (((e[0] * e[0] + e[1] * e[1]) + (e[2] * e[2] + e[3] * e[3]))
           + ((e[4] * e[4] + e[5] * e[5]) + (e[6] * e[6] + e[7] * e[7]))) + e[8] * e[8]
    scale, root = nsq / 3, d ** (2.0 / 3)
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = flat
    k0, k1, k2 = (0.0 + b1 * c2) - b2 * c1, -((0.0 + b0 * c2) - b2 * c0), (0.0 + b0 * c1) - b1 * c0
    k3, k4, k5 = -((0.0 + a1 * c2) - a2 * c1), (0.0 + a0 * c2) - a2 * c0, -((0.0 + a0 * c1) - a1 * c0)
    k6, k7, k8 = (0.0 + a1 * b2) - a2 * b1, -((0.0 + a0 * b2) - a2 * b0), (0.0 + a0 * b1) - a1 * b0
    return [(a0 - scale * (k0 / d)) / root, (a1 - scale * (k1 / d)) / root,
            (a2 - scale * (k2 / d)) / root, (b0 - scale * (k3 / d)) / root,
            (b1 - scale * (k4 / d)) / root, (b2 - scale * (k5 / d)) / root,
            (c0 - scale * (k6 / d)) / root, (c1 - scale * (k7 / d)) / root,
            (c2 - scale * (k8 / d)) / root], nsq, d


def _dilation_field(j) -> tuple[float | np.ndarray, np.ndarray]:
    """Trace dilation K and field F = S(g) J^{-T} from one checked determinant.

    K equals trace_dilation(J) bit for bit, and K grad K = F . H.
    """
    field, nsq, d = _sg_field(j)
    return _dilation(nsq, d, field.shape[-1]), field


def _dilation(nsq, d, n: int) -> float | np.ndarray:
    """K = |J| / (det J)^(1/n) from _sg_field's |J|^2 and det, with trace_dilation's bits."""
    if isinstance(nsq, float):  # one matrix: math.sqrt and the C pow of ** give np's bits
        return np.float64(math.sqrt(nsq) / d ** (1.0 / n))
    return np.sqrt(nsq) / np.float_power(d, 1.0 / n)


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
    ksq = np.float_power(trace_dilation(a), 2)  # pow, as a single K's ** takes it
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

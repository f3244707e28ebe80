"""Pointwise quasiconformal calculus on small square matrices.

Every operation treats the last two axes of its input as the matrix and
broadcasts over any leading axes, so the same kernels serve single-point
queries and whole grids. Supported dimensions are 2 through 4. The
private _adjugate is the exception: it takes entry-first stacks
a[i, j, ...] and serves batched grids.

At every n one kernel, written once on row-major entries, gives the
cofactors, det (_entries_det) and |J|^2, J^{-T} (_inverse_t), the field
F = S(g) J^{-T} (_field) and K (_dilation). One matrix is a stack with
no leading axes and takes the stack's path; its entries are Python
floats and a stack's are arrays over nodes, so a stack row has the bits
of its single call by construction. The one path on Python floats
alone is the flow-line walk's: a sample or RK4 stage hands its J over
as a list (_sg_one), a stage for one row of F (_cofactor_row). Every
Jacobian kernel here and in operators and traces enters through
_checked, which returns (a, n, det, |J|^2) for a finite square matrix
with finite positive determinant and finite |J|^2; one that needs
J^{-T} takes it from _inverse_t, cofactor / det, and a report reads K
(_dilation) and g (_distortion) from its one _checked. LAPACK's det
serves only the n = 1 and n >= 5 matrices maps allow.
factoring_residual and operators.linfty_flowform keep LAPACK's inverse
on the S(g) route and are the field's oracles.
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


def _positive(d):
    ok = d > 0.0  # NaN fails; one value skips the slower array reduction
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise NonPositiveDeterminant(
            f"determinant must be positive (min {float(np.min(d)):.6e})"
        )
    return d


def _finite(x, what: str):
    """x, a float or an array, unless some value overflowed to inf or NaN: NonFiniteValue."""
    if not (np.isfinite(x).all() if isinstance(x, np.ndarray) else math.isfinite(x)):
        raise NonFiniteValue(f"{what} overflows the float range")
    return x


def _finite_positive(d):
    """_positive for the det of finite entries; one that overflowed to inf or NaN is NonFiniteValue."""
    return _positive(_finite(d, "determinant"))


def _checked(m) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """A finite square matrix stack with finite positive det and finite |J|^2: (a, n, det, |J|^2).

    |J|^2 is _sum_sq's and det _entries_det's, as np.float64; one matrix
    is a stack with no leading axes.
    """
    a = _as_matrix(m)
    n = a.shape[-1]
    e = _entries(a)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as such
        d, nsq = _entries_det(e, n), _sum_sq(e)
    return a, n, np.float64(_finite_positive(d)), np.float64(_finite(nsq, "|J|^2"))


# The kernel of 2x2, 3x3 and 4x4 matrices takes a matrix as its row-major
# entries: Python floats for one matrix, arrays over nodes for a stack.
# +, -, *, /, sqrt and the C pow round the same on both, and every sum has
# a fixed order, so one source gives a stack row the bits of its single
# call, whatever numpy's version or the stack's memory order.

def _entries(a: np.ndarray) -> list:
    """Row-major entries of one matrix as Python floats, or of a stack as arrays over its nodes."""
    n = a.shape[-1]
    return a.ravel().tolist() if a.ndim == 2 else [a[..., i, j] for i in range(n) for j in range(n)]


def _cofactors(e: list, n: int) -> list:
    """Row-major signed cofactors of an n = 2..4 matrix; a 2x2 minor is 0.0 + p * q - r * s."""
    if n == 2:
        a0, a1, b0, b1 = e
        return [b1, -b0, -a1, a0]
    if n == 4:
        return [c for row in _cofactor_rows4(e, range(4)) for c in row]
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = e
    return [(0.0 + b1 * c2) - b2 * c1, -((0.0 + b0 * c2) - b2 * c0), (0.0 + b0 * c1) - b1 * c0,
            -((0.0 + a1 * c2) - a2 * c1), (0.0 + a0 * c2) - a2 * c0, -((0.0 + a0 * c1) - a1 * c0),
            (0.0 + a1 * b2) - a2 * b1, -((0.0 + a0 * b2) - a2 * b0), (0.0 + a0 * b1) - a1 * b0]


def _cofactor_row(e: list, n: int, i: int) -> list:
    """Row i of _cofactors(e, n), by the same operations on the same entries."""
    if n == 2:
        return [e[3], -e[2]] if i == 0 else [-e[1], e[0]]
    if n == 4:
        return _cofactor_rows4(e, (i,))[0]
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = e
    if i == 0:
        return [(0.0 + b1 * c2) - b2 * c1, -((0.0 + b0 * c2) - b2 * c0), (0.0 + b0 * c1) - b1 * c0]
    if i == 1:
        return [-((0.0 + a1 * c2) - a2 * c1), (0.0 + a0 * c2) - a2 * c0, -((0.0 + a0 * c1) - a1 * c0)]
    return [(0.0 + a1 * b2) - a2 * b1, -((0.0 + a0 * b2) - a2 * b0), (0.0 + a0 * b1) - a1 * b0]


def _cofactor_rows4(e: list, rows) -> list:
    """The given rows of a 4x4 matrix's signed cofactors, from its row-major entries.

    Cofactor (i, j) expands its 3x3 minor on its first row over the 2x2
    minors of its last two rows, (2, 3), (1, 3) or (1, 2), each taken once.
    """
    r, minors, out = (e[0:4], e[4:8], e[8:12], e[12:16]), {}, []
    for i in rows:
        p, q = (2, 3) if i < 2 else (1, 5 - i)
        if (p, q) not in minors:
            (a0, a1, a2, a3), (b0, b1, b2, b3) = r[p], r[q]
            minors[p, q] = ((0.0 + a0 * b1) - a1 * b0, (0.0 + a0 * b2) - a2 * b0,
                            (0.0 + a0 * b3) - a3 * b0, (0.0 + a1 * b2) - a2 * b1,
                            (0.0 + a1 * b3) - a3 * b1, (0.0 + a2 * b3) - a3 * b2)
        m01, m02, m03, m12, m13, m23 = minors[p, q]
        t0, t1, t2, t3 = r[1 if i == 0 else 0]
        u0, u1 = ((0.0 + t1 * m23) - t2 * m13) + t3 * m12, ((0.0 + t0 * m23) - t2 * m03) + t3 * m02
        u2, u3 = ((0.0 + t0 * m13) - t1 * m03) + t3 * m01, ((0.0 + t0 * m12) - t1 * m02) + t2 * m01
        out.append([-u0, u1, -u2, u3] if i % 2 else [u0, -u1, u2, -u3])
    return out


def _det(e: list, c: list, n: int):
    """det as the first row of e against its first n cofactors c, summed from +0.0 left to right."""
    if n == 2:
        return (0.0 + e[0] * c[0]) + e[1] * c[1]
    if n == 3:
        return ((0.0 + e[0] * c[0]) + e[1] * c[1]) + e[2] * c[2]
    d = 0.0
    for j in range(n):
        d = d + e[j] * c[j]
    return d


def _sum_sq(e: list):
    """Sum of the squares of e from +0.0 left to right: |J|^2, or a row's squared norm.

    2, 3, 4 and 9 terms are written out.
    """
    k = len(e)
    if k == 2:
        x0, x1 = e
        return (0.0 + x0 * x0) + x1 * x1
    if k == 3:
        x0, x1, x2 = e
        return ((0.0 + x0 * x0) + x1 * x1) + x2 * x2
    if k == 4:
        x0, x1, x2, x3 = e
        return (((0.0 + x0 * x0) + x1 * x1) + x2 * x2) + x3 * x3
    if k == 9:
        x0, x1, x2, x3, x4, x5, x6, x7, x8 = e
        return ((((((((0.0 + x0 * x0) + x1 * x1) + x2 * x2) + x3 * x3) + x4 * x4) + x5 * x5)
                 + x6 * x6) + x7 * x7) + x8 * x8
    total = 0.0
    for x in e:
        total = total + x * x
    return total


def _pow(x, y):
    """The C pow: ** on one float, np.float_power on an array (numpy's ** may differ).

    A float power past the float range is inf, signed as C's pow signs it,
    where Python's ** raises OverflowError.
    """
    if not isinstance(x, float):
        return np.float_power(x, y)
    try:
        return float(x) ** y
    except OverflowError:  # only a negative x to an odd whole y gives -inf
        return math.copysign(math.inf, x) if y % 2 == 1 else math.inf


def _field(e: list, c: list, d, nsq, n: int) -> list:
    """Entries of F = (J - |J|^2 J^{-T} / n) / det^(2/n), with J^{-T} = c / det.

    e and c hold J's and the cofactors' entries for all of F, or for one
    row of it, whose 2 or 3 entries are written out.
    """
    scale, root = nsq / n, _pow(d, 2.0 / n)
    if len(e) == 2:
        return [(e[0] - scale * (c[0] / d)) / root, (e[1] - scale * (c[1] / d)) / root]
    if len(e) == 3:
        return [(e[0] - scale * (c[0] / d)) / root, (e[1] - scale * (c[1] / d)) / root,
                (e[2] - scale * (c[2] / d)) / root]
    return [(x - scale * (k / d)) / root for x, k in zip(e, c)]


def _entries_det(e: list, n: int):
    """Unchecked det of an n x n matrix's row-major entries, Python floats or node arrays.

    The first row against its cofactors at n = 2..4, else LAPACK's (a float entry broadcasts).
    """
    if _MIN_DIM <= n <= _MAX_DIM:
        return _det(e, _cofactor_row(e, n, 0), n)
    a = np.stack(np.broadcast_arrays(*e), axis=-1)
    return np.linalg.det(a.reshape(a.shape[:-1] + (n, n)))


def _adjugate(a: np.ndarray) -> np.ndarray:
    """Closed-form adjugate of an entry-first stack, n = 2..4, from _cofactors.

    a[i, j, ...] holds matrix entry (i, j) as an array over the trailing
    axes, so every product runs over contiguous node vectors instead of
    one small matrix at a time. adj[i, j, ...] is the adjugate, so
    sum_j adj[i, j] a[j, k] = det * delta_ik.
    """
    n = a.shape[0]
    adj = np.empty_like(a)
    for k, cof in enumerate(_cofactors([a[i, j] for i in range(n) for j in range(n)], n)):
        adj[k % n, k // n] = cof
    return adj


def hs_norm(m) -> float | np.ndarray:
    """Hilbert-Schmidt norm, the square root of the sum of squared entries."""
    a = _as_matrix(m)
    return np.sqrt((a * a).sum(axis=(-2, -1)))


def cofactor(m) -> np.ndarray:
    """Cofactor matrix, from _cofactors on the matrix's entries.

    Defined for every matrix, singular ones included, and satisfies
    cofactor(M)^T M = det(M) I.
    """
    return _cofactor(_as_matrix(m))


def _cofactor(a: np.ndarray) -> np.ndarray:
    """cofactor of a float matrix or stack, C-ordered, from _cofactors on its entries."""
    c = _cofactors(_entries(a), a.shape[-1])
    return (np.array(c) if a.ndim == 2 else np.stack(c, axis=-1)).reshape(a.shape)


def _inverse_t(a: np.ndarray, d) -> np.ndarray:
    """J^{-T} of a matrix or stack a that _checked passed with det d, as _cofactor(a) / d.

    A stack row has its single call's bits. A J^{-T} past the float range
    (a cofactor or a quotient overflowed) is NonFiniteValue.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as such
        return _finite(_cofactor(a) / d[..., None, None], "J^{-T}")


def trace_dilation(j) -> float | np.ndarray:
    """Dilation coefficient |J| / (det J)^(1/n); always at least sqrt(n).

    |J|^2 and det are _checked's, and the root is the C library's pow
    (_dilation), so each matrix of a stack gets the bits it gets alone,
    and a flow-line sample's K is this K.
    """
    a, n, d, nsq = _checked(j)
    return _dilation(nsq, d, n)


def distortion_tensor(j) -> np.ndarray:
    """Normalized shape tensor J J^T / (det J)^(2/n), unit determinant, SPD."""
    a, n, d, _ = _checked(j)
    return _distortion(a, n, d)


def _distortion(a: np.ndarray, n: int, d: np.ndarray) -> np.ndarray:
    """distortion_tensor of a matrix or stack a that _checked passed with det d."""
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


def _sg_field(j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field F = S(g) J^{-T} from one checked determinant, with |J|^2 and det J.

    F = (J - |J|^2 J^{-T} / n) / (det J)^(2/n), the identity factoring_residual
    pins, by _field with J^{-T} = cofactor / det, so a stack row has its
    single call's bits, and those of the flow-line walk's _sg_one. An F
    past the float range (J^{-T} overflowed) is NonFiniteValue.
    """
    a, n, d, nsq = _checked(j)
    e = _entries(a)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _checked
        field = _field(e, _cofactors(e, n), d, nsq, n)
    return _finite(np.stack(field, axis=-1), "F").reshape(a.shape), nsq, d


def _sg_one(flat: list, row: int | None = None) -> tuple[list, float, float]:
    """F's entries, |J|^2 and det of one n = 2..4 matrix's entries, checked as _checked checks.

    The kernel on Python floats, each check made inline and a failing
    value handed to its shared check, which raises its error.
    Given a row index (from 0), F's entries are that row's alone, from
    the first row's cofactors for det and the row's own for F, so they
    are the same entries of the full F bit for bit.
    """
    if not all(map(math.isfinite, flat)):
        raise NonFiniteValue("matrix entries must be finite")
    n = math.isqrt(len(flat))
    if row is None:
        e, first = flat, _cofactors(flat, n)
    else:
        e, first = flat[row * n:row * n + n], _cofactor_row(flat, n, 0)
    c = _cofactor_row(flat, n, row) if row else first
    d = _det(flat, first, n)
    if not 0.0 < d < math.inf:  # NaN fails too
        _finite_positive(d)
    nsq = _sum_sq(flat)
    if not nsq < math.inf:
        _finite(nsq, "|J|^2")
    return _field(e, c, d, nsq, n), nsq, d


def _dilation_field(j) -> tuple[float | np.ndarray, np.ndarray]:
    """Trace dilation K and field F = S(g) J^{-T} from one checked determinant.

    K equals trace_dilation(J) bit for bit, and K grad K = F . H.
    """
    field, nsq, d = _sg_field(j)
    return _dilation(nsq, d, field.shape[-1]), field


def _dilation(nsq, d, n: int) -> float | np.ndarray:
    """K = |J| / (det J)^(1/n) from |J|^2 and det, with the C pow on floats and arrays alike."""
    root = _pow(d, 1.0 / n)  # one matrix's math.sqrt rounds as np.sqrt
    return np.float64(math.sqrt(nsq) / root) if isinstance(nsq, float) else np.sqrt(nsq) / root


def factoring_residual(j) -> float | np.ndarray:
    """Defect of the factored form of the conformality operator.

    Measures the HS-norm of
        (J^{-1})^T - n J/|J|^2 + n K^{-2} S(g) (J^{-1})^T,
    which vanishes identically; values above round-off indicate a bug in
    the caller's Jacobian, not a non-conformal map.
    """
    a, n, d, nsq = _checked(j)
    inv_t = np.swapaxes(np.linalg.inv(a), -1, -2)
    ksq = np.float_power(_dilation(nsq, d, n), 2)  # pow, as a single K's ** takes it
    sg = ahlfors(_distortion(a, n, d))
    resid = inv_t - n * a / nsq[..., None, None] + (n / ksq)[..., None, None] * (sg @ inv_t)
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
    return _report(*_checked(j))


def _report(a: np.ndarray, n: int, d: np.ndarray, nsq: np.ndarray) -> DilationReport:
    """analyze's report of a matrix or stack a that _checked passed with det d and |J|^2 nsq."""
    k = _dilation(nsq, d, n)
    g = _distortion(a, n, d)
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

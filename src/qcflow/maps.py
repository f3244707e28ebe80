"""Analytic map library with exact second-order jets.

Provides the model radial stretch, the two-sector wedge, conformal
generators (rotations, dilations, translations, oriented inversion),
composition with full chain rule, affine, polynomial and bump maps.
All samplers are pure and maps are immutable after construction; a
word or composite makes its set-up once, at its first sample.

Every matrix product of a word or composite follows one product rule,
_dot: each sum starts from +0.0 and adds the products left to right.
That covers the chain rule's J, a composite's folded constant product,
the value of a rotation or affine map and the inversion's |x|^2; powers
take the C pow (np.float_power). One 2x2 or 3x3 pair of matrices, one
matrix applied to one point and one pair of vectors take the same sums
on Python floats (_fmul, _fapply), which numpy's per-call cost would
otherwise dominate. At order 1, one point of a 2- or 3-dimensional
conformal word, or of a composite whose factors after the fold are all
words or affine maps, is sampled on Python floats by the same
operations (_float_sample), so it keeps the bits of a stack row without
paying numpy's per-call cost on every generator; the flow-line walk
reads that J as a list (SmoothMap._jacobian_entries). Every other map,
order and stack takes the array path.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    AxisExcluded,
    ConfigError,
    OriginExcluded,
    SeamExcluded,
    UnknownMap,
)
from .operators import Jet2Sample
from .tensor import _matrix_det, _positive

_ORIGIN_TOL = 1e-9
_SEAM_TOL = 1e-6


@dataclass(frozen=True)
class SmoothMap:
    """A map of R^n with a pointwise second-order jet sampler.

    jet_fn(x, order) takes a stack of points x of shape (..., n) and
    returns the raw triple (u, J, H) of shapes (..., n), (..., n, n) and
    (..., n, n, n), row for row bit-equal to the same call on each point
    alone. At order 1 a sampler with a first-order path (conformal words,
    affine, polynomial and bump maps, and compositions of these) returns
    the pair (u, J) alone, from the same Jacobian formula and without
    building the Hessian; the others ignore order and return their full
    jet. Conformal words and their compositions with affine maps take
    every matrix product by the product rule (see _dot), each sum from
    +0.0 and left to right, and at order 1 sample one point of n = 2 or 3
    on Python floats by those same sums, bit-equal to a stack row; the
    private _jacobian_entries hands that J over as a list, for the
    flow-line walk. value and jacobian read jet_fn at order 1, hessian at order 2,
    take a point or a stack, and return the sampler's arrays unvalidated,
    so a caller checks J where it uses it; jet takes one point and returns
    it as a validated Jet2Sample, and a caller that needs many points'
    jets validates jet_fn's stack as one Jet2Sample. A sampler raises its own
    GuardViolation before it samples outside its domain, for example at
    the puncture of a radial map or on a wedge seam, if any point of the
    stack is outside. The record holds only n and the sampler; the
    registry id is a map's only name.
    """

    n: int
    jet_fn: Callable[[np.ndarray, int], tuple] = field(repr=False)

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n,):
            raise ValueError(f"point shape {x.shape} does not match n={self.n}")
        return x

    def jet(self, x) -> Jet2Sample:
        x = self._point(x)
        if x.ndim != 1:
            raise ValueError(f"jet takes one point, got shape {x.shape}")
        u, j, h = self.jet_fn(x, 2)
        return Jet2Sample(x=x, u=u, J=j, H=h)

    def value(self, x) -> np.ndarray:
        return self.jet_fn(self._point(x), 1)[0]

    def jacobian(self, x) -> np.ndarray:
        return self.jet_fn(self._point(x), 1)[1]

    def hessian(self, x) -> np.ndarray:
        return self.jet_fn(self._point(x), 2)[2]

    def _jacobian_entries(self, x: list) -> tuple[list, np.ndarray | None]:
        """J at one point x of n Python floats: its row-major entries, and J as an array.

        The array is jacobian's, checked to be n x n, and the entries are
        read from it. A word or composite with a float program overrides
        this to return the entries of _float_sample's sums and None, so
        it builds no array; the entries may be the program's own list,
        which callers only read.
        """
        a = np.asarray(self.jacobian(np.array(x)), dtype=float)
        if a.shape != (self.n, self.n):
            raise ValueError(f"jacobian shape {a.shape} at one point does not match n={self.n}")
        return a.ravel().tolist(), a


@dataclass(frozen=True)
class ConformalMap(SmoothMap):
    """Word of conformal generators with exact jets and an exact inverse."""

    word: tuple = ()
    # the float program of one point at n = 2 or 3, made at its first use
    program: list = field(default_factory=list, repr=False, compare=False)

    def _jacobian_entries(self, x: list) -> tuple[list, np.ndarray | None]:
        if self.n not in (2, 3):
            return super()._jacobian_entries(x)
        return _float_jet(_word_program(self.program, self.word, self.n), x)[1], None

    def conformal_factor(self, x) -> float:
        """Pointwise factor lam with dF^T dF = lam I, equal to |dF|^2 / n."""
        j = self.jacobian(x)
        return float(np.sum(j * j) / self.n)

    def inverse(self) -> "ConformalMap":
        inv_word = tuple(_invert_generator(g) for g in reversed(self.word))
        return _conformal_from_word(inv_word, self.n)


# ---------------------------------------------------------------------------
# broadcast helpers

@functools.cache
def _eye(n: int) -> np.ndarray:
    """The shared read-only n x n identity."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _tiled(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A fresh copy of m for each point of the stack x."""
    out = np.empty(x.shape[:-1] + m.shape)
    out[...] = m
    return out


# Powers, radii and angles take the C library's pow (np.float_power, as
# Python's float ** does) and Python's math.hypot and math.atan2, so a
# sampler gives the same bits as its formula on Python floats; numpy's
# power, hypot and arctan2 differ from these in the last bit on a few
# percent of inputs, squares included.
_polar_ufunc = np.frompyfunc(lambda a, b: (math.hypot(a, b), math.atan2(b, a)), 2, 2)


def _polar(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius and angle in (-pi, pi] of the points (a, b), elementwise."""
    return tuple(np.asarray(v, dtype=float) for v in _polar_ufunc(a, b))


def _dimension(n) -> int:
    """n as an int; it must be an integral number >= 1, so 2 and 2.0 both give 2."""
    try:
        whole = int(n)
    except (TypeError, ValueError, OverflowError):  # NaN, inf and non-numbers
        whole = 0
    if whole != n or whole < 1:
        raise ConfigError(f"dimension n must be an integral number >= 1, got {n!r}")
    return whole


def _any(mask: np.ndarray) -> bool:
    return mask.any() if mask.ndim else bool(mask)  # one point skips the array reduction


def _outer(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Outer product of the last axes of two stacks of vectors."""
    return p[..., :, None] * q[..., None, :]


# ---------------------------------------------------------------------------
# conformal generators

def _rotation_matrix(n: int, params: dict) -> np.ndarray:
    if "matrix" in params:
        r = np.asarray(params["matrix"], dtype=float)
        if r.shape != (n, n):
            raise ConfigError(f"rotation matrix shape {r.shape}, expected ({n},{n})")
        if not np.allclose(r.T @ r, np.eye(n), atol=1e-10) or np.linalg.det(r) < 0:
            raise ConfigError("rotation matrix must be orthogonal with det +1")
        return r
    angle = float(params["angle"])
    if not math.isfinite(angle):
        raise ConfigError(f"rotation angle must be finite, got {angle!r}")
    if n == 2:
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])
    if n == 3:
        axis = np.asarray(params["axis"], dtype=float)
        with np.errstate(over="ignore"):  # an overflowing norm is rejected below
            norm = np.linalg.norm(axis) if axis.shape == (3,) else math.nan
        if not 0.0 < norm < math.inf:  # NaN fails too
            raise ConfigError(f"rotation axis must be 3 finite numbers whose norm is nonzero "
                              f"and finite, got {axis.tolist()!r}")
        axis = axis / norm
        k = np.array(
            [
                [0.0, -axis[2], axis[1]],
                [axis[2], 0.0, -axis[0]],
                [-axis[1], axis[0], 0.0],
            ]
        )
        return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    raise ConfigError("angle-based rotations support n=2 (angle) or n=3 (axis, angle)")


def _dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sum over the last axis of p * q by the product rule.

    Each sum starts from +0.0 and adds the products left to right, as
    tensor._det_adj's cofactors do; the float path (_float_sample) writes
    the same sums out, so the two agree bit for bit, which matmul's BLAS
    and vecdot, summing in their own orders, do not. The +0.0 start
    drops the sign of a zero sum, which _fold relies on. One pair of
    vectors takes the same sum on Python floats.
    """
    if p.ndim == 1 and p.shape == q.shape:  # one pair: the same sum on Python floats
        total = 0.0
        for a, b in zip(p.tolist(), q.tolist()):
            total = total + a * b
        return np.float64(total)
    prod = p * q
    total = 0.0 + prod[..., 0]
    for m in range(1, prod.shape[-1]):
        total = total + prod[..., m]
    return total


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes by the product rule; one 2x2 or 3x3 pair takes _fmul."""
    if a.shape == b.shape and a.shape in ((2, 2), (3, 3)):
        return np.array(_fmul(a.ravel().tolist(), b.ravel().tolist())).reshape(a.shape)
    return _dot(a[..., :, None, :], np.swapaxes(b, -1, -2)[..., None, :, :])


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The matrix m applied to each point of x by the product rule; one point of n = 2 or 3
    takes _fapply."""
    if x.ndim == 1 and m.shape in ((2, 2), (3, 3)) and x.shape == m.shape[:1]:
        return np.array(_fapply(m.ravel().tolist(), x.tolist()))
    return _dot(m, x[..., None, :])


def _generator_value(kind: str, data, x: np.ndarray) -> np.ndarray:
    """Value of a generator whose Jacobian is constant.

    kind is rotation, dilation or translation, or affine with data the
    pair (matrix, offset); matrices apply by the product rule.
    """
    if kind == "rotation":
        return _apply(data, x)
    if kind == "affine":
        return _apply(data[0], x) + data[1]
    return data * x if kind == "dilation" else x + data


def _generator_jet(kind: str, data, n: int, x: np.ndarray, order: int) -> tuple:
    """Return (u, J, H) for one generator, or (u, J) at order 1; H is zero when absent."""
    if kind == "rotation":
        j = _tiled(data, x)
    elif kind == "affine":
        j = _tiled(data[0], x)
    elif kind == "dilation":
        j = _tiled(data * _eye(n), x)
    elif kind == "translation":
        j = _tiled(_eye(n), x)
    else:  # the oriented inversion
        rsq = _dot(x, x)
        if _any(rsq < _ORIGIN_TOL**2):
            raise OriginExcluded("inversion sampled at the origin")
        eye = _eye(n)
        r2 = rsq[..., None]
        # the last output component is negated so the determinant stays
        # positive; a sign flip is exact, so it may act on any factor
        u = x / (r2 * data)
        r2 = r2[..., None]
        j = (eye / r2 - 2.0 * _outer(x, x) / np.float_power(r2, 2)) * data[:, None]
        if order == 1:
            return u, j
        r2 = r2[..., None]
        h = (
            -2.0
            * (
                np.einsum("ka,...b->...kab", eye, x)
                + np.einsum("kb,...a->...kab", eye, x)
                + np.einsum("ab,...k->...kab", eye, x)
            )
            / np.float_power(r2, 2)
            + 8.0 * np.einsum("...k,...a,...b->...kab", x, x, x) / np.float_power(r2, 3)
        )
        return u, j, h * data[:, None, None]
    u = _generator_value(kind, data, x)
    return (u, j) if order == 1 else (u, j, np.zeros(x.shape[:-1] + (n, n, n)))


def _invert_generator(gen: tuple) -> tuple:
    kind, data = gen
    if kind == "rotation":
        return ("rotation", data.T)
    if kind == "dilation":
        return ("dilation", 1.0 / data)
    if kind == "translation":
        return ("translation", -data)
    return gen  # oriented inversion is its own inverse


def _chain(outer: tuple, inner: tuple) -> tuple:
    """Chain rule on raw (u, J) or (u, J, H) jets, outer's taken at inner's u."""
    j = _matmul(outer[1], inner[1])
    if len(inner) == 2:
        return outer[0], j
    h = (np.einsum("...km,...mab->...kab", outer[1], inner[2])
         + np.einsum("...kms,...ma,...sb->...kab", outer[2], inner[1], inner[1]))
    return outer[0], j, h


def _conformal_from_word(word: tuple, n: int) -> ConformalMap:
    program = []  # the float program, made at the first single-point sample

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        if order == 1 and x.ndim == 1 and n in (2, 3):
            return _float_sample(_word_program(program, word, n), x)
        jet = (x,)  # the input alone until the first generator is taken
        for kind, data in reversed(word):
            raw = _generator_jet(kind, data, n, jet[0], order)
            jet = raw if len(jet) == 1 else _chain(raw, jet)
        return jet

    return ConformalMap(n=n, jet_fn=jet_fn, word=word, program=program)


# ---------------------------------------------------------------------------
# one point on Python floats

# Guards the one-time set-up of a sampler: a word's float program and a
# composite's fold. Reentrant, since a fold samples its constant words.
_FOLD_LOCK = threading.RLock()


def _once(cell: list, make: Callable[[], tuple]) -> None:
    """Put make() in the empty list cell under _FOLD_LOCK, unless another thread did first."""
    with _FOLD_LOCK:
        if not cell:
            cell.append(make())


def _word_program(cell: list, word: tuple, n: int) -> tuple:
    """A word's float program for _float_sample, made in the list cell at its first use."""
    if not cell:
        _once(cell, lambda: ((), (), None, ((_float_steps(word[::-1], n), None),)))
    return cell[0]


def _fmul(a: list, b: list) -> list:
    """_matmul of two flat row-major 2x2 or 3x3 matrices of Python floats."""
    if len(a) == 4:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return [(0.0 + a0 * b0) + a1 * b2, (0.0 + a0 * b1) + a1 * b3,
                (0.0 + a2 * b0) + a3 * b2, (0.0 + a2 * b1) + a3 * b3]
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return [((0.0 + a0 * b0) + a1 * b3) + a2 * b6, ((0.0 + a0 * b1) + a1 * b4) + a2 * b7,
            ((0.0 + a0 * b2) + a1 * b5) + a2 * b8, ((0.0 + a3 * b0) + a4 * b3) + a5 * b6,
            ((0.0 + a3 * b1) + a4 * b4) + a5 * b7, ((0.0 + a3 * b2) + a4 * b5) + a5 * b8,
            ((0.0 + a6 * b0) + a7 * b3) + a8 * b6, ((0.0 + a6 * b1) + a7 * b4) + a8 * b7,
            ((0.0 + a6 * b2) + a7 * b5) + a8 * b8]


def _fapply(a: list, x: list) -> list:
    """A flat row-major 2x2 or 3x3 matrix applied to a point, by the product rule."""
    if len(x) == 2:
        x0, x1 = x
        return [(0.0 + a[0] * x0) + a[1] * x1, (0.0 + a[2] * x0) + a[3] * x1]
    x0, x1, x2 = x
    return [((0.0 + a[0] * x0) + a[1] * x1) + a[2] * x2,
            ((0.0 + a[3] * x0) + a[4] * x1) + a[5] * x2,
            ((0.0 + a[6] * x0) + a[7] * x1) + a[8] * x2]


def _float_data(kind: str, data):
    """A generator's data on Python floats: a matrix as its flat rows, a vector as a list."""
    if kind == "affine":
        return data[0].ravel().tolist(), data[1].tolist()
    return data if kind == "dilation" else data.ravel().tolist()


def _float_steps(gens, n: int) -> tuple:
    """Each (kind, data) generator as (kind, data, flat J) on Python floats, J None if varying."""
    zero = np.zeros(n)
    return tuple((kind, _float_data(kind, data), None if kind == "inversion"
                  else _generator_jet(kind, data, n, zero, 1)[1].ravel().tolist())
                 for kind, data in gens)


def _fadd(p: list, q: list) -> list:
    """p + q for two points of Python floats, written out as _fapply is."""
    if len(p) == 2:
        return [p[0] + q[0], p[1] + q[1]]
    return [p[0] + q[0], p[1] + q[1], p[2] + q[2]]


def _float_value(kind: str, data, x: list) -> list:
    """_generator_value at a point of Python floats."""
    if kind == "rotation":
        return _fapply(data, x)
    if kind == "affine":
        return _fadd(_fapply(data[0], x), data[1])
    if kind == "dilation":
        return [data * v for v in x]
    return _fadd(x, data)


def _float_inversion(signs: list, x: list) -> tuple[list, list]:
    """The oriented inversion's order-1 _generator_jet at a point of Python floats.

    Each entry repeats the array path's operations in its order: eye / r2
    less 2 x x^T / r2^2, times the output component's sign, where ** on
    floats is the C pow np.float_power takes and 0.0 / r2 is eye's zero.
    """
    if len(x) == 2:
        x0, x1 = x
        rsq = (0.0 + x0 * x0) + x1 * x1
        if rsq < _ORIGIN_TOL**2:
            raise OriginExcluded("inversion sampled at the origin")
        sq, on, off = rsq ** 2, 1.0 / rsq, 0.0 / rsq
        s0, s1 = signs
        u = [x0 / (rsq * s0), x1 / (rsq * s1)]
        j = [(on - 2.0 * (x0 * x0) / sq) * s0, (off - 2.0 * (x0 * x1) / sq) * s0,
             (off - 2.0 * (x1 * x0) / sq) * s1, (on - 2.0 * (x1 * x1) / sq) * s1]
        return u, j
    x0, x1, x2 = x
    rsq = ((0.0 + x0 * x0) + x1 * x1) + x2 * x2
    if rsq < _ORIGIN_TOL**2:
        raise OriginExcluded("inversion sampled at the origin")
    sq, on, off = rsq ** 2, 1.0 / rsq, 0.0 / rsq
    s0, s1, s2 = signs
    u = [x0 / (rsq * s0), x1 / (rsq * s1), x2 / (rsq * s2)]
    j = [(on - 2.0 * (x0 * x0) / sq) * s0, (off - 2.0 * (x0 * x1) / sq) * s0,
         (off - 2.0 * (x0 * x2) / sq) * s0, (off - 2.0 * (x1 * x0) / sq) * s1,
         (on - 2.0 * (x1 * x1) / sq) * s1, (off - 2.0 * (x1 * x2) / sq) * s1,
         (off - 2.0 * (x2 * x0) / sq) * s2, (off - 2.0 * (x2 * x1) / sq) * s2,
         (on - 2.0 * (x2 * x2) / sq) * s2]
    return u, j


def _float_sample(program: tuple, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order-1 (u, J) at one point of a 2- or 3-dimensional word or composite, on Python floats.

    program is (dets, moves, matrix, factors): the determinants each
    sample refuses with _positive, the (kind, data) steps a value takes
    before the first varying Jacobian, the flat constant Jacobian of those
    steps or None, and each later factor as its _float_steps with its
    affine determinant or None. Every guard, sum and product is the array
    path's, taken in its order, so u and J carry the bits of a stack row.
    _float_jet does the work on lists; this returns its result as arrays.
    """
    u, jac = _float_jet(program, x.tolist())
    n = len(u)
    return np.array(u), np.array(jac).reshape(n, n)


def _float_jet(program: tuple, x: list) -> tuple[list, list]:
    """_float_sample at a point of Python floats: u and J's row-major entries as lists."""
    dets, moves, jac, factors = program
    for det in dets:
        _positive(det)
    for kind, data in moves:
        x = _float_value(kind, data, x)
    for steps, det in factors:
        factor_jac = None
        for kind, data, step_jac in steps:
            if step_jac is None:
                x, step_jac = _float_inversion(data, x)
            else:
                x = _float_value(kind, data, x)
            factor_jac = step_jac if factor_jac is None else _fmul(step_jac, factor_jac)
        if det is not None:
            _positive(det)
        jac = factor_jac if jac is None else _fmul(factor_jac, jac)
    return x, jac


_GENERATOR_KEYS = {
    "rotation": {"n", "angle", "axis", "matrix"},
    "dilation": {"n", "scale"},
    "translation": {"offset"},
    "inversion": {"n"},
}


def moebius(kind: str, params: dict) -> ConformalMap:
    """Single conformal generator as a map.

    kind is one of rotation, dilation, translation, inversion. The
    inversion is the oriented one, x / |x|^2 with the last output
    component negated, so every generator preserves orientation. Each
    kind takes only its own parameters; any other key is a ConfigError.
    """
    keys = _GENERATOR_KEYS.get(kind)
    if keys is None:
        raise UnknownMap(f"unknown conformal generator kind {kind!r}")
    if not params.keys() <= keys:
        unknown = ", ".join(sorted(params.keys() - keys))
        raise ConfigError(f"moebius {kind} got unknown parameter {unknown}")
    try:
        if kind == "rotation":
            n = _dimension(params.get("n", 2 if "axis" not in params else 3))
            data = _rotation_matrix(n, params)
        elif kind == "dilation":
            n = _dimension(params["n"])
            data = float(params["scale"])
            if not 0.0 < data < math.inf:  # NaN fails too
                raise ConfigError(f"dilation scale must be a positive finite number, got {data!r}")
        elif kind == "translation":
            data = np.asarray(params["offset"], dtype=float)
            if not all(map(math.isfinite, data.flat)):
                raise ConfigError(f"translation offset must be finite, got {data.tolist()!r}")
            n = data.size
        else:  # the oriented inversion; data holds the sign of each output component
            n = _dimension(params["n"])
            data = np.array([1.0] * (n - 1) + [-1.0])
    except KeyError as missing:
        raise ConfigError(f"moebius {kind} needs parameter {missing}") from missing
    return _conformal_from_word(((kind, data),), n)


# ---------------------------------------------------------------------------
# model maps

def radial_ksq(alpha: float, n: int) -> float:
    """Squared trace dilation of the radial stretch, (n + a^2 - 1) / a^(2/n)."""
    return (n + alpha**2 - 1.0) / alpha ** (2.0 / n)


def radial_sg(alpha: float, n: int, x) -> np.ndarray:
    """Trace-free distortion part of the radial stretch at x."""
    x = np.asarray(x, dtype=float)
    xhat = x / np.linalg.norm(x)
    coef = (alpha**2 - 1.0) / alpha ** (2.0 / n)
    return coef * (np.outer(xhat, xhat) - np.eye(n) / n)


def radial_lp(alpha: float, n: int, p: float, x) -> np.ndarray:
    """Closed form of the finite-p operator on the radial stretch.

    Equals p n (n-1) (a^2-1) / ((n + a^2 - 1) a) * K^{np} * x / |x|^{a+1}
    with K the constant dilation of the map. Cross-checked against both
    the non-divergence contraction and the finite-difference divergence
    of the flux field. x is a point or a stack of points (..., n), each
    row bit-equal to the call on that point alone.
    """
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.vecdot(x, x))  # each row's dot product, as np.linalg.norm of one point takes it
    ksq = radial_ksq(alpha, n)
    coef = p * n * (n - 1.0) * (alpha**2 - 1.0) / ((n + alpha**2 - 1.0) * alpha)
    return coef * ksq ** (n * p / 2.0) * x / np.float_power(r, alpha + 1.0)[..., None]


def radial_stretch(alpha: float, n: int) -> SmoothMap:
    """Radial power stretch u(x) = |x|^(a-1) x on the punctured space.

    Constant trace dilation; closed forms for K^2, S(g), and the
    finite-p operator are exposed as radial_ksq, radial_sg, radial_lp.
    """
    if not 0.0 < alpha < math.inf:  # NaN fails too
        raise ConfigError(f"radial stretch alpha must be a positive finite number, got {alpha!r}")
    n = _dimension(n)

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        r = np.sqrt(np.vecdot(x, x))
        if _any(r < _ORIGIN_TOL):
            raise OriginExcluded("radial stretch sampled at the origin")
        scale = np.float_power(r, alpha - 1.0)[..., None]
        r = r[..., None, None]
        u = scale * x
        eye = _eye(n)
        j = scale[..., None] * (eye + (alpha - 1.0) * _outer(x, x) / np.float_power(r, 2))
        h = ((alpha - 1.0) * np.float_power(r, alpha - 3.0))[..., None] * (
            np.einsum("...b,ka->...kab", x, eye)
            + np.einsum("...a,kb->...kab", x, eye)
            + np.einsum("...k,ab->...kab", x, eye)
            + (alpha - 3.0) * np.einsum("...k,...a,...b->...kab", x, x, x)
            / np.float_power(r[..., None], 2)
        )
        return u, j, h

    return SmoothMap(n=n, jet_fn=jet_fn)


def wedge_sector_constants(alpha: float, n: int, sector: int) -> tuple[float, float]:
    """(det J, |J|^2), both constant inside the given sector (1 or 2)."""
    if sector == 1:
        a = math.pi / alpha
    elif sector == 2:
        a = math.pi / (2.0 * math.pi - alpha)
    else:
        raise ConfigError("wedge sector must be 1 or 2")
    return a, (n - 1.0) + a * a


def wedge_map(alpha: float, n: int) -> SmoothMap:
    """Two-sector angular rescaling in the first two coordinates.

    The angular wedge [0, alpha] opens onto the upper half-plane and the
    complement onto the lower half; the radius and the remaining n-2
    coordinates pass through. Jets exist away from the axis r=0 and a
    thin band around the seam angles 0 and alpha.
    """
    if not (0.0 < alpha < 2.0 * math.pi):
        raise ConfigError("wedge angle must lie in (0, 2*pi)")
    n = _dimension(n)
    if n < 2:
        raise ConfigError("wedge map needs n >= 2")
    two_pi = 2.0 * math.pi
    seams = np.array([0.0, alpha])
    # psi = a theta + b in the second sector (row 0) and the first (row 1)
    a_second = math.pi / (two_pi - alpha)
    sector_ab = np.array([[a_second, math.pi - a_second * alpha], [math.pi / alpha, 0.0]])
    flip = np.array([-1.0, 1.0])  # (s, c) * flip = (-s, c), the angular direction

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        r, theta = _polar(x[..., 0], x[..., 1])
        theta %= two_pi
        if _any(r < _ORIGIN_TOL):
            raise AxisExcluded("wedge map sampled on the symmetry axis")
        d = np.abs(theta[..., None] - seams)
        if _any(np.minimum(d, two_pi - d) < _SEAM_TOL):
            raise SeamExcluded(f"wedge map sampled within {_SEAM_TOL} of a seam")
        ab = sector_ab[(theta < alpha).astype(np.intp)]
        a = ab[..., :1]
        psi = a[..., 0] * theta + ab[..., 1]
        r = r[..., None]
        r_grad = x[..., :2] / r
        t_grad = r_grad[..., ::-1] * flip / r
        c, s = r_grad[..., 0], r_grad[..., 1]
        # Hessians of r and theta and products of their gradients, as 2x2
        # blocks with a leading axis for the output component
        rr, tt = _outer(r_grad, r_grad)[..., None, :, :], _outer(t_grad, t_grad)[..., None, :, :]
        rt = (_outer(r_grad, t_grad) + _outer(t_grad, r_grad))[..., None, :, :]
        r_block = r[..., None, None]
        r_hess = (_eye(2) - rr) / r_block
        sin2, cos2 = 2.0 * c * s, c * c - s * s
        t_hess = np.empty(rr.shape)
        t_hess[..., 0, 0, 0], t_hess[..., 0, 1, 1] = sin2, -sin2
        t_hess[..., 0, 0, 1] = t_hess[..., 0, 1, 0] = -cos2
        t_hess /= np.float_power(r_block, 2)
        # scalar jets of u1 = r cos(psi), u2 = r sin(psi) in (r, theta):
        # value and derivatives r, theta, rr, r theta, theta theta
        trig = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        perp = trig[..., ::-1] * flip
        val, fr, ft, frr, frt, ftt = r * trig, trig, a * r * perp, 0.0, a * perp, -a * a * r * trig
        u = np.array(x, dtype=float)
        u[..., :2] = val
        j = _tiled(_eye(n), x)
        j[..., :2, :2] = _outer(fr, r_grad) + _outer(ft, t_grad)
        h = np.zeros(x.shape[:-1] + (n, n, n))
        fr, ft, frt, ftt = (f[..., None, None] for f in (fr, ft, frt, ftt))
        h[..., :2, :2, :2] = frr * rr + frt * rt + ftt * tt + fr * r_hess + ft * t_hess
        return u, j, h

    return SmoothMap(n=n, jet_fn=jet_fn)


def affine_map(matrix, offset=None) -> SmoothMap:
    """Affine map x -> A x + b with exact jets and zero Hessian.

    matrix must be a finite square matrix and offset, when given, n
    finite numbers.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not all(map(math.isfinite, a.flat)):
        raise ConfigError(f"affine matrix must be a finite square matrix, got {a.tolist()!r}")
    n = a.shape[0]
    b = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    if b.shape != (n,) or not all(map(math.isfinite, b.flat)):
        raise ConfigError(f"affine offset must be {n} finite numbers, got {b.tolist()!r}")

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        return _generator_jet("affine", (a, b), n, x, order)

    return _Affine(n=n, jet_fn=jet_fn, matrix=a, offset=b)



def identity_map(n: int) -> SmoothMap:
    return affine_map(np.eye(_dimension(n)))


def polynomial_map(n: int, seed: int = 0, amplitude: float = 0.05) -> SmoothMap:
    """Identity plus a seeded random polynomial perturbation.

    u(x) = x + amp * (C2 : x x + C3 : x x x) with coefficient tensors
    symmetrized in their derivative slots, so jets are exact. Keeps
    det J > 0 near the unit ball for the default amplitude.
    """
    n = _dimension(n)
    rng = np.random.default_rng(seed)
    c2 = rng.standard_normal((n, n, n))
    c2 = 0.5 * (c2 + np.swapaxes(c2, 1, 2))
    c3 = rng.standard_normal((n, n, n, n))
    perms = [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)]
    c3 = sum(np.transpose(c3, p) for p in perms) / 6.0

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        u = x + amplitude * (
            np.einsum("kab,...a,...b->...k", c2, x, x)
            + np.einsum("kabc,...a,...b,...c->...k", c3, x, x, x)
        )
        j = _eye(n) + amplitude * (
            2.0 * np.einsum("kab,...b->...ka", c2, x)
            + 3.0 * np.einsum("kabc,...b,...c->...ka", c3, x, x)
        )
        if order == 1:
            return u, j
        h = amplitude * (2.0 * c2 + 6.0 * np.einsum("kabc,...c->...kab", c3, x))
        return u, j, h

    return SmoothMap(n=n, jet_fn=jet_fn)


def _bump_profile(s: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
    """Cubic-cubed bump 64 s^3 (1-s)^3 on [0,1] with its derivatives up to order.

    Elementwise over s, and zero outside (0, 1): (b, d1) at order 1 and
    (b, d1, d2) at order 2. Vanishes to second order at both endpoints,
    so products of it make initial data compatible with fixed affine
    boundary values.
    """
    outside = (s <= 0.0) | (s >= 1.0)
    t = 1.0 - s
    b = 64.0 * np.float_power(s, 3) * np.float_power(t, 3)
    d1 = 192.0 * np.float_power(s, 2) * np.float_power(t, 2) * (1.0 - 2.0 * s)
    if order == 1:
        return np.where(outside, 0.0, b), np.where(outside, 0.0, d1)
    d2 = 384.0 * s * t * (1.0 - 5.0 * s + 5.0 * s * s)
    return tuple(np.where(outside, 0.0, f) for f in (b, d1, d2))


def bump_map(n: int, amplitude: float = 0.05) -> SmoothMap:
    """Identity plus a separable interior bump on the unit cube.

    Each component is shifted by amplitude times the product of
    one-dimensional bumps, so the perturbation and its first and second
    derivatives vanish on the cube boundary.
    """
    n = _dimension(n)

    # gradient entry a leaves factor a out of the product; Hessian entry
    # (a, b) leaves out factors a and b
    eye = np.eye(n, dtype=bool)
    skip_two = eye[:, None, :] | eye[None, :, :]

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        profile = _bump_profile(x, order)
        vals, d1 = profile[:2]
        rest = np.prod(np.where(eye, 1.0, vals[..., None, :]), axis=-1)
        u = x + amplitude * np.prod(vals, axis=-1, keepdims=True)
        j = _eye(n) + amplitude * (d1 * rest)[..., None, :]
        if order == 1:
            return u, j
        others = np.prod(np.where(skip_two, 1.0, vals[..., None, None, :]), axis=-1)
        hess2 = np.where(eye, (profile[2] * rest)[..., None, :], _outer(d1, d1) * others)
        h = np.broadcast_to(amplitude * hess2[..., None, :, :], x.shape[:-1] + (n, n, n)).copy()
        return u, j, h

    return SmoothMap(n=n, jet_fn=jet_fn)


# ---------------------------------------------------------------------------
# composition

@dataclass(frozen=True)
class _Affine(SmoothMap):
    """Affine map x -> matrix x + offset, whose Jacobian is the constant matrix."""

    matrix: np.ndarray = field(repr=False)
    offset: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class _Composite(SmoothMap):
    """Composition of factors, innermost first, folded by _chain."""

    factors: tuple = ()
    # the fold, made once at the first sample (see _fold)
    folded: list = field(default_factory=list, repr=False, compare=False)

    def _jacobian_entries(self, x: list) -> tuple[list, np.ndarray | None]:
        program = _folded(self.folded, self.factors)[4]
        if program is None:
            return super()._jacobian_entries(x)
        return _float_jet(program, x)[1], None


def _generators(factor: SmoothMap) -> tuple:
    """An affine map or a conformal word as (kind, data) generators, innermost first."""
    if isinstance(factor, _Affine):
        return (("affine", (factor.matrix, factor.offset)),)
    return factor.word[::-1]


def _fold(factors: tuple) -> tuple:
    """Split a composite's factors into its leading constant-Jacobian run and the rest.

    Returns (moves, matrix, dets, rest, program). The run is the
    innermost whole factors whose J is constant (affine maps, and words
    without an inversion), then the leading translations of the next
    factor when it is a word. moves are the run's steps as (kind, data)
    generators, affine factors included, that take a value through it in
    turn; matrix is the product of the whole factors' J in the chain's own
    order, or None; dets are the run's affine determinants. rest pairs
    each later factor, the word shortened by its translations included,
    with its affine determinant or None. program is the same on Python
    floats for _float_sample, made when n is 2 or 3 and every later factor
    is a conformal word or an affine map, else None. A translation's
    identity leaves the product bit for bit: it only changes the sign of
    zero entries, and every later product sums from +0 (the product rule
    of _dot), where a zero's sign is lost.
    """
    n = factors[0].n
    moves, matrix, dets, rest = [], None, [], []
    for factor in factors:
        det = _matrix_det(factor.matrix) if isinstance(factor, _Affine) else None
        word = getattr(factor, "word", ())
        if not rest and (det is not None or word and all(k != "inversion" for k, _ in word)):
            if det is not None:
                dets.append(det)
            moves += _generators(factor)
            j = factor.jet_fn(np.zeros(n), 1)[1]  # constant, so any point gives it
            matrix = j if matrix is None else _matmul(j, matrix)
            continue
        if not rest and word:  # the word has an inversion, so cut stops above 0
            cut = len(word)
            while word[cut - 1][0] == "translation":
                cut -= 1
            if cut < len(word):
                moves += word[cut:][::-1]
                factor = _conformal_from_word(word[:cut], n)
        rest.append((factor, det))
    program = None
    if n in (2, 3) and all(isinstance(f, (ConformalMap, _Affine)) for f, _ in rest):
        program = (tuple(dets), tuple((k, _float_data(k, d)) for k, d in moves),
                   None if matrix is None else matrix.ravel().tolist(),
                   tuple((_float_steps(_generators(f), n), det) for f, det in rest))
    return moves, matrix, dets, rest, program


def _folded(cell: list, factors: tuple) -> tuple:
    """A composite's _fold, made in the list cell at its first use."""
    if not cell:
        _once(cell, lambda: _fold(factors))
    return cell[0]


def compose(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """Composition outer(inner(x)) with the full second-order chain rule.

    Composite operands flatten into one factor list, folded innermost
    first; each factor's sampler guards its own input. Every factor but a
    conformal word (orientation-preserving by construction) must have
    det J > 0: two reflections compose to det > 0, so the composite's
    own check cannot stand in. Two conformal words compose to one word.

    At its first sample the composite folds the innermost run of factors
    whose J is constant (affine maps, rotations, dilations and
    translations; see _fold) into one precomputed product, taken in the
    chain's own order, and drops a translation's identity from the
    chain. Values still pass through each factor in turn, and the result
    is bit-equal to the plain _chain fold over factors. Every matrix
    product follows the product rule of _dot, each sum from +0.0 and left
    to right, so at order 1 one point of a 2- or 3-dimensional composite
    whose later factors are all conformal words or affine maps is sampled
    on Python floats (_float_sample) with the bits of a stack row. The
    fold, float program included, is made once, under a lock, however
    many threads sample the map. An affine factor's determinant is taken
    once, in the fold, and a reflecting affine factor is refused with the
    same message at the first sample and every later one. Factors after
    the first non-constant one are not folded, since that would change
    the association of the products.
    """
    if outer.n != inner.n:
        raise ConfigError("composition requires matching dimensions")
    if isinstance(outer, ConformalMap) and isinstance(inner, ConformalMap):
        return _conformal_from_word(outer.word + inner.word, outer.n)
    n = outer.n
    factors = getattr(inner, "factors", (inner,)) + getattr(outer, "factors", (outer,))
    folded = []  # the fold, made once at the first sample

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        moves, matrix, dets, rest, program = _folded(folded, factors)
        if program is not None and order == 1 and x.ndim == 1:
            return _float_sample(program, x)
        for det in dets:
            _positive(det)
        for kind, data in moves:
            x = _generator_value(kind, data, x)
        jet = (x,)  # the input alone until the first J is taken
        if matrix is not None:
            # the first chain broadcasts the constant matrix at order 1
            jet = (x, matrix if rest and order == 1 else _tiled(matrix, x))
            if order == 2:
                jet += (np.zeros(x.shape[:-1] + (n, n, n)),)
        for factor, det in rest:
            raw = factor.jet_fn(jet[0], order)[: order + 1]
            if det is not None:
                _positive(det)
            elif not isinstance(factor, ConformalMap):
                _positive(_matrix_det(raw[1]))
            jet = raw if len(jet) == 1 else _chain(raw, jet)
        return jet

    return _Composite(n=n, jet_fn=jet_fn, factors=factors, folded=folded)


def teichmuller_map(psi: ConformalMap, middle: SmoothMap, phi: ConformalMap) -> SmoothMap:
    """Conformal conjugation psi o middle o phi^{-1} of a middle map."""
    return compose(psi, compose(middle, phi.inverse()))


def teichmuller_example(n: int = 2) -> SmoothMap:
    """Canned conformal-affine-conformal composition, smooth on the unit ball.

    Its flow lines keep the dilation constant, which makes it the
    standard drift probe for the command line and the suites.
    """
    n = _dimension(n)
    if n == 2:
        rot = moebius("rotation", {"n": 2, "angle": 0.6})
        mid = affine_map(np.array([[1.6, 0.2], [0.0, 0.9]]))
        far = moebius("translation", {"offset": np.array([2.8, -1.1])})
        inv = moebius("inversion", {"n": 2})
    elif n == 3:
        rot = moebius("rotation", {"n": 3, "axis": np.array([0.3, -1.0, 0.7]), "angle": 0.8})
        mid = affine_map(
            np.diag([1.7, 1.0, 0.8])
            + np.array([[0.0, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        )
        far = moebius("translation", {"offset": np.array([3.0, 0.5, -1.2])})
        inv = moebius("inversion", {"n": 3})
    else:
        raise ConfigError("canned composition supports n=2 or n=3")
    return teichmuller_map(compose(inv, far), mid, rot)


# ---------------------------------------------------------------------------
# registry for the command line

def _generator(kind: str) -> Callable[..., SmoothMap]:
    """Registry entry for one conformal generator kind, taking its params as keywords."""
    return lambda **params: moebius(kind, params)


_REGISTRY: dict[str, Callable[..., SmoothMap]] = {
    "radial_stretch": radial_stretch,
    "wedge": wedge_map,
    **{kind: _generator(kind) for kind in ("rotation", "dilation", "translation", "inversion")},
    "affine": affine_map,
    "polynomial": polynomial_map,
    "identity": identity_map,
    "affine_bump": bump_map,
    "teichmuller": teichmuller_example,
}


def map_ids() -> list[str]:
    return sorted(_REGISTRY)


def make_map(map_id: str, **params) -> SmoothMap:
    """Build a registered map by string id, for the command-line surface."""
    try:
        builder = _REGISTRY[map_id]
    except KeyError:
        raise UnknownMap(f"unknown map id {map_id!r}; known: {', '.join(map_ids())}")
    try:
        return builder(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for map {map_id!r}: {exc}")

"""Analytic map library with exact second-order jets.

Provides the model radial stretch, the two-sector wedge, conformal
generators (rotations, dilations, translations, oriented inversion),
composition with full chain rule, affine, polynomial and bump maps.
All samplers are pure and maps are immutable after construction; a
word or composite makes its set-up once, at its first sample.

Every map here writes its order-1 (u, J) once, on entries
(_entry_map): Python floats for one point and arrays over the points of
a stack, so one source serves both and a stack row has its single
call's bits by construction; at order 2 the Hessian is added on arrays.
A conformal word chains its generators' samplers, and a composite runs
its fold's moves and constant matrix, then each later factor's sampler
(_chained). Every product of their J entries, a rotation's or affine
map's value and the inversion's |x|^2 follow one product rule, each sum
from +0.0 and left to right (_matprod, _matvec); their Hessians are
chained on arrays by einsum (_chain_hessians). The flow-line walk reads
one point's J entries as they are (SmoothMap._jacobian_entries).
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
from .tensor import _entries, _entries_det, _positive, _pow, _sum_sq

_ORIGIN_TOL = 1e-9
_SEAM_TOL = 1e-6


@dataclass(frozen=True)
class SmoothMap:
    """A map of R^n with a pointwise second-order jet sampler.

    jet_fn(x, order) takes a stack of points x of shape (..., n) and
    returns the raw triple (u, J, H) of shapes (..., n), (..., n, n) and
    (..., n, n, n), row for row bit-equal to the same call on each point
    alone. At order 1 every sampler here returns the pair (u, J) alone,
    from the same Jacobian formula and without building the Hessian; a
    sampler that ignores order returns its full jet. Every map built here
    writes (u, J) once on entries, floats for one point and arrays for a
    stack (see _entry_map), and the private _jacobian_entries hands one
    point's J over as a list, for the flow-line walk. value and jacobian
    read jet_fn at order 1, hessian at order 2, take a point or a stack,
    and return the sampler's arrays unvalidated, so a caller checks J
    where it uses it; jet takes one point and returns it as a validated
    Jet2Sample, and a caller that needs many points' jets validates
    jet_fn's stack as one Jet2Sample. A sampler raises its own
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

    def _jacobian_entries(self, x: list) -> list:
        """J at one point x of n Python floats, as its row-major entries.

        Read from jacobian's array, checked to be n x n. A map with an
        entry-first sampler overrides this to return its sampler's own
        list, with no array built, which callers only read.
        """
        a = np.asarray(self.jacobian(np.array(x)), dtype=float)
        if a.shape != (self.n, self.n):
            raise ValueError(f"jacobian shape {a.shape} at one point does not match n={self.n}")
        return a.ravel().tolist()


@dataclass(frozen=True)
class _EntryMap(SmoothMap):
    """A map written once on entries; sampler is its (sample, hessian) pair (see _entry_map)."""

    sampler: tuple = field(repr=False)

    def _jacobian_entries(self, x: list) -> list:
        return self.sampler[0](x, 1)[1]


@dataclass(frozen=True)
class ConformalMap(_EntryMap):
    """Word of conformal generators with exact jets and an exact inverse."""

    word: tuple = ()

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


# Powers, radii, angles and the wedge's cos and sin take the C library's
# pow (np.float_power, as Python's float ** does) and Python's math.hypot,
# math.atan2, math.cos and math.sin, so a sampler gives the same bits as
# its formula on Python floats; numpy's power, hypot and arctan2 differ
# from these in the last bit on a few percent of inputs, squares included.
_polar_ufunc = np.frompyfunc(lambda a, b: (math.hypot(a, b), math.atan2(b, a)), 2, 2)
_cos_sin_ufunc = np.frompyfunc(lambda t: (math.cos(t), math.sin(t)), 1, 2)


def _polar(a, b) -> tuple:
    """Radius and angle in (-pi, pi] of the points (a, b): floats, or arrays elementwise."""
    if isinstance(a, np.ndarray):
        return tuple(np.asarray(v, dtype=float) for v in _polar_ufunc(a, b))
    return math.hypot(a, b), math.atan2(b, a)


def _cos_sin(t) -> tuple:
    """cos and sin of t: a float, or an array elementwise."""
    if isinstance(t, np.ndarray):
        return tuple(np.asarray(v, dtype=float) for v in _cos_sin_ufunc(t))
    return math.cos(t), math.sin(t)


def _any(mask) -> bool:
    """Whether any of a stack's mask holds, or one point's; one point skips the array reduction."""
    return mask.any() if isinstance(mask, np.ndarray) and mask.ndim else bool(mask)


def _outer(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Outer product of the last axes of two stacks of vectors."""
    return p[..., :, None] * q[..., None, :]


# ---------------------------------------------------------------------------
# entry-first samplers

# A point's coordinates are Python floats for one point and arrays over the
# points of a stack, and u and J come back as row-major entries of the same
# kind. +, -, *, /, sqrt and the C pow round the same on both; radii, angles,
# cos and sin take the math module's functions on both (_polar, _cos_sin),
# the radial |x|^2 numpy's dot on both (_sq_norm), and every sum and product
# has a fixed order, so a stack row has the bits of its single call.

def _point_entries(x: np.ndarray) -> list:
    """Coordinates of one point as Python floats, or of a stack as arrays over its points."""
    return x.tolist() if x.ndim == 1 else [x[..., i] for i in range(x.shape[-1])]


def _stacked(entries: list, lead: tuple) -> np.ndarray:
    """Entries as one C-order array of shape lead + (len(entries),); a stack broadcasts a float."""
    if not lead:
        return np.array(entries)
    out = np.empty(lead + (len(entries),))
    for k, e in enumerate(entries):
        out[..., k] = e
    return out


def _where(mask, a, b):
    """a where mask holds, else b: one point's bool picks, a stack's mask selects elementwise."""
    return np.where(mask, a, b) if isinstance(mask, np.ndarray) else (a if mask else b)


def _sqrt(v):
    """Square root of a float, or of an array elementwise; both are correctly rounded."""
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def _sq_norm(x: list):
    """x . x by np.vecdot, as np.linalg.norm of one point takes it.

    Its BLAS dot may fuse multiply-adds, which Python floats cannot, so
    one point takes it on a 1-d array too and gets a float back.
    """
    v = np.stack(x, axis=-1) if isinstance(x[0], np.ndarray) else np.array(x)
    d = np.vecdot(v, v)
    return d if d.ndim else float(d)


def _product(factors: list):
    """Product of factors left to right from the first, as np.prod takes it; 1.0 for none."""
    if not factors:
        return 1.0
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def _entry_map(n: int, sample: Callable[[list, int], tuple], hessian: Callable[..., np.ndarray],
               cls: type = _EntryMap, *fields) -> SmoothMap:
    """A map from its entry-first sampler and its Hessian, as cls with its further fields in order.

    sample(x, order) takes a point's coordinates as entries and returns
    u's and J's row-major entries, then the intermediates hessian(x, lead,
    *parts) reads at order 2, where x is the array of points and lead its
    stack shape; at order 1 no Hessian is built.
    """

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        lead = x.shape[:-1]
        out = sample(_point_entries(x), order)
        u, j = _stacked(out[0], lead), _stacked(out[1], lead).reshape(lead + (n, n))
        return (u, j) if order == 1 else (u, j, hessian(x, lead, *out[2:]))

    return cls(n, jet_fn, (sample, hessian), *fields)  # positional: a build costs less


# ---------------------------------------------------------------------------
# chains of samplers by the product rule

# Each sum of the product rule starts from +0.0 and adds the products left
# to right, as tensor's cofactors do; the +0.0 start drops the sign of a
# zero sum, which _fold relies on. 2x2 and 3x3 sums are written out.

def _sum_products(p: list, q: list):
    """p . q by the product rule."""
    total = 0.0
    for a, b in zip(p, q):
        total = total + a * b
    return total


def _matprod(a: list, b: list) -> list:
    """The product of two flat row-major n x n matrices by the product rule."""
    if len(a) == 4:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return [(0.0 + a0 * b0) + a1 * b2, (0.0 + a0 * b1) + a1 * b3,
                (0.0 + a2 * b0) + a3 * b2, (0.0 + a2 * b1) + a3 * b3]
    if len(a) == 9:
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
        return [((0.0 + a0 * b0) + a1 * b3) + a2 * b6, ((0.0 + a0 * b1) + a1 * b4) + a2 * b7,
                ((0.0 + a0 * b2) + a1 * b5) + a2 * b8, ((0.0 + a3 * b0) + a4 * b3) + a5 * b6,
                ((0.0 + a3 * b1) + a4 * b4) + a5 * b7, ((0.0 + a3 * b2) + a4 * b5) + a5 * b8,
                ((0.0 + a6 * b0) + a7 * b3) + a8 * b6, ((0.0 + a6 * b1) + a7 * b4) + a8 * b7,
                ((0.0 + a6 * b2) + a7 * b5) + a8 * b8]
    n = math.isqrt(len(a))
    return [_sum_products(a[i:i + n], b[k::n]) for i in range(0, n * n, n) for k in range(n)]


def _matvec(a: list, x: list) -> list:
    """A flat row-major n x n matrix applied to a point by the product rule."""
    if len(x) == 2:
        x0, x1 = x
        return [(0.0 + a[0] * x0) + a[1] * x1, (0.0 + a[2] * x0) + a[3] * x1]
    if len(x) == 3:
        x0, x1, x2 = x
        return [((0.0 + a[0] * x0) + a[1] * x1) + a[2] * x2,
                ((0.0 + a[3] * x0) + a[4] * x1) + a[5] * x2,
                ((0.0 + a[6] * x0) + a[7] * x1) + a[8] * x2]
    n = len(x)
    return [_sum_products(a[i:i + n], x) for i in range(0, n * n, n)]


def _add(p: list, q: list) -> list:
    """The entries of p + q, written out at n = 2 and 3."""
    if len(p) == 2:
        return [p[0] + q[0], p[1] + q[1]]
    if len(p) == 3:
        return [p[0] + q[0], p[1] + q[1], p[2] + q[2]]
    return [a + b for a, b in zip(p, q)]


def _positive_entries(u: list, j: list) -> None:
    """Refuse J's entries at u unless det J > 0, tensor._entries_det's."""
    _positive(_entries_det(j, len(u)))


# Guards the one-time set-up of a sampler: a word's links and a
# composite's fold. Reentrant, since a fold samples its constant words.
_FOLD_LOCK = threading.RLock()


def _made(cell: list, make: Callable[[], tuple]) -> tuple:
    """make()'s result, put in the list cell under _FOLD_LOCK by the first call to find it empty."""
    if not cell:
        with _FOLD_LOCK:
            if not cell:
                cell.append(make())
    return cell[0]


def _chained(links: tuple, x: list, order: int, j: list | None = None) -> tuple:
    """x through each link of a chain in turn: u's entries, J's and the parts of its Hessian.

    A link is (sample, hessian, check): sample is an entry-first sampler,
    hessian its Hessian (see _entry_map), and check(u, J) refuses its
    output or is None. J is the links' J chained innermost first by the
    product rule, from the constant J j when one is given. At order 2
    each link adds its input, Hessian, parts and J, with the chain's J
    before it, to the parts that _chain_hessians reads; at order 1 they
    stay empty.
    """
    parts = []
    for sample, hessian, check in links:
        out = sample(x, order)
        if check is not None:
            check(out[0], out[1])
        if order == 2:
            parts.append((x, hessian, out[2:], out[1], j))
        j = out[1] if j is None else _matprod(out[1], j)
        x = out[0]
    return x, j, parts


def _chain_hessians(x: np.ndarray, lead: tuple, parts: list) -> np.ndarray:
    """The Hessian of a chain at the points x from _chained's parts, by the chain rule on arrays.

    Each link's H is taken at its input and chained onto the Hessian so
    far by einsum, as outer J . inner H + outer H : (inner J, inner J); a
    chain that starts from a constant J starts from a zero Hessian.
    """
    n = x.shape[-1]
    h = np.zeros(lead + (n, n, n))
    for x_in, hessian, link_parts, link_j, j in parts:
        link_h = hessian(_stacked(x_in, lead), lead, *link_parts)
        if j is None:
            h = link_h
            continue
        link_j, j = (_stacked(e, lead).reshape(lead + (n, n)) for e in (link_j, j))
        h = (np.einsum("...km,...mab->...kab", link_j, h)
             + np.einsum("...kms,...ma,...sb->...kab", link_h, j, j))
    return h


# ---------------------------------------------------------------------------
# conformal generators

def _move(kind: str, data, n: int) -> tuple[Callable[[list], list], list]:
    """A generator whose J is constant, or an affine map with data (matrix, offset): its value
    on a point's entries, and its J's entries."""
    if kind == "dilation":
        return (lambda x: [data * v for v in x]), [data * e for e in _eye(n).ravel().tolist()]
    if kind == "translation":
        # offset + x: a sum of two floats is the same either way round
        return functools.partial(_add, data.tolist()), _eye(n).ravel().tolist()
    matrix, offset = (data, None) if kind == "rotation" else data
    j = matrix.ravel().tolist()
    if offset is None:
        return functools.partial(_matvec, j), j
    offset = offset.tolist()
    return (lambda x: _add(_matvec(j, x), offset)), j


def _generator_link(kind: str, data, n: int) -> tuple:
    """A generator, or an affine map with data (matrix, offset), as a chain link (see _chained).

    Its sampler takes a point's entries to u's and J's, J the generator's
    own constant list (see _move) but for the inversion's, whose sampler
    also hands |x|^2 to its Hessian; a constant J's Hessian is zero. It
    takes no check.
    """
    if kind == "inversion":
        return functools.partial(_inversion, data.tolist()), _inversion_hessian(data, n), None
    value, j = _move(kind, data, n)
    return (lambda x, order: (value(x), j)), (lambda x, lead: np.zeros(lead + (n, n, n))), None


def _inversion(signs: list, x: list, order: int = 1) -> tuple[list, list, object]:
    """The oriented inversion's u and J entries at x, with |x|^2; order is not read.

    J is eye / |x|^2 less 2 x x^T / |x|^4, each entry times its output
    component's sign, where |x|^4 is the C pow of |x|^2 and an
    off-diagonal eye entry gives 0.0 / |x|^2. n = 2 and 3 are written out,
    each off-diagonal term taken once for its two entries (x_i x_k is
    x_k x_i to the bit).
    """
    rsq = _sum_sq(x)
    near = rsq < _ORIGIN_TOL**2  # _any, less a call
    if near.any() if isinstance(near, np.ndarray) else near:
        raise OriginExcluded("inversion sampled at the origin")
    sq, on, off = _pow(rsq, 2), 1.0 / rsq, 0.0 / rsq
    if len(x) == 2:
        (x0, x1), (s0, s1) = x, signs
        m01 = off - 2.0 * (x0 * x1) / sq
        return ([x0 / (rsq * s0), x1 / (rsq * s1)],
                [(on - 2.0 * (x0 * x0) / sq) * s0, m01 * s0, m01 * s1,
                 (on - 2.0 * (x1 * x1) / sq) * s1], rsq)
    if len(x) == 3:
        (x0, x1, x2), (s0, s1, s2) = x, signs
        m01, m02, m12 = (off - 2.0 * (x0 * x1) / sq, off - 2.0 * (x0 * x2) / sq,
                         off - 2.0 * (x1 * x2) / sq)
        return ([x0 / (rsq * s0), x1 / (rsq * s1), x2 / (rsq * s2)],
                [(on - 2.0 * (x0 * x0) / sq) * s0, m01 * s0, m02 * s0,
                 m01 * s1, (on - 2.0 * (x1 * x1) / sq) * s1, m12 * s1,
                 m02 * s2, m12 * s2, (on - 2.0 * (x2 * x2) / sq) * s2], rsq)
    return ([v / (rsq * s) for v, s in zip(x, signs)],
            [((on if i == k else off) - 2.0 * (p * q) / sq) * s
             for i, (p, s) in enumerate(zip(x, signs)) for k, q in enumerate(x)], rsq)


def _inversion_hessian(signs: np.ndarray, n: int) -> Callable[..., np.ndarray]:
    """The oriented inversion's Hessian at the array of points x, from their |x|^2."""
    eye = _eye(n)

    def hessian(x: np.ndarray, lead: tuple, rsq) -> np.ndarray:
        r2 = np.asarray(rsq)[..., None, None, None]
        sym = (np.einsum("ka,...b->...kab", eye, x) + np.einsum("kb,...a->...kab", eye, x)
               + np.einsum("ab,...k->...kab", eye, x))
        cube = np.einsum("...k,...a,...b->...kab", x, x, x)
        h = -2.0 * sym / np.float_power(r2, 2) + 8.0 * cube / np.float_power(r2, 3)
        return h * signs[:, None, None]

    return hessian


def _invert_generator(gen: tuple) -> tuple:
    kind, data = gen
    if kind == "rotation":
        return ("rotation", data.T)
    if kind == "dilation":
        return ("dilation", 1.0 / data)
    if kind == "translation":
        return ("translation", -data)
    return gen  # oriented inversion is its own inverse


def _word_links(word: tuple, n: int) -> tuple:
    """A word's generators as the links of a chain, innermost first."""
    return tuple(_generator_link(kind, data, n) for kind, data in reversed(word))


def _conformal_from_word(word: tuple, n: int) -> ConformalMap:
    links = []  # the word's links, made at the first sample

    def sample(x: list, order: int) -> tuple:
        return _chained(links[0] if links else _made(links, lambda: _word_links(word, n)), x, order)

    return _entry_map(n, sample, _chain_hessians, ConformalMap, word)


def _letter(kind: str, data, n: int | None = None) -> ConformalMap:
    """One generator as a word; n is len(data) when None, and an inversion makes its own data."""
    data = np.array([1.0] * (n - 1) + [-1.0]) if kind == "inversion" else data
    return _conformal_from_word(((kind, data),), len(data) if n is None else n)


def _rotation(n, angle, axis, matrix) -> ConformalMap:
    """A rotation by a matrix, or an angle in the plane or about an axis (n is then 3 if absent)."""
    n = n or (2 if axis is None else 3)
    if matrix is not None and (angle is not None or axis is not None or matrix.shape != (n, n)):
        raise _refusal("rotation", "matrix", f"{n} x {n} at n = {n}, with no angle or axis", matrix)
    if matrix is not None:
        return _letter("rotation", matrix)
    if angle is None:
        raise _refusal("rotation", "angle", "a finite number when no matrix is given", _REQUIRED)
    if n == 2:
        if axis is not None:
            raise _refusal("rotation", "axis", "left out at n = 2", axis)
        c, s = math.cos(angle), math.sin(angle)
        return _letter("rotation", np.array([[c, -s], [s, c]]))
    if n != 3:
        raise _refusal("rotation", "n", "2 or 3 with an angle, or any n with a matrix", n)
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm = np.linalg.norm(axis) if axis is not None and axis.shape == (3,) else math.nan
    if not 0.0 < norm < math.inf:  # NaN fails too
        raise _refusal("rotation", "axis", "3 numbers of a nonzero finite norm", axis)
    x, y, z = (axis / norm).tolist()
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return _letter("rotation", _eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k))


def moebius(kind: str, params: dict) -> ConformalMap:
    """Single conformal generator as a map, make_map(kind, **params).

    kind is one of rotation, dilation, translation, inversion. The
    inversion is the oriented one, x / |x|^2 with the last output
    component negated, so every generator preserves orientation. Each
    kind takes only its own parameters; any other key is a ConfigError.
    """
    if kind not in ("rotation", "dilation", "translation", "inversion"):
        raise UnknownMap(f"unknown conformal generator kind {kind!r}")
    return make_map(kind, **params)


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
    return make_map("radial_stretch", alpha=alpha, n=n)


def _radial_stretch(alpha: float, n: int) -> SmoothMap:
    def sample(x: list, order: int) -> tuple:
        r = _sqrt(_sq_norm(x))
        if _any(r < _ORIGIN_TOL):
            raise OriginExcluded("radial stretch sampled at the origin")
        scale, sq = _pow(r, alpha - 1.0), _pow(r, 2)
        u = [scale * v for v in x]
        # J = |x|^(a-1) (I + (a - 1) x x^T / |x|^2)
        j = [scale * ((1.0 if i == k else 0.0) + (alpha - 1.0) * (p * q) / sq)
             for i, p in enumerate(x) for k, q in enumerate(x)]
        return u, j, r

    def hessian(x: np.ndarray, lead: tuple, r) -> np.ndarray:
        r = np.asarray(r)[..., None, None]
        eye = _eye(n)
        return ((alpha - 1.0) * np.float_power(r, alpha - 3.0))[..., None] * (
            np.einsum("...b,ka->...kab", x, eye)
            + np.einsum("...a,kb->...kab", x, eye)
            + np.einsum("...k,ab->...kab", x, eye)
            + (alpha - 3.0) * np.einsum("...k,...a,...b->...kab", x, x, x)
            / np.float_power(r[..., None], 2)
        )

    return _entry_map(n, sample, hessian)


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
    return make_map("wedge", alpha=alpha, n=n)


def _wedge_map(alpha: float, n: int) -> SmoothMap:
    two_pi = 2.0 * math.pi
    # psi = a theta + b: (pi / alpha, 0) in the first sector, (a2, b2) in the second
    a_first, a_second = math.pi / alpha, math.pi / (two_pi - alpha)
    b_second = math.pi - a_second * alpha
    eye = np.eye(n).ravel().tolist()
    flip = np.array([-1.0, 1.0])  # (s, c) * flip = (-s, c), the angular direction

    def sample(x: list, order: int) -> tuple:
        r, theta = _polar(x[0], x[1])
        theta = theta % two_pi
        if _any(r < _ORIGIN_TOL):
            raise AxisExcluded("wedge map sampled on the symmetry axis")
        for seam in (0.0, alpha):
            d = abs(theta - seam)
            if _any((d < _SEAM_TOL) | (two_pi - d < _SEAM_TOL)):
                raise SeamExcluded(f"wedge map sampled within {_SEAM_TOL} of a seam")
        first = theta < alpha
        a = _where(first, a_first, a_second)
        psi = a * theta + _where(first, 0.0, b_second)
        c, s = x[0] / r, x[1] / r
        cs, sn = _cos_sin(psi)
        ar = a * r
        # u1 = r cos(psi), u2 = r sin(psi): their r and theta derivatives
        # against the gradients of r and theta
        trig, r_grad, t_grad, ft = [cs, sn], [c, s], [-s / r, c / r], [ar * -sn, ar * cs]
        j = list(eye)
        j[0], j[1], j[n], j[n + 1] = (f * g + h * t for f, h in zip(trig, ft)
                                      for g, t in zip(r_grad, t_grad))
        return [r * cs, r * sn] + x[2:], j, r, a, r_grad, t_grad, trig, ft

    def hessian(x: np.ndarray, lead: tuple, r, a, r_grad, t_grad, trig, ft) -> np.ndarray:
        r, a = (np.asarray(v)[..., None] for v in (r, a))
        r_grad, t_grad, trig, ft = (_stacked(e, lead) for e in (r_grad, t_grad, trig, ft))
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
        # second derivatives of u1, u2 in (r, theta): rr, r theta, theta theta
        frr, frt, ftt = 0.0, a * (trig[..., ::-1] * flip), -a * a * r * trig
        fr, ft, frt, ftt = (f[..., None, None] for f in (trig, ft, frt, ftt))
        h = np.zeros(lead + (n, n, n))
        h[..., :2, :2, :2] = frr * rr + frt * rt + ftt * tt + fr * r_hess + ft * t_hess
        return h

    return _entry_map(n, sample, hessian)


def affine_map(matrix, offset=None) -> SmoothMap:
    """Affine map x -> A x + b with exact jets and zero Hessian.

    matrix must be a finite square matrix and offset, when given, n
    finite numbers.
    """
    return make_map("affine", matrix=matrix, offset=offset)


def _affine_map(a: np.ndarray, b: np.ndarray | None) -> SmoothMap:
    n = a.shape[0]
    b = np.zeros(n) if b is None else b
    if b.shape != (n,):
        raise _refusal("affine", "offset", f"{n} finite numbers, as the matrix is {n} x {n}", b)
    sample, hessian, _ = _generator_link("affine", (a, b), n)
    return _entry_map(n, sample, hessian, _Affine, a, b)


def identity_map(n: int) -> SmoothMap:
    return make_map("identity", n=n)


def _polynomial_coefficients(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """polynomial_map's C2 and C3 for the seed, symmetrized in their derivative slots."""
    rng = np.random.default_rng(seed)
    c2 = rng.standard_normal((n, n, n))
    c2 = 0.5 * (c2 + np.swapaxes(c2, 1, 2))
    c3 = rng.standard_normal((n, n, n, n))
    perms = [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)]
    return c2, sum(np.transpose(c3, p) for p in perms) / 6.0


def polynomial_map(n: int, seed: int = 0, amplitude: float = 0.05) -> SmoothMap:
    """Identity plus a seeded random polynomial perturbation.

    u(x) = x + amp * (C2 : x x + C3 : x x x) with coefficient tensors
    symmetrized in their derivative slots, so jets are exact. Keeps
    det J > 0 near the unit ball for the default amplitude.

    Each sum runs from +0.0, left to right. J[k, a] is I + amp (2 L + 3 Q)
    with L = C2[k, a] . x and Q = C3[k, a] : x x, taken over the
    products x_b x_c with b <= c (an off-diagonal pair's coefficient
    doubled); u[k] is x + amp x . (L + Q)[k], since x . grad of a form of
    degree d is d times the form.
    """
    return make_map("polynomial", n=n, seed=seed, amplitude=amplitude)


def _polynomial_map(n: int, seed: int, amplitude: float) -> SmoothMap:
    c2, c3 = _polynomial_coefficients(n, seed)
    pairs = [(b, c) for b in range(n) for c in range(b, n)]
    # for each k and a: I's entry, C2's row and C3's coefficients of the pairs
    rows = [[(1.0 if k == a else 0.0, lin, [(1.0 if b == c else 2.0) * sq[b][c] for b, c in pairs])
             for a, (lin, sq) in enumerate(zip(c2_k, c3_k))]
            for k, (c2_k, c3_k) in enumerate(zip(c2.tolist(), c3.tolist()))]

    def sample(x: list, order: int) -> tuple:
        squares = [x[b] * x[c] for b, c in pairs]
        u, j = [], []
        for v, k_rows in zip(x, rows):
            total = 0.0
            for xa, (e, lin_row, sq_row) in zip(x, k_rows):
                p = q = 0.0
                for w, y in zip(lin_row, x):
                    p = p + w * y
                for w, y in zip(sq_row, squares):
                    q = q + w * y
                j.append(e + amplitude * (2.0 * p + 3.0 * q))
                total = total + xa * (p + q)
            u.append(v + amplitude * total)
        return u, j

    def hessian(x: np.ndarray, lead: tuple) -> np.ndarray:
        return amplitude * (2.0 * c2 + 6.0 * np.einsum("kabc,...c->...kab", c3, x))

    return _entry_map(n, sample, hessian)


def _bump_profile(s, order: int) -> tuple:
    """Cubic-cubed bump 64 s^3 (1-s)^3 on [0,1] with its derivatives up to order.

    s is one coordinate: a float, or an array over points, elementwise.
    Zero outside (0, 1), where the formulas are taken at s = 0.5 so that
    none overflows: (b, d1) at order 1 and (b, d1, d2) at order 2.
    Vanishes to second order at both endpoints, so products of it make
    initial data compatible with fixed affine boundary values.
    """
    outside = (s <= 0.0) | (s >= 1.0)
    s = _where(outside, 0.5, s)
    t = 1.0 - s
    out = [64.0 * _pow(s, 3) * _pow(t, 3), 192.0 * _pow(s, 2) * _pow(t, 2) * (1.0 - 2.0 * s)]
    if order == 2:
        out.append(384.0 * s * t * (1.0 - 5.0 * s + 5.0 * s * s))
    return tuple(_where(outside, 0.0, f) for f in out)


def bump_map(n: int, amplitude: float = 0.05) -> SmoothMap:
    """Identity plus a separable interior bump on the unit cube.

    Each component is shifted by amplitude times the product of
    one-dimensional bumps, so the perturbation and its first and second
    derivatives vanish on the cube boundary.
    """
    return make_map("affine_bump", n=n, amplitude=amplitude)


def _bump_map(n: int, amplitude: float) -> SmoothMap:
    eye_entries = np.eye(n).ravel().tolist()
    # Hessian entry (a, b) leaves factors a and b out of the product
    eye = np.eye(n, dtype=bool)
    skip_two = eye[:, None, :] | eye[None, :, :]

    def sample(x: list, order: int) -> tuple:
        profiles = [_bump_profile(v, order) for v in x]
        vals = [p[0] for p in profiles]
        # gradient entry a leaves factor a out of the product
        rest = [_product(vals[:a] + vals[a + 1:]) for a in range(n)]
        lift = amplitude * _product(vals)
        grad = [amplitude * (p[1] * q) for p, q in zip(profiles, rest)]
        j = [e + grad[k % n] for k, e in enumerate(eye_entries)]
        return [v + lift for v in x], j, profiles, rest

    def hessian(x: np.ndarray, lead: tuple, profiles, rest) -> np.ndarray:
        vals, d1, d2 = (_stacked(list(f), lead) for f in zip(*profiles))
        rest = _stacked(rest, lead)
        others = np.prod(np.where(skip_two, 1.0, vals[..., None, None, :]), axis=-1)
        hess2 = np.where(eye, (d2 * rest)[..., None, :], _outer(d1, d1) * others)
        return np.broadcast_to(amplitude * hess2[..., None, :, :], lead + (n, n, n)).copy()

    return _entry_map(n, sample, hessian)


# ---------------------------------------------------------------------------
# composition

@dataclass(frozen=True)
class _Affine(_EntryMap):
    """Affine map x -> matrix x + offset, whose Jacobian is the constant matrix."""

    matrix: np.ndarray = field(repr=False)
    offset: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class _Composite(_EntryMap):
    """Composition of factors, innermost first, folded by _fold and sampled by _chained."""

    factors: tuple = ()


def _read_as_entries(m: SmoothMap) -> _EntryMap:
    """A map with no entry-first sampler, its jet_fn's arrays read as entries."""

    def sample(x: list, order: int) -> tuple:
        u, j, *h = m.jet_fn(np.stack(x, axis=-1), order)[: order + 1]
        return _point_entries(u), _entries(j), *h

    return _EntryMap(m.n, m.jet_fn, (sample, lambda x, lead, h: h))


def _link(factor: SmoothMap, det, word: tuple) -> tuple:
    """A factor after the fold as a chain link (see _chained), with the check its J takes.

    A conformal word, here word, preserves orientation by construction and
    takes no check; it is its own chain, or its one generator's link. An
    affine factor refuses its determinant det, taken once in the fold, and
    any other factor the det of its J entries. A map with no entry-first
    sampler is read through jet_fn.
    """
    if word:
        links = _word_links(word, factor.n)
        return links[0] if len(links) == 1 else (functools.partial(_chained, links),
                                                 _chain_hessians, None)
    if not isinstance(factor, _EntryMap):
        factor = _read_as_entries(factor)
    check = _positive_entries if det is None else lambda u, j: _positive(det)
    return *factor.sampler, check


def _fold(factors: tuple) -> tuple:
    """Split a composite's factors into its leading constant-Jacobian run and a chain of the rest.

    Returns (dets, moves, matrix, links). The run is the innermost whole
    factors whose J is constant (affine maps, and words without an
    inversion), then the leading translations of the next factor when it
    is a word. dets are the run's affine determinants, and moves the
    samplers of the run's generators and affine maps, which take a value
    through it in turn. matrix is the product of the whole factors' J in
    the chain's own order, as entries, or None; links are the chain that
    starts from it (see _chained): each later factor, the word shortened
    by its translations included (see _link). A
    translation's identity leaves the product bit for bit: it only
    changes the sign of zero entries, and every later product sums from
    +0 (the product rule of _matprod), where a zero's sign is lost.
    """
    n = factors[0].n
    dets, moves, matrix, links = [], [], None, []
    for factor in factors:
        det = _entries_det(_entries(factor.matrix), n) if isinstance(factor, _Affine) else None
        word = getattr(factor, "word", ())
        if not links and (det is not None or word and all(k != "inversion" for k, _ in word)):
            if det is not None:
                dets.append(det)
                moves.append(_move("affine", (factor.matrix, factor.offset), n)[0])
            moves += [_move(k, d, n)[0] for k, d in reversed(word)]
            j = factor.sampler[0]([0.0] * n, 1)[1]  # constant, so any point gives it
            matrix = j if matrix is None else _matprod(j, matrix)
            continue
        if not links and word:  # the word has an inversion, so cut stops above 0
            cut = len(word)
            while word[cut - 1][0] == "translation":
                cut -= 1
            moves += [_move(k, d, n)[0] for k, d in reversed(word[cut:])]
            word = word[:cut]
        links.append(_link(factor, det, word))
    return tuple(dets), tuple(moves), matrix, tuple(links)


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
    is bit-equal to the plain chain rule over the factors. Each later
    factor's (u, J) comes from its own entry-first sampler and is chained
    by the product rule (_chained), so one point and a stack row share
    their bits; at order 2 the factors' Hessians are chained on arrays.
    The fold is made once, under a lock, however many threads sample the
    map. An affine factor's determinant is taken once, in the fold, and a
    reflecting affine factor is refused with the same message at every
    sample. Factors after the first non-constant one are not folded,
    since that would change the association of the products.
    """
    if outer.n != inner.n:
        raise ConfigError("composition requires matching dimensions")
    if isinstance(outer, ConformalMap) and isinstance(inner, ConformalMap):
        return _conformal_from_word(outer.word + inner.word, outer.n)
    factors = getattr(inner, "factors", (inner,)) + getattr(outer, "factors", (outer,))
    folded = []  # the fold, made once at the first sample

    def sample(x: list, order: int) -> tuple:
        dets, moves, matrix, links = folded[0] if folded else _made(folded, lambda: _fold(factors))
        for det in dets:
            _positive(det)
        for move in moves:
            x = move(x)
        return _chained(links, x, order, matrix)

    return _entry_map(outer.n, sample, _chain_hessians, _Composite, factors)


def teichmuller_map(psi: ConformalMap, middle: SmoothMap, phi: ConformalMap) -> SmoothMap:
    """Conformal conjugation psi o middle o phi^{-1} of a middle map."""
    return compose(psi, compose(middle, phi.inverse()))


def teichmuller_example(n: int = 2) -> SmoothMap:
    """Canned conformal-affine-conformal composition, smooth on the unit ball.

    Its flow lines keep the dilation constant, which makes it the
    standard drift probe for the command line and the suites.
    """
    return make_map("teichmuller", n=n)


def _teichmuller_example(n: int) -> SmoothMap:
    if n == 2:
        rot = _rotation(n=2, angle=0.6, axis=None, matrix=None)
        mid = _affine_map(np.array([[1.6, 0.2], [0.0, 0.9]]), None)
        far = _letter("translation", np.array([2.8, -1.1]))
    else:
        rot = _rotation(n=3, angle=0.8, axis=np.array([0.3, -1.0, 0.7]), matrix=None)
        mid = _affine_map(
            np.diag([1.7, 1.0, 0.8])
            + np.array([[0.0, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), None
        )
        far = _letter("translation", np.array([3.0, 0.5, -1.2]))
    return teichmuller_map(compose(_letter("inversion", None, n), far), mid, rot)


# ---------------------------------------------------------------------------
# parameter schema and registry

# A kind is (rule, convert): convert returns the value as the builder takes it, or raises
# ValueError. A bool or text is never a number, so a JSON true is refused as one.

def _real(low: float, high: float, whole: bool, v):
    """v as a float strictly between low and high, or an int if whole and v integral; NaN fails."""
    if not ((type(v) is float or type(v) is int or isinstance(v, (np.integer, np.floating)))
            and low < v < high and (not whole or type(v) is int or float(v).is_integer())):
        raise ValueError(v)
    return int(v) if whole else float(v)


def _array(ndim: int, v, rotation: bool = False) -> np.ndarray:
    """v as a float array of ndim axes, square at ndim 2, of finite numbers and no bool; a rotation
    is orthogonal with det +1, its entries bounded by 2 first, so that a.T @ a cannot overflow."""
    a = np.asarray(v)
    if (a.dtype.kind in "iuf" and a.ndim == ndim and a.shape == a.shape[:1] * ndim and a.size
            and (isinstance(v, np.ndarray) or bool not in map(type, np.array(v, object).flat))
            and all(map(math.isfinite, a.flat)) and (not rotation or abs(a).max() < 2.0
                and np.allclose(a.T @ a, _eye(len(a)), atol=1e-10) and np.linalg.det(a) >= 0)):
        return a.astype(float, copy=False)
    raise ValueError(v)


_DIMENSION, _PLANE_DIMENSION, _SEED = ((f"an integral number >= {low}", functools.partial(
    _real, low - 1, math.inf, True)) for low in (1, 2, 0))
_POSITIVE = ("a positive finite number", functools.partial(_real, 0.0, math.inf, False))
_FINITE = ("a finite number", functools.partial(_real, -math.inf, math.inf, False))
_WEDGE_ANGLE = ("an angle in (0, 2*pi)", functools.partial(_real, 0.0, 2.0 * math.pi, False))
_TWO_OR_THREE = ("2 or 3", functools.partial(_real, 1, 4, True))
_VECTOR = ("finite numbers, one or more in a flat vector", functools.partial(_array, 1))
_MATRIX = ("a finite square matrix", functools.partial(_array, 2))
_ROTATION = ("orthogonal with det +1", functools.partial(_array, 2, rotation=True))
_REQUIRED = object()  # the default of a parameter that must be given
_N = ("n", _DIMENSION, _REQUIRED)

# Each map id: its builder, which takes the checked values in order, then its
# parameters as (name, kind, default); _REQUIRED marks a required one, None an absent one.
_REGISTRY: dict[str, tuple] = {
    "radial_stretch": (_radial_stretch, ("alpha", _POSITIVE, _REQUIRED), _N),
    "wedge": (_wedge_map, ("alpha", _WEDGE_ANGLE, _REQUIRED), ("n", _PLANE_DIMENSION, _REQUIRED)),
    "rotation": (_rotation, ("n", _DIMENSION, None), ("angle", _FINITE, None),
                 ("axis", _VECTOR, None), ("matrix", _ROTATION, None)),
    "dilation": (functools.partial(_letter, "dilation"), ("scale", _POSITIVE, _REQUIRED), _N),
    "translation": (functools.partial(_letter, "translation"), ("offset", _VECTOR, _REQUIRED)),
    "inversion": (functools.partial(_letter, "inversion", None), _N),
    "affine": (_affine_map, ("matrix", _MATRIX, _REQUIRED), ("offset", _VECTOR, None)),
    "polynomial": (_polynomial_map, _N, ("seed", _SEED, 0), ("amplitude", _FINITE, 0.05)),
    "identity": (lambda n: _affine_map(np.eye(n), None), _N),
    "affine_bump": (_bump_map, _N, ("amplitude", _FINITE, 0.05)),
    "teichmuller": (_teichmuller_example, ("n", _TWO_OR_THREE, 2)),
}


def _refusal(map_id: str, name: str, rule: str, value) -> ConfigError:
    """The one refusal of a map parameter: it names the map, the parameter, its rule and value."""
    value = value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
    shown = "nothing" if value is _REQUIRED else repr(value)
    return ConfigError(f"{map_id} {name} must be {rule}, got {shown}")


def map_ids() -> list[str]:
    return sorted(_REGISTRY)


def make_map(map_id: str, **params) -> SmoothMap:
    """Build a registered map by string id, each given value checked once by its kind in
    _REGISTRY; a refusal is a ConfigError that names the map, the parameter and the rule."""
    if map_id not in _REGISTRY:
        raise UnknownMap(f"unknown map id {map_id!r}; known: {', '.join(map_ids())}")
    entry, values = _REGISTRY[map_id], []
    for name, kind, default in entry[1:]:
        value = params.pop(name, default)
        if value is not default or value is _REQUIRED:  # no kind takes _REQUIRED: "got nothing"
            try:
                value = kind[1](value)
            except (ValueError, OverflowError):  # an int too large for a float overflows
                raise _refusal(map_id, name, kind[0], value) from None
        values.append(value)
    for key, value in params.items():  # a key left over is unknown
        raise _refusal(map_id, key, f"left out, as {map_id} takes only "
                       + ", ".join(param[0] for param in entry[1:]), value)
    return entry[0](*values)

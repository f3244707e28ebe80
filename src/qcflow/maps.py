"""Analytic map library with exact second-order jets.

Provides the model radial stretch, the two-sector wedge, conformal
generators (rotations, dilations, translations, oriented inversion),
composition with full chain rule, boundary-pinned competitor
perturbations, polynomial maps, and a finite-difference fallback sampler.
All samplers are pure and maps are immutable after construction.
"""

from __future__ import annotations

import math
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
from .tensor import _positive_det

_ORIGIN_TOL = 1e-9
_SEAM_TOL = 1e-6


@dataclass(frozen=True)
class SmoothMap:
    """A map of R^n with a pointwise second-order jet sampler.

    jet_fn(x, order) returns the raw triple (u, J, H) at a point; the
    public jet validates it once, as a single Jet2Sample. At order 1 a
    sampler with a first-order path (conformal words, affine and
    polynomial maps, and compositions of these) returns the pair (u, J)
    alone, from the same Jacobian formula and without building the
    Hessian; the others ignore order and return their full jet. A
    sampler raises its own GuardViolation before it samples outside its
    domain, for example at the puncture of a radial map or on a wedge
    seam. The record holds only n and the sampler; the registry id is a
    map's only name.
    """

    n: int
    jet_fn: Callable[[np.ndarray, int], tuple] = field(repr=False)

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point shape {x.shape} does not match n={self.n}")
        return x

    def _raw(self, x: np.ndarray, order: int) -> tuple:
        """Unvalidated (u, J) at order 1 or (u, J, H) at order 2."""
        return self.jet_fn(x, order)[: order + 1]

    def jet(self, x) -> Jet2Sample:
        x = self._point(x)
        u, j, h = self.jet_fn(x, 2)
        return Jet2Sample(x=x, u=u, J=j, H=h)

    def _jet1(self, x) -> tuple:
        """First-order data (u, J) at x for the flow-line integrator.

        J is not validated here, so callers pass it through a kernel
        that checks its determinant.
        """
        return self._raw(self._point(x), 1)

    def value(self, x) -> np.ndarray:
        return self.jet(x).u

    def jacobian(self, x) -> np.ndarray:
        return self.jet(x).J

    def hessian(self, x) -> np.ndarray:
        return self.jet(x).H


@dataclass(frozen=True)
class ConformalMap(SmoothMap):
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
    if n == 2:
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])
    if n == 3:
        axis = np.asarray(params["axis"], dtype=float)
        axis = axis / np.linalg.norm(axis)
        k = np.array(
            [
                [0.0, -axis[2], axis[1]],
                [axis[2], 0.0, -axis[0]],
                [-axis[1], axis[0], 0.0],
            ]
        )
        return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    raise ConfigError("angle-based rotations support n=2 (angle) or n=3 (axis, angle)")


def _generator_jet(kind: str, data, n: int, x: np.ndarray, order: int) -> tuple:
    """Return (u, J, H) for one generator, or (u, J) at order 1; H is zero when absent."""
    if kind == "rotation":
        u, j = data @ x, data
    elif kind == "dilation":
        u, j = data * x, data * np.eye(n)
    elif kind == "translation":
        u, j = x + data, np.eye(n)
    else:  # the oriented inversion
        rsq = float(np.dot(x, x))
        if rsq < _ORIGIN_TOL**2:
            raise OriginExcluded("inversion sampled at the origin")
        eye = np.eye(n)
        # flip the last output component so the determinant stays positive
        u = x / rsq
        u[-1] = -u[-1]
        j = eye / rsq - 2.0 * np.outer(x, x) / rsq**2
        j[-1] = -j[-1]
        if order == 1:
            return u, j
        h = (
            -2.0
            * (
                np.einsum("ka,b->kab", eye, x)
                + np.einsum("kb,a->kab", eye, x)
                + np.einsum("ab,k->kab", eye, x)
            )
            / rsq**2
            + 8.0 * np.einsum("k,a,b->kab", x, x, x) / rsq**3
        )
        h[-1] = -h[-1]
        return u, j, h
    return (u, j) if order == 1 else (u, j, np.zeros((n, n, n)))


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
    j = outer[1] @ inner[1]
    if len(inner) == 2:
        return outer[0], j
    h = (np.einsum("km,mab->kab", outer[1], inner[2])
         + np.einsum("kms,ma,sb->kab", outer[2], inner[1], inner[1]))
    return outer[0], j, h


def _conformal_from_word(word: tuple, n: int) -> ConformalMap:
    def jet_fn(x: np.ndarray, order: int) -> tuple:
        jet = (x,)  # the input alone until the first generator is taken
        for kind, data in reversed(word):
            raw = _generator_jet(kind, data, n, jet[0], order)
            jet = raw if len(jet) == 1 else _chain(raw, jet)
        return jet

    return ConformalMap(n=n, jet_fn=jet_fn, word=word)


def moebius(kind: str, params: dict) -> ConformalMap:
    """Single conformal generator as a map.

    kind is one of rotation, dilation, translation, inversion. The
    inversion is the oriented one, x / |x|^2 with the last output
    component negated, so every generator preserves orientation.
    """
    try:
        if kind == "rotation":
            n = int(params.get("n", 2 if "axis" not in params else 3))
            data = _rotation_matrix(n, params)
        elif kind == "dilation":
            n = int(params["n"])
            data = float(params["scale"])
            if not 0.0 < data < math.inf:  # NaN fails too
                raise ConfigError(f"dilation scale must be a positive finite number, got {data!r}")
        elif kind == "translation":
            data = np.asarray(params["offset"], dtype=float)
            if not all(map(math.isfinite, data.flat)):
                raise ConfigError(f"translation offset must be finite, got {data.tolist()!r}")
            n = data.size
        elif kind == "inversion":
            n = int(params["n"])
            data = None
        else:
            raise UnknownMap(f"unknown conformal generator kind {kind!r}")
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
    of the flux field.
    """
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    ksq = radial_ksq(alpha, n)
    coef = p * n * (n - 1.0) * (alpha**2 - 1.0) / ((n + alpha**2 - 1.0) * alpha)
    return coef * ksq ** (n * p / 2.0) * x / r ** (alpha + 1.0)


def radial_stretch(alpha: float, n: int) -> SmoothMap:
    """Radial power stretch u(x) = |x|^(a-1) x on the punctured space.

    Constant trace dilation; closed forms for K^2, S(g), and the
    finite-p operator are exposed as radial_ksq, radial_sg, radial_lp.
    """
    if not 0.0 < alpha < math.inf:  # NaN fails too
        raise ConfigError(f"radial stretch alpha must be a positive finite number, got {alpha!r}")

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        r = np.linalg.norm(x)
        if r < _ORIGIN_TOL:
            raise OriginExcluded("radial stretch sampled at the origin")
        u = r ** (alpha - 1.0) * x
        eye = np.eye(n)
        j = r ** (alpha - 1.0) * (eye + (alpha - 1.0) * np.outer(x, x) / r**2)
        h = (alpha - 1.0) * r ** (alpha - 3.0) * (
            np.einsum("b,ka->kab", x, eye)
            + np.einsum("a,kb->kab", x, eye)
            + np.einsum("k,ab->kab", x, eye)
            + (alpha - 3.0) * np.einsum("k,a,b->kab", x, x, x) / r**2
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
    if n < 2:
        raise ConfigError("wedge map needs n >= 2")
    two_pi = 2.0 * math.pi

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        r = math.hypot(x[0], x[1])
        theta = math.atan2(x[1], x[0]) % two_pi
        if r < _ORIGIN_TOL:
            raise AxisExcluded("wedge map sampled on the symmetry axis")
        for seam in (0.0, alpha):
            d = abs(theta - seam)
            if min(d, two_pi - d) < _SEAM_TOL:
                raise SeamExcluded(f"wedge map sampled within {_SEAM_TOL} of a seam")
        if theta < alpha:
            a, b = math.pi / alpha, 0.0
        else:
            a = math.pi / (two_pi - alpha)
            b = math.pi - a * alpha
        psi = a * theta + b
        c, s = x[0] / r, x[1] / r
        cp, sp = math.cos(psi), math.sin(psi)
        r_grad = np.array([c, s])
        t_grad = np.array([-s / r, c / r])
        r_hess = (np.eye(2) - np.outer([c, s], [c, s])) / r
        sin2, cos2 = 2.0 * c * s, c * c - s * s
        t_hess = np.array([[sin2, -cos2], [-cos2, -sin2]]) / r**2
        # scalar jets of u1 = r cos(psi), u2 = r sin(psi) in (r, theta)
        parts = (
            (r * cp, cp, -a * r * sp, 0.0, -a * sp, -a * a * r * cp),
            (r * sp, sp, a * r * cp, 0.0, a * cp, -a * a * r * sp),
        )
        u = np.array(x, dtype=float)
        j = np.eye(n)
        h = np.zeros((n, n, n))
        for k, (val, fr, ft, frr, frt, ftt) in enumerate(parts):
            u[k] = val
            j[k, :2] = fr * r_grad + ft * t_grad
            h[k, :2, :2] = (
                frr * np.outer(r_grad, r_grad)
                + frt * (np.outer(r_grad, t_grad) + np.outer(t_grad, r_grad))
                + ftt * np.outer(t_grad, t_grad)
                + fr * r_hess
                + ft * t_hess
            )
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
        u, j = a @ x + b, a.copy()
        return (u, j) if order == 1 else (u, j, np.zeros((n, n, n)))

    return SmoothMap(n=n, jet_fn=jet_fn)


def identity_map(n: int) -> SmoothMap:
    return affine_map(np.eye(n))


def polynomial_map(n: int, seed: int = 0, amplitude: float = 0.05) -> SmoothMap:
    """Identity plus a seeded random polynomial perturbation.

    u(x) = x + amp * (C2 : x x + C3 : x x x) with coefficient tensors
    symmetrized in their derivative slots, so jets are exact. Keeps
    det J > 0 near the unit ball for the default amplitude.
    """
    rng = np.random.default_rng(seed)
    c2 = rng.standard_normal((n, n, n))
    c2 = 0.5 * (c2 + np.swapaxes(c2, 1, 2))
    c3 = rng.standard_normal((n, n, n, n))
    perms = [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)]
    c3 = sum(np.transpose(c3, p) for p in perms) / 6.0

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        u = x + amplitude * (
            np.einsum("kab,a,b->k", c2, x, x) + np.einsum("kabc,a,b,c->k", c3, x, x, x)
        )
        j = np.eye(n) + amplitude * (
            2.0 * np.einsum("kab,b->ka", c2, x)
            + 3.0 * np.einsum("kabc,b,c->ka", c3, x, x)
        )
        if order == 1:
            return u, j
        h = amplitude * (2.0 * c2 + 6.0 * np.einsum("kabc,c->kab", c3, x))
        return u, j, h

    return SmoothMap(n=n, jet_fn=jet_fn)


def _bump_profile(s: float) -> tuple[float, float, float]:
    """Cubic-cubed bump 64 s^3 (1-s)^3 on [0,1] with two derivatives.

    Vanishes to second order at both endpoints, so products of it make
    initial data compatible with fixed affine boundary values.
    """
    if s <= 0.0 or s >= 1.0:
        return 0.0, 0.0, 0.0
    b = 64.0 * s**3 * (1.0 - s) ** 3
    d1 = 192.0 * s**2 * (1.0 - s) ** 2 * (1.0 - 2.0 * s)
    d2 = 384.0 * s * (1.0 - s) * (1.0 - 5.0 * s + 5.0 * s * s)
    return b, d1, d2


def bump_map(n: int, amplitude: float = 0.05) -> SmoothMap:
    """Identity plus a separable interior bump on the unit cube.

    Each component is shifted by amplitude times the product of
    one-dimensional bumps, so the perturbation and its first and second
    derivatives vanish on the cube boundary.
    """

    # gradient entry a leaves factor a out of the product; Hessian entry
    # (a, b) leaves out factors a and b
    eye = np.eye(n, dtype=bool)
    skip_two = eye[:, None, :] | eye[None, :, :]

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        vals, d1, d2 = np.array([_bump_profile(float(x[a])) for a in range(n)]).T
        rest = np.prod(np.where(eye, 1.0, vals), axis=-1)
        others = np.prod(np.where(skip_two, 1.0, vals), axis=-1)
        grad = d1 * rest
        hess2 = np.where(eye, d2 * rest, np.outer(d1, d1) * others)
        u = x + amplitude * float(np.prod(vals))
        j = np.eye(n) + amplitude * grad
        h = np.broadcast_to(amplitude * hess2, (n, n, n)).copy()
        return u, j, h

    return SmoothMap(n=n, jet_fn=jet_fn)


# ---------------------------------------------------------------------------
# composition

@dataclass(frozen=True)
class _Composite(SmoothMap):
    """Composition of factors, innermost first, folded by _chain."""

    factors: tuple = ()


def compose(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """Composition outer(inner(x)) with the full second-order chain rule.

    Composite operands flatten into one factor list, folded innermost
    first; each factor's sampler guards its own input. Every factor but a
    conformal word (orientation-preserving by construction) must have
    det J > 0: two reflections compose to det > 0, so the composite's
    own check cannot stand in. Two conformal words compose to one word.
    """
    if outer.n != inner.n:
        raise ConfigError("composition requires matching dimensions")
    if isinstance(outer, ConformalMap) and isinstance(inner, ConformalMap):
        return _conformal_from_word(outer.word + inner.word, outer.n)
    factors = getattr(inner, "factors", (inner,)) + getattr(outer, "factors", (outer,))

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        jet = (x,)  # the input alone until the first factor is taken
        for factor in factors:
            raw = factor._raw(jet[0], order)
            if not isinstance(factor, ConformalMap):
                _positive_det(raw[1])
            jet = raw if len(jet) == 1 else _chain(raw, jet)
        return jet

    return _Composite(n=outer.n, jet_fn=jet_fn, factors=factors)


def teichmuller_map(psi: ConformalMap, middle: SmoothMap, phi: ConformalMap) -> SmoothMap:
    """Conformal conjugation psi o middle o phi^{-1} of a middle map."""
    return compose(psi, compose(middle, phi.inverse()))


def teichmuller_example(n: int = 2) -> SmoothMap:
    """Canned conformal-affine-conformal composition, smooth on the unit ball.

    Its flow lines keep the dilation constant, which makes it the
    standard drift probe for the command line and the suites.
    """
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
# boundary-pinned competitor perturbations

@dataclass(frozen=True)
class SphereBump:
    """Smooth cap bump on the unit sphere.

    Supported where the direction lies within the cap <xhat, center> >
    threshold; decays to zero with all derivatives at the cap edge.
    """

    center: np.ndarray
    threshold: float = 0.5

    def profile(self, t: float) -> tuple[float, float, float]:
        """Bump profile and two derivatives as a function of t = <xhat, c>."""
        t0 = self.threshold
        if t <= t0:
            return 0.0, 0.0, 0.0
        w = 1.0 - t0
        z = t - t0
        e = math.exp(-w / z)
        return e, e * w / z**2, e * (w * w / z**4 - 2.0 * w / z**3)

    def value(self, xhat) -> float:
        return self.profile(float(np.dot(xhat, self.center)))[0]


def _smoothstep(r: float, r0: float, r1: float) -> tuple[float, float, float]:
    """Quintic smoothstep in r with two derivatives; flat outside [r0, r1]."""
    if r <= r0:
        return 0.0, 0.0, 0.0
    if r >= r1:
        return 1.0, 0.0, 0.0
    width = r1 - r0
    t = (r - r0) / width
    val = t**3 * (10.0 - 15.0 * t + 6.0 * t * t)
    d1 = 30.0 * t * t * (1.0 - t) ** 2 / width
    d2 = (60.0 * t - 180.0 * t * t + 120.0 * t**3) / width**2
    return val, d1, d2


def competitor_perturbation(base: SmoothMap, vectors, bumps: list[SphereBump],
                            lam: float) -> SmoothMap:
    """Base map plus lam times a boundary-vanishing competitor field.

    The field is (1 - |x|^2) zeta(|x|) sum_l phi_l(x/|x|) v_l: each bump
    phi_l weights a fixed vector v_l, the quadratic prefactor pins the
    perturbation to zero on the unit sphere, and the radial fade zeta
    keeps jets smooth through the origin: it is zero for radii up to 0.2
    and fades in up to 0.4. On the sphere the gradient is exactly
    -2 (sum_l phi_l v_l) outer x.
    """
    vectors = np.asarray(vectors, dtype=float)
    n = base.n
    if vectors.ndim != 2 or vectors.shape[0] != len(bumps) or vectors.shape[1] != n:
        raise ConfigError("need one length-n vector per bump")
    r0, r1 = 0.2, 0.4  # radial fade band

    def chi_jet(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r = float(np.linalg.norm(x))
        if r <= r0:
            return np.zeros(n), np.zeros((n, n)), np.zeros((n, n, n))
        eye = np.eye(n)
        z, z1, z2 = _smoothstep(r, r0, r1)
        xhat = x / r
        # radial cutoff as a function of x
        z_grad = z1 * xhat
        z_hess = z2 * np.outer(xhat, xhat) + z1 * (eye - np.outer(xhat, xhat)) / r
        # prefactor f = (1 - r^2) zeta
        f = (1.0 - r * r) * z
        f_grad = -2.0 * z * x + (1.0 - r * r) * z_grad
        f_hess = (
            -2.0 * z * eye
            - 2.0 * np.outer(x, z_grad)
            - 2.0 * np.outer(z_grad, x)
            + (1.0 - r * r) * z_hess
        )
        # weighted bump sum w(x) = sum_l phi_l(x/|x|) v_l and derivatives
        w = np.zeros(n)
        w_grad = np.zeros((n, n))
        w_hess = np.zeros((n, n, n))
        for bump, vec in zip(bumps, vectors):
            c = np.asarray(bump.center, dtype=float)
            dot = float(np.dot(x, c))
            s = dot / r
            s_grad = c / r - dot * x / r**3
            s_hess = (
                -(np.outer(c, x) + np.outer(x, c)) / r**3
                - dot * eye / r**3
                + 3.0 * dot * np.outer(x, x) / r**5
            )
            b0, b1, b2 = bump.profile(s)
            if b0 == 0.0 and b1 == 0.0:
                continue
            phi_grad = b1 * s_grad
            phi_hess = b2 * np.outer(s_grad, s_grad) + b1 * s_hess
            w += b0 * vec
            w_grad += np.outer(vec, phi_grad)
            w_hess += np.einsum("k,ab->kab", vec, phi_hess)
        chi = f * w
        chi_grad = np.outer(w, f_grad) + f * w_grad
        chi_hess = (
            np.einsum("k,ab->kab", w, f_hess)
            + np.einsum("ka,b->kab", w_grad, f_grad)
            + np.einsum("kb,a->kab", w_grad, f_grad)
            + f * w_hess
        )
        return chi, chi_grad, chi_hess

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        u, j, h = base.jet_fn(x, 2)
        _positive_det(j)
        chi, chi_grad, chi_hess = chi_jet(x)
        return u + lam * chi, j + lam * chi_grad, h + lam * chi_hess

    return SmoothMap(n=n, jet_fn=jet_fn)


# ---------------------------------------------------------------------------
# finite-difference sampler

def fd_map(value_fn: Callable[[np.ndarray], np.ndarray], n: int, h: float) -> SmoothMap:
    """Map defined by a value function with centered-difference jets.

    h is the difference step, fixed for every point. First and second
    derivatives both converge at order two; the mixed second derivatives
    are symmetrized.
    """

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        u = np.asarray(value_fn(x), dtype=float)
        j = np.zeros((n, n))
        hess = np.zeros((n, n, n))
        shifts = h * np.eye(n)
        plus = [np.asarray(value_fn(x + shifts[a]), dtype=float) for a in range(n)]
        minus = [np.asarray(value_fn(x - shifts[a]), dtype=float) for a in range(n)]
        for a in range(n):
            j[:, a] = (plus[a] - minus[a]) / (2.0 * h)
            hess[:, a, a] = (plus[a] - 2.0 * u + minus[a]) / h**2
        for a in range(n):
            for b in range(a + 1, n):
                pp = np.asarray(value_fn(x + shifts[a] + shifts[b]), dtype=float)
                pm = np.asarray(value_fn(x + shifts[a] - shifts[b]), dtype=float)
                mp = np.asarray(value_fn(x - shifts[a] + shifts[b]), dtype=float)
                mm = np.asarray(value_fn(x - shifts[a] - shifts[b]), dtype=float)
                mixed = (pp - pm - mp + mm) / (4.0 * h**2)
                hess[:, a, b] = mixed
                hess[:, b, a] = mixed
        return u, j, hess

    return SmoothMap(n=n, jet_fn=jet_fn)


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

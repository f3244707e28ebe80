"""Deterministic verification suites behind the command-line surface.

Every suite is a fixed ordered list of named cases. A case draws its
randomness from a generator seeded with (seed, case index), so the
emitted report is byte-identical across repeat runs. Wall time is kept
out of the report unless explicitly requested, for the same reason. The
cases run one after another, in the caller's thread. A case's random
matrices and jets are read from one block of normals (_read_draws),
which is the stream, redraws and skips included, of drawing them one at
a time, and leaves the generator where that would. The case then checks
its draws in one call on the stack, whose every row is bit-equal to the
call on that draw alone.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import flowlines, gradientflow, maps, operators, tensor, traces
from .errors import GuardViolation, NonPositiveDeterminant, UnknownSuite

BASIS_DEFINITIONAL = "definitional"
BASIS_CLOSED_FORM = "closed_form"
BASIS_CROSS_CHECK = "cross_check"


# ---------------------------------------------------------------------------
# random case material

def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation with determinant +1."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _shell_point(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Random direction in R^n scaled to a radius drawn uniformly from [lo, hi]."""
    x = rng.standard_normal(n)
    return x * (float(rng.uniform(lo, hi)) / np.linalg.norm(x))


def _wedge_point(rng: np.random.Generator, alpha: float, sector: int) -> np.ndarray:
    """Point of R^3 at least 0.05 rad inside one sector of the alpha-wedge."""
    lo, hi = (0.05, alpha - 0.05) if sector == 1 else (alpha + 0.05, 2.0 * np.pi - 0.05)
    theta, r = float(rng.uniform(lo, hi)), float(rng.uniform(0.3, 1.5))
    return np.array([r * np.cos(theta), r * np.sin(theta), float(rng.uniform(-1.0, 1.0))])


# consecutive rejected candidates after which a redraw gives up
_MAX_REDRAWS = 1000


def _read_draws(rng: np.random.Generator, n: int, count: int, tail: int, scale: float,
                min_det: float, skip: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """count draws of a candidate J = I + scale Z, each followed by tail normals once kept.

    Z is n^2 standard normals, and a candidate is kept when LAPACK's det
    of J is above min_det. A rejected candidate is redrawn, or with skip
    dropped, so that count counts the draws kept, or with skip the
    candidates tried; only a kept candidate is followed by its tail.
    Returns the kept J, shape (kept, n, n), and their tails, (kept, tail).
    _MAX_REDRAWS rejections in a row, which a min_det out of the draws'
    reach gives, are a ValueError.

    The values, and the generator's state after them, are those of making
    the draws one rng call at a time: standard_normal(k) gives the values
    of any split of those k normals. One block sized as if nothing were
    rejected is read, topped up if redraws run it short, and every
    candidate's det taken at once, once more past each rejection; the
    generator is then rewound and advanced by the normals used.
    """
    size, stride = n * n, n * n + tail
    state = rng.bit_generator.state
    block = rng.standard_normal(count * stride)
    js, tails = [], []
    at, left, rejected = 0, count, 0
    while left:
        end = at + left * stride
        if end > block.size:
            block = np.concatenate((block, rng.standard_normal(end - block.size)))
        rows = block[at:end].reshape(left, stride)
        j = np.eye(n) + scale * rows[:, :size].reshape(left, n, n)
        ok = np.linalg.det(j) > min_det
        kept = left if ok.all() else int(np.argmin(ok))  # the first rejection
        js.append(j[:kept])
        tails.append(rows[:kept, size:])
        at, left = at + kept * stride, left - kept
        if left:  # the rejected candidate spent its n^2 normals
            at += size
            left -= skip
            rejected = rejected + 1 if kept == 0 else 1
            if not skip and rejected >= _MAX_REDRAWS:
                raise ValueError(f"{rejected} candidates in a row have det at or below "
                                 f"min_det={min_det!r}; no draw can be kept")
    if at < block.size:
        rng.bit_generator.state = state
        rng.standard_normal(at)
    return np.concatenate(js), np.concatenate(tails)


def _jet_draws(n: int, rng: np.random.Generator, count: int, scale: float = 0.3,
               min_det: float = 0.05, extra: int = 0) -> tuple:
    """count of random_jet's draws as stacks (J, H, x, u, more), in its rng order.

    Each draw is J (redrawn until its det is above min_det), H, x and u,
    then extra more normals, returned in more, shape (count, extra).
    """
    j, rest = _read_draws(rng, n, count, n**3 + 2 * n + extra, scale, min_det)
    h = scale * rest[:, :n**3].reshape(count, n, n, n)
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    x, u, more = np.split(rest[:, n**3:], [n, 2 * n], axis=1)
    return j, h, x, u, more


def random_jet(n: int, rng: np.random.Generator, scale: float = 0.3,
               min_det: float = 0.05) -> operators.Jet2Sample:
    """Random second-order jet with a safely positive determinant."""
    j, h, x, u, _ = _jet_draws(n, rng, 1, scale, min_det)
    return operators.Jet2Sample(x=x[0], u=u[0], J=j[0], H=h[0])


def _random_jets(n: int, rng: np.random.Generator, count: int, scale: float = 0.3,
                 min_det: float = 0.05) -> operators.Jet2Sample:
    """count random_jet draws, in its rng order, validated as one stacked Jet2Sample."""
    j, h, x, u, _ = _jet_draws(n, rng, count, scale, min_det)
    return operators.Jet2Sample(x=x, u=u, J=j, H=h)


def _jets(mapping, x: np.ndarray) -> operators.Jet2Sample:
    """One validated Jet2Sample for a stack of points, from one sampler call."""
    return operators.Jet2Sample(x, *mapping.jet_fn(x, 2))


def random_moebius(n: int, rng: np.random.Generator) -> maps.ConformalMap:
    """Random word of conformal generators, at most three letters.

    Any inversion letter is preceded (in application order) by a far
    translation, keeping the pole away from the unit-scale point clouds
    the cases sample.
    """
    plans = [
        ("rotation",),
        ("dilation",),
        ("translation",),
        ("rotation", "dilation"),
        ("translation", "rotation"),
        ("far", "inversion"),
        ("dilation", "translation", "rotation"),
        ("far", "inversion", "rotation"),
    ]
    plan = plans[int(rng.integers(len(plans)))]

    def letter(kind: str) -> maps.ConformalMap:
        if kind == "rotation":
            if n == 2:
                return maps.make_map("rotation", n=2, angle=float(rng.uniform(0.0, 2.0 * np.pi)))
            if n == 3:
                return maps.make_map("rotation", n=3, axis=rng.standard_normal(3),
                                     angle=float(rng.uniform(0.0, 2.0 * np.pi)))
            return maps.make_map("rotation", n=n, matrix=random_rotation(n, rng))
        if kind == "dilation":
            return maps.make_map("dilation", n=n, scale=float(np.exp(rng.uniform(-0.7, 0.7))))
        if kind == "translation":
            return maps.make_map("translation", offset=rng.uniform(-1.0, 1.0, size=n))
        if kind == "far":
            return maps.make_map("translation", offset=_shell_point(rng, n, 3.0, 4.0))
        return maps.make_map("inversion", n=n)

    word = letter(plan[0])
    for kind in plan[1:]:
        word = maps.compose(letter(kind), word)
    return word


# ---------------------------------------------------------------------------
# core suite

def _case_dilation_floor(rng):
    worst = 0.0
    for n in (2, 3, 4):
        k = tensor.trace_dilation(_random_jets(n, rng, 40).J)
        worst = max(worst, float(np.max(np.sqrt(n) - k)))
        conf = float(np.exp(rng.uniform(-1.0, 1.0))) * random_rotation(n, rng)
        worst = max(worst, abs(float(tensor.trace_dilation(conf)) - np.sqrt(n)))
    return worst, 0.0


def _case_distortion_unit_det(rng):
    worst = 0.0
    for n in (2, 3, 4):
        g = tensor.distortion_tensor(_random_jets(n, rng, 40).J)
        worst = max(worst, float(np.max(np.abs(np.linalg.det(g) - 1.0))))
        worst = max(worst, 0.0, -float(np.min(np.linalg.eigvalsh(g))))
    return worst, 0.0


def _case_ahlfors_trace_free(rng):
    worst = 0.0
    for n in (2, 3, 4):
        s = tensor.ahlfors(rng.standard_normal((40, n, n)))  # the stream of 40 (n, n) draws
        worst = max(worst, float(np.max(np.abs(np.trace(s, axis1=-2, axis2=-1)))))
        worst = max(worst, float(np.max(np.abs(s - np.swapaxes(s, -1, -2)))))
        conf = float(np.exp(rng.uniform(-1.0, 1.0))) * random_rotation(n, rng)
        worst = max(worst, float(tensor.hs_norm(tensor.ahlfors(tensor.distortion_tensor(conf)))))
    return worst, 0.0


def _sg_norm_sq_and_k4(j: np.ndarray) -> tuple:
    """|S(g)|^2 and K^4 of a stack of Jacobians, each power the C library's pow,
    as a single float's ** takes it."""
    k = tensor.trace_dilation(j)
    hs = tensor.hs_norm(tensor.ahlfors(tensor.distortion_tensor(j)))
    return np.float_power(hs, 2), np.float_power(k, 4)


def _case_plane_norm_identity(rng):
    sg_sq, k4 = _sg_norm_sq_and_k4(_random_jets(2, rng, 100).J)
    return float(np.max(np.abs(sg_sq - (k4 - 4.0) / 2.0))), 0.0


def _case_norm_ceiling(rng):
    worst = 0.0
    for n in (2, 3, 4):
        sg_sq, k4 = _sg_norm_sq_and_k4(_random_jets(n, rng, 60).J)
        worst = max(worst, float(np.max(sg_sq - k4 * (1.0 - 1.0 / n))))
    return worst, 0.0


def _case_factoring_identity(rng):
    worst = 0.0
    for n in (2, 3, 4):
        worst = max(worst, float(np.max(tensor.factoring_residual(_random_jets(n, rng, 60).J))))
    return worst, 0.0


def _case_cofactor_transpose(rng):
    worst = 0.0
    for n in (2, 3, 4):
        m = rng.standard_normal((40, n, n))  # the stream of 40 (n, n) draws
        res = np.swapaxes(tensor.cofactor(m), -1, -2) @ m - np.linalg.det(m)[:, None, None] * np.eye(n)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst, 0.0


# ---------------------------------------------------------------------------
# operators suite

def _case_flux_contraction(rng):
    worst = 0.0
    axes = (-2, -1)
    for n in (2, 3):
        for p in (1.0, 2.0, 5.0):
            q = _random_jets(n, rng, 40).J
            a = operators.flux(q, p)
            scale = np.max(np.abs(a), axis=axes) * np.max(np.abs(q), axis=axes) + 1e-30
            worst = max(worst, float(np.max(np.abs((a * q).sum(axis=axes)) / scale)))
    return worst, 0.0


def _case_linearization_vs_fd(rng):
    step = 1e-6
    worst = 0.0
    for n, p in ((2, 1.0), (2, 3.0), (3, 2.0)):
        q = random_jet(n, rng, scale=0.25, min_det=0.5).J
        a4 = operators.flux_linearization(q, p)
        e = (step * np.eye(n * n)).reshape(n * n, n, n)  # e[k * n + l] perturbs q[k, l]
        diff = (operators.flux(q + e, p) - operators.flux(q - e, p)) / (2.0 * step)
        fd = diff.reshape(n, n, n, n).transpose(2, 0, 3, 1)  # [k, l, i, j] -> [i, k, j, l]
        scale = float(np.max(np.abs(a4))) + 1e-30
        worst = max(worst, float(np.max(np.abs(a4 - fd))) / scale)
    return worst, 0.0


def _case_linearization_pair_symmetry(rng):
    worst = 0.0
    for n, p in ((2, 2.0), (3, 1.0), (3, 5.0)):
        a4 = operators.flux_linearization(_random_jets(n, rng, 20).J, p)
        swapped = np.swapaxes(np.swapaxes(a4, -4, -3), -2, -1)  # [i, k, j, l] -> [k, i, l, j]
        worst = max(worst, float(np.max(np.abs(a4 - swapped))))
    return worst, 0.0


def _case_factored_vs_flowform(rng):
    worst = 0.0
    for n in (2, 3):
        jets = _random_jets(n, rng, 100)
        a = operators.linfty_factored(jets)
        b = operators.linfty_flowform(jets)
        scale = np.max(np.abs(a), axis=-1) + 1e-30
        worst = max(worst, float(np.max(np.max(np.abs(a - b), axis=-1) / scale)))
    return worst, 0.0


def _case_divergence_order(rng):
    mapping = maps.polynomial_map(2, seed=int(rng.integers(2**32)), amplitude=0.08)
    x = np.array([0.15, -0.2])
    exact = operators.lp_nondiv(mapping.jet(x), 2.0)
    errs = []
    for h in (4e-3, 2e-3):
        approx = operators.lp_divergence(mapping, x, 2.0, h)
        errs.append(float(np.max(np.abs(approx - exact))))
    return errs[0] / errs[1], 4.0


def _case_asymptotic_rate(rng, p_lo: float, p_hi: float):
    worst_ratio = None
    jets = _random_jets(3, rng, 5, scale=0.4)
    target = operators.linfty_factored(jets)
    err_lo = np.max(np.abs(operators.lp_asymptotic_ratio(jets, p_lo) - target), axis=-1)
    err_hi = np.max(np.abs(operators.lp_asymptotic_ratio(jets, p_hi) - target), axis=-1)
    for ratio in (err_lo / err_hi).tolist():
        if worst_ratio is None or abs(ratio - p_hi / p_lo) > abs(worst_ratio - p_hi / p_lo):
            worst_ratio = ratio
    return worst_ratio, p_hi / p_lo


def _case_lh_no_violations(rng):
    bad = 0
    for n, p in ((2, 2.0), (2, 5.0), (3, 1.0), (3, 2.0), (3, 5.0)):
        q, _, _, _, dirs = _jet_draws(n, rng, 200, extra=2 * n)  # per draw: a jet, xi, eta
        w = operators.lh_witness(q, dirs[:, :n], dirs[:, n:], p)
        slack = 1e-10 * (np.abs(w.lower) + np.abs(w.upper))
        bad += int(np.count_nonzero((w.quadForm < w.lower - slack) | (w.quadForm > w.upper + slack)))
    return float(bad), 0.0


def _case_b_tensor_model(rng):
    b = operators.b_tensor(np.diag([2.0, 0.5]), 1.0)
    eta = np.array([1.0, 0.0])
    return float(eta @ b @ eta), -15.0 / 4.0


# ---------------------------------------------------------------------------
# examples suite

def _case_radial_dilation_value(rng):
    worst = 0.0
    for alpha in (0.5, 2.0, 3.0):
        mapping = maps.radial_stretch(alpha, 3)
        expect = maps.radial_ksq(alpha, 3)
        x = np.array([_shell_point(rng, 3, 0.5, 2.0) for _ in range(30)])
        ksq = np.float_power(tensor.trace_dilation(mapping.jacobian(x)), 2)  # pow, as float ** takes it
        worst = max(worst, float(np.max(np.abs(ksq - expect) / expect)))
    mapping = maps.radial_stretch(2.0, 3)
    ksq = float(tensor.trace_dilation(mapping.jacobian(np.array([1.0, 0.0, 0.0])))) ** 2
    worst = max(worst, abs(ksq - 6.0 / 2.0 ** (2.0 / 3.0)) / ksq)
    return worst, 0.0


def _case_radial_limit_zero(rng):
    worst = 0.0
    for alpha in (0.5, 2.0, 3.0):
        mapping = maps.radial_stretch(alpha, 3)
        x = np.array([_shell_point(rng, 3, 0.5, 2.0) for _ in range(30)])
        worst = max(worst, float(np.max(np.abs(operators.linfty_factored(_jets(mapping, x))))))
    return worst, 0.0


def _case_radial_lp_value(rng):
    worst = 0.0
    for alpha in (0.5, 2.0, 3.0):
        mapping = maps.radial_stretch(alpha, 3)
        for p in (1.0, 2.0):
            x = np.array([_shell_point(rng, 3, 0.5, 2.0) for _ in range(20)])
            got = operators.lp_nondiv(_jets(mapping, x), p)
            expect = maps.radial_lp(alpha, 3, p, x)
            scale = np.max(np.abs(expect), axis=-1) + 1e-30
            worst = max(worst, float(np.max(np.max(np.abs(got - expect), axis=-1) / scale)))
    return worst, 0.0


def _case_wedge_constants(rng):
    worst = 0.0
    for alpha in (np.pi / 2.0, 2.0 * np.pi / 3.0):
        mapping = maps.wedge_map(alpha, 3)
        for sector in (1, 2):
            det_expect, nsq_expect = maps.wedge_sector_constants(alpha, 3, sector)
            j = mapping.jacobian(np.array([_wedge_point(rng, alpha, sector) for _ in range(20)]))
            worst = max(worst, float(np.max(np.abs(np.linalg.det(j) - det_expect))))
            worst = max(worst, float(np.max(np.abs((j * j).sum(axis=(-2, -1)) - nsq_expect))))
    return worst, 0.0


def _case_wedge_limit_zero(rng):
    worst = 0.0
    mapping = maps.wedge_map(np.pi / 2.0, 3)
    for sector in (1, 2):
        x = np.array([_wedge_point(rng, np.pi / 2.0, sector) for _ in range(30)])
        worst = max(worst, float(np.max(np.abs(operators.linfty_factored(_jets(mapping, x))))))
    return worst, 0.0


def _case_inversion_conformal(rng):
    worst = 0.0
    for n in (2, 3):
        inv = maps.moebius("inversion", {"n": n})
        x = np.array([_shell_point(rng, n, 0.4, 2.0) for _ in range(30)])
        rep = tensor.analyze(inv.jacobian(x))
        worst = max(worst, float(np.max(np.abs(rep.K - np.sqrt(n)))))
        worst = max(worst, float(np.max(np.sqrt(rep.SgNormSq))))
        worst = max(worst, float(np.max(np.abs(inv.inverse().value(inv.value(x)) - x))))
    return worst, 0.0


def invariance_sample(rng) -> tuple:
    """One (u, F, x, y) quadruple for the composition-invariance checks.

    x is where the post-composition F(u) is compared; the pre-composition
    u(F) is compared at F^{-1}(y) so the polynomial factor is only ever
    evaluated inside the ball where its determinant stays positive.
    """
    n = 2 if rng.uniform() < 0.5 else 3
    u = maps.polynomial_map(n, seed=int(rng.integers(2**32)), amplitude=0.06)
    f = random_moebius(n, rng)
    return u, f, _shell_point(rng, n, 0.2, 0.7), _shell_point(rng, n, 0.2, 0.7)


def _invariance_worst(rng, count: int, measure: Callable[..., float]) -> float:
    """Largest measure(u, f, x, y) over count samples, redrawing any that fold or leave a domain."""
    worst = 0.0
    done = 0
    while done < count:
        sample = invariance_sample(rng)
        try:
            err = measure(*sample)
        except (NonPositiveDeterminant, GuardViolation):
            continue
        worst = max(worst, err)
        done += 1
    return worst


def _case_conformal_invariance(rng):
    def measure(u, f, x, y):
        xb = f.inverse().value(y)
        ku, k_post, ku_at_fx, k_pre = tensor.trace_dilation(np.stack([
            u.jacobian(x), maps.compose(f, u).jacobian(x),
            u.jacobian(f.value(xb)), maps.compose(u, f).jacobian(xb)])).tolist()
        return max(abs(k_post - ku), abs(k_pre - ku_at_fx))

    return _invariance_worst(rng, 50, measure), 0.0


def _case_distortion_conjugation(rng):
    def measure(u, f, x, _):
        sg_post, sg_u = tensor.ahlfors(tensor.distortion_tensor(
            np.stack([maps.compose(f, u).jacobian(x), u.jacobian(x)])))
        y = u.value(x)
        df = f.jacobian(y)
        return float(np.max(np.abs(sg_post - (df @ sg_u @ df.T) / f.conformal_factor(y))))

    return _invariance_worst(rng, 40, measure), 0.0


# ---------------------------------------------------------------------------
# flowlines suite

def _case_teichmuller_drift(rng):
    mapping = maps.teichmuller_example(2)
    drift = 0.0
    for _ in range(3):
        traj = flowlines.trace_flowline(mapping, _shell_point(rng, 2, 0.1, 0.5), ds=1e-3, max_len=0.3)
        drift = max(drift, float(np.max(np.abs(traj.K - traj.K[0]))))
    return drift, 0.0


def _dilation_rate(n: int, sign, kval, nsq, lim):
    """dK/ds by the formula: sign K^3 / (n^2 |J|^4) times the active L-inf row."""
    return sign * kval**3 / (n**2 * nsq**2) * lim


def _pathwise_integral_residual(mapping, traj) -> float:
    """Integral form of the pathwise identity dK/ds = _dilation_rate.

    Along each run of samples with one row and sign, the change
    K(s_k) - K(s_a) from the run's first sample is compared with the
    cumulative trapezoid integral of the formula, at every sample k. The
    worst mismatch is normalized by the largest |integral|, floored at
    sqrt(eps) max K: a K difference carries a rounding of a few eps max K,
    and the floor keeps that near sqrt(eps) on a line where K barely
    moves. The trapezoid error is O(ds^2). Every sample's jet comes from
    one sampler call and one stacked linfty_factored. A line with no
    interval inside a run returns 1.0.
    """
    n = mapping.n
    row, sign, kval = traj.row, traj.sign, traj.K
    same = (row[1:] == row[:-1]) & (sign[1:] == sign[:-1])
    if not same.any():
        return 1.0
    jets = _jets(mapping, traj.x)
    nsq = (jets.J * jets.J).sum(axis=(-2, -1))
    lim = operators.linfty_factored(jets)[np.arange(len(traj)), row - 1]
    dk = _dilation_rate(n, sign, kval, nsq, lim)
    # an interval across a row or sign switch adds nothing, so the running
    # total less its value at a run's first sample is that run's integral
    steps = np.where(same, 0.5 * np.diff(traj.s) * (dk[1:] + dk[:-1]), 0.0)
    total = np.concatenate(([0.0], np.cumsum(steps)))
    starts = np.concatenate(([True], ~same))  # sample k opens a run
    first = np.flatnonzero(starts)[np.cumsum(starts) - 1]  # each sample's run opener
    integral = total - total[first]
    mismatch = float(np.max(np.abs(kval - kval[first] - integral)))
    floor = np.sqrt(np.finfo(float).eps) * float(np.max(kval))
    return mismatch / max(float(np.max(np.abs(integral))), floor)


def _case_pathwise_identity(rng):
    mapping = maps.polynomial_map(2, seed=int(rng.integers(2**32)), amplitude=0.08)
    traj = flowlines.trace_flowline(mapping, np.array([0.12, -0.08]), ds=1e-3, max_len=0.2)
    return _pathwise_integral_residual(mapping, traj), 0.0


def _case_affine_recovery(rng):
    a = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    while np.linalg.det(a) <= 0.2:
        a = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    mapping = maps.affine_map(a)
    traj = flowlines.trace_flowline(mapping, np.array([0.1, 0.05]), ds=1e-2, max_len=0.4)
    if traj.terminated == "degenerate":
        return 0.0, 0.0
    row = int(traj.row[0])
    return flowlines.du_recovery_check(mapping, traj, row), 0.0


def _case_boundary_stop(rng):
    mapping = maps.teichmuller_example(2)
    x0 = np.array([0.9, 0.0])
    traj = flowlines.trace_flowline(mapping, x0, ds=1e-3, max_len=3.0)
    if traj.terminated != "boundary":
        return 1.0, 0.0
    return abs(float(np.linalg.norm(traj.x[-1])) - 1.0), 0.0


def _case_degenerate_start(rng):
    rot = maps.moebius("rotation", {"n": 2, "angle": 0.4})
    traj = flowlines.trace_flowline(rot, np.array([0.3, 0.1]), ds=1e-3, max_len=0.5)
    ok = traj.terminated == "degenerate" and len(traj) == 1
    return (0.0 if ok else 1.0), 0.0


# ---------------------------------------------------------------------------
# traces suite

def _unit_sphere_records(rng) -> traces.TraceInequalityRecord:
    """Trace-inequality records of 200 near-identity linear maps, each at a random
    point of the unit sphere in R^3, as one record of stacks; a map with
    det <= 0.05 is skipped, and a run that skips them all is refused."""
    j, x = _read_draws(rng, 3, 200, 3, 0.4, 0.05, skip=True)
    if not len(j):
        raise ValueError("every candidate map was skipped; nothing was checked")
    x = x / np.sqrt(np.vecdot(x, x))[:, None]  # as np.linalg.norm of one point takes it
    return traces._inequality_records(j, traces.Sphere(center=np.zeros(3), radius=1.0), x)


def _case_block_identities(rng):
    rec = _unit_sphere_records(rng)
    return float(max(np.max(rec.block_norm_residual), np.max(rec.block_det_residual))), 0.0


def _case_oneway_slack(rng):
    return max(0.0, -float(np.min(_unit_sphere_records(rng).slack))), 0.0


def _case_critical_equality(rng):
    draws = []
    for _ in range(50):
        normal = rng.standard_normal(3)
        normal /= np.linalg.norm(normal)
        stretches = np.exp(rng.uniform(-0.5, 0.5, size=2))
        draws.append((traces.eigen_aligned_linear(normal, stretches, seed=int(rng.integers(2**32))),
                      normal))
    j, normal = (np.array(slot) for slot in zip(*draws))
    rec = traces.critical_equality_check(j, normal)
    return float(np.max(np.abs(rec.lhs - rec.rhs) / (np.abs(rec.rhs) + 1e-30))), 0.0


def _case_critical_hand_value(rng):
    j = np.diag([np.sqrt(2.0), 1.0, np.sqrt(3.0)])
    rec = traces.critical_equality_check(j, np.array([1.0, 0.0, 0.0]))
    expect = 4.0 / np.sqrt(3.0)
    return max(abs(rec.lhs - expect), abs(rec.rhs - expect)), 0.0


# ---------------------------------------------------------------------------
# flow suite

def _case_identity_energy(rng):
    grid = gradientflow.make_grid(maps.identity_map(2), (17, 17), 1.0 / 16.0)
    return gradientflow.energy(grid, 2.0), 4.0


def _case_affine_stationary(rng):
    grid = gradientflow.make_grid(maps.affine_map(np.diag([2.0, 0.5])), (17, 17), 1.0 / 16.0)
    e0 = gradientflow.energy(grid, 1.0)
    dt = gradientflow.dtmax(grid, 1.0)
    worst = 0.0
    for _ in range(5):
        grid = gradientflow.explicit_step(grid, 1.0, dt)
        worst = max(worst, abs(gradientflow.energy(grid, 1.0) - e0))
    return worst, 0.0


def _case_step_bound_scaling(rng):
    coarse = gradientflow.make_grid(maps.identity_map(2), (17, 17), 1.0 / 16.0)
    fine = gradientflow.make_grid(maps.identity_map(2), (33, 33), 1.0 / 32.0)
    ratio = gradientflow.dtmax(coarse, 2.0) / gradientflow.dtmax(fine, 2.0)
    return ratio, 4.0


def _case_bump_monotone(rng):
    grid = gradientflow.make_grid(maps.bump_map(2, amplitude=0.05), (17, 17), 1.0 / 16.0)
    dt = gradientflow.dtmax(grid, 2.0)
    stats = gradientflow.run_flow(grid, 2.0, 25.0 * dt)
    rises = np.diff(np.asarray(stats.energy))
    return max(0.0, float(np.max(rises))), 0.0


def _case_snapshot_roundtrip(rng):
    grid = gradientflow.make_grid(maps.bump_map(2, amplitude=0.05), (9, 9), 1.0 / 8.0)
    fd, path = tempfile.mkstemp(suffix=".bin")
    os.close(fd)
    try:
        gradientflow.write_snapshot(grid, path)
        values, h = gradientflow.read_snapshot(path)
    finally:
        os.unlink(path)
    worst = float(np.max(np.abs(values - grid.values)))
    return max(worst, abs(h - grid.h)), 0.0


# ---------------------------------------------------------------------------
# suite registry and runner

@dataclass(frozen=True)
class SuiteCase:
    case_id: str
    basis: str
    tolerance: float
    fn: Callable[[np.random.Generator], tuple]


_SUITES: dict[str, list[SuiteCase]] = {
    "core": [
        SuiteCase("core.ahlfors_trace_free", BASIS_DEFINITIONAL, 1e-12, _case_ahlfors_trace_free),
        SuiteCase("core.cofactor_transpose", BASIS_DEFINITIONAL, 1e-10, _case_cofactor_transpose),
        SuiteCase("core.dilation_floor", BASIS_CLOSED_FORM, 1e-12, _case_dilation_floor),
        SuiteCase("core.distortion_unit_det", BASIS_DEFINITIONAL, 1e-11, _case_distortion_unit_det),
        SuiteCase("core.factoring_identity", BASIS_CROSS_CHECK, 1e-10, _case_factoring_identity),
        SuiteCase("core.norm_ceiling", BASIS_CLOSED_FORM, 1e-12, _case_norm_ceiling),
        SuiteCase("core.plane_norm_identity", BASIS_CLOSED_FORM, 1e-10, _case_plane_norm_identity),
    ],
    "operators": [
        SuiteCase("operators.asymptotic_rate_high", BASIS_CROSS_CHECK, 3.0,
                  lambda rng: _case_asymptotic_rate(rng, 100.0, 1000.0)),
        SuiteCase("operators.asymptotic_rate_low", BASIS_CROSS_CHECK, 3.0,
                  lambda rng: _case_asymptotic_rate(rng, 10.0, 100.0)),
        SuiteCase("operators.b_tensor_model_case", BASIS_CLOSED_FORM, 1e-12, _case_b_tensor_model),
        SuiteCase("operators.divergence_order", BASIS_CROSS_CHECK, 0.8, _case_divergence_order),
        SuiteCase("operators.factored_vs_flowform", BASIS_CROSS_CHECK, 1e-8, _case_factored_vs_flowform),
        SuiteCase("operators.flux_contraction", BASIS_CLOSED_FORM, 1e-9, _case_flux_contraction),
        SuiteCase("operators.lh_no_violations", BASIS_CLOSED_FORM, 0.0, _case_lh_no_violations),
        SuiteCase("operators.linearization_pair_symmetry", BASIS_DEFINITIONAL, 1e-14,
                  _case_linearization_pair_symmetry),
        SuiteCase("operators.linearization_vs_fd", BASIS_CROSS_CHECK, 1e-7, _case_linearization_vs_fd),
    ],
    "examples": [
        SuiteCase("examples.conformal_invariance", BASIS_CLOSED_FORM, 1e-9, _case_conformal_invariance),
        SuiteCase("examples.distortion_conjugation", BASIS_CLOSED_FORM, 1e-8, _case_distortion_conjugation),
        SuiteCase("examples.inversion_conformal", BASIS_CLOSED_FORM, 1e-10, _case_inversion_conformal),
        SuiteCase("examples.radial_dilation_value", BASIS_CLOSED_FORM, 1e-12, _case_radial_dilation_value),
        SuiteCase("examples.radial_limit_zero", BASIS_CLOSED_FORM, 1e-8, _case_radial_limit_zero),
        SuiteCase("examples.radial_lp_value", BASIS_CLOSED_FORM, 1e-8, _case_radial_lp_value),
        SuiteCase("examples.wedge_constants", BASIS_CLOSED_FORM, 1e-12, _case_wedge_constants),
        SuiteCase("examples.wedge_limit_zero", BASIS_CLOSED_FORM, 1e-8, _case_wedge_limit_zero),
    ],
    "flowlines": [
        SuiteCase("flowlines.affine_recovery", BASIS_CROSS_CHECK, 1e-12, _case_affine_recovery),
        SuiteCase("flowlines.boundary_stop", BASIS_DEFINITIONAL, 1e-9, _case_boundary_stop),
        SuiteCase("flowlines.degenerate_start", BASIS_DEFINITIONAL, 0.0, _case_degenerate_start),
        SuiteCase("flowlines.pathwise_identity", BASIS_CROSS_CHECK, 1e-5, _case_pathwise_identity),
        SuiteCase("flowlines.teichmuller_drift", BASIS_CLOSED_FORM, 1e-6, _case_teichmuller_drift),
    ],
    "traces": [
        SuiteCase("traces.block_identities", BASIS_CROSS_CHECK, 1e-10, _case_block_identities),
        SuiteCase("traces.critical_equality", BASIS_CLOSED_FORM, 1e-9, _case_critical_equality),
        SuiteCase("traces.critical_hand_value", BASIS_CLOSED_FORM, 1e-12, _case_critical_hand_value),
        SuiteCase("traces.oneway_slack", BASIS_CLOSED_FORM, 1e-10, _case_oneway_slack),
    ],
    "flow": [
        SuiteCase("flow.affine_stationary", BASIS_CLOSED_FORM, 1e-11, _case_affine_stationary),
        SuiteCase("flow.bump_monotone", BASIS_CROSS_CHECK, 1e-11, _case_bump_monotone),
        SuiteCase("flow.identity_energy_value", BASIS_CLOSED_FORM, 1e-12, _case_identity_energy),
        SuiteCase("flow.snapshot_roundtrip", BASIS_DEFINITIONAL, 0.0, _case_snapshot_roundtrip),
        SuiteCase("flow.step_bound_scaling", BASIS_CLOSED_FORM, 1e-12, _case_step_bound_scaling),
    ],
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


@dataclass
class SuiteReport:
    """Rendered suite outcome plus wall time kept out of the payload."""

    payload: dict
    wall_time: float

    @property
    def passed(self) -> bool:
        return self.payload["summary"]["failed"] == 0

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"


def _run_case(case: SuiteCase, index: int, seed: int, tol_scale: float, timing: bool) -> dict:
    start = time.perf_counter()
    rng = np.random.default_rng((seed, index))
    tolerance = case.tolerance * tol_scale
    error = None
    try:
        measured, expected = case.fn(rng)
        measured = float(measured)
        expected = float(expected)
        ok = abs(measured - expected) <= tolerance
    except Exception as exc:  # a case that raises fails, and its row says why
        measured, expected, ok = float("inf"), 0.0, False
        error = f"{type(exc).__name__}: {exc}"
    row = {
        "id": case.case_id,
        "basis": case.basis,
        "status": "pass" if ok else "fail",
        "measured": measured,
        "expected": expected,
        "tolerance": tolerance,
    }
    if error is not None:
        row["error"] = error
    if timing:
        row["wallTime"] = time.perf_counter() - start
    return row


def run_suite(name: str, seed: int = 0, tol_scale: float = 1.0, threads: int = 1,
              timing: bool = False) -> SuiteReport:
    """Run one named suite and return its report.

    The report is deterministic for a fixed seed: case order, case
    generators and float formatting are fixed. tol_scale must be a finite
    number >= 0, and threads 1. timing adds the suite's wall time to the
    report and each case's to its row, which breaks that.
    """
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    if not 0.0 <= tol_scale < np.inf:  # NaN fails too
        raise ValueError(f"tol_scale must be a finite number >= 0, got {tol_scale!r}")
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    cases = _SUITES[name]
    start = time.perf_counter()
    rows = [_run_case(case, i, seed, tol_scale, timing) for i, case in enumerate(cases)]
    wall = time.perf_counter() - start
    rows.sort(key=lambda row: row["id"])
    failed = sum(1 for row in rows if row["status"] == "fail")
    payload = {
        "suite": name,
        "seed": seed,
        "tolScale": tol_scale,
        "cases": rows,
        "summary": {"total": len(rows), "passed": len(rows) - failed, "failed": failed},
    }
    if timing:
        payload["wallTime"] = wall
    return SuiteReport(payload=payload, wall_time=wall)

"""Deterministic verification suites behind the command-line surface.

Every suite is a fixed ordered list of named cases. A case draws its
randomness from a generator seeded with (seed, case index), so the
emitted report is byte-identical across repeat runs and across worker
counts. Wall time is kept out of the report unless explicitly requested,
for the same reason.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import flowlines, gradientflow, maps, operators, tensor, traces
from .errors import UnknownSuite

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


def random_jet(n: int, rng: np.random.Generator, scale: float = 0.3,
               min_det: float = 0.05) -> operators.Jet2Sample:
    """Random second-order jet with a safely positive determinant."""
    while True:
        j = np.eye(n) + scale * rng.standard_normal((n, n))
        if np.linalg.det(j) > min_det:
            break
    h = scale * rng.standard_normal((n, n, n))
    h = 0.5 * (h + np.swapaxes(h, 1, 2))
    return operators.Jet2Sample(
        x=rng.standard_normal(n), u=rng.standard_normal(n), J=j, H=h
    )


def random_moebius(n: int, rng: np.random.Generator, max_len: int = 3) -> maps.ConformalMap:
    """Random word of conformal generators, at most max_len letters.

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
    plans = [p for p in plans if len(p) <= max_len]
    plan = plans[int(rng.integers(len(plans)))]

    def letter(kind: str) -> maps.ConformalMap:
        if kind == "rotation":
            if n == 2:
                return maps.moebius("rotation", {"n": 2, "angle": float(rng.uniform(0.0, 2.0 * np.pi))})
            if n == 3:
                return maps.moebius(
                    "rotation",
                    {"n": 3, "axis": rng.standard_normal(3), "angle": float(rng.uniform(0.0, 2.0 * np.pi))},
                )
            return maps.moebius("rotation", {"n": n, "matrix": random_rotation(n, rng)})
        if kind == "dilation":
            return maps.moebius("dilation", {"n": n, "scale": float(np.exp(rng.uniform(-0.7, 0.7)))})
        if kind == "translation":
            return maps.moebius("translation", {"offset": rng.uniform(-1.0, 1.0, size=n)})
        if kind == "far":
            shift = rng.standard_normal(n)
            shift *= (3.0 + float(rng.uniform(0.0, 1.0))) / np.linalg.norm(shift)
            return maps.moebius("translation", {"offset": shift})
        return maps.moebius("inversion", {"n": n})

    letters = [letter(kind) for kind in plan]
    word = letters[0]
    for nxt in letters[1:]:
        word = maps.compose(nxt, word)
    return word


def _teichmuller_fixture(n: int = 2) -> maps.SmoothMap:
    """Fixed conformal-affine-conformal composition used by flow-line cases."""
    return maps.teichmuller_example(n)


# ---------------------------------------------------------------------------
# core suite

def _case_dilation_floor(rng):
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(40):
            jet = random_jet(n, rng)
            worst = max(worst, float(np.sqrt(n) - tensor.trace_dilation(jet.J)))
        conf = float(np.exp(rng.uniform(-1.0, 1.0))) * random_rotation(n, rng)
        worst = max(worst, abs(float(tensor.trace_dilation(conf)) - np.sqrt(n)))
    return worst, 0.0


def _case_distortion_unit_det(rng):
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(40):
            g = tensor.distortion_tensor(random_jet(n, rng).J)
            worst = max(worst, abs(float(np.linalg.det(g)) - 1.0))
            worst = max(worst, max(0.0, -float(np.min(np.linalg.eigvalsh(g)))))
    return worst, 0.0


def _case_ahlfors_trace_free(rng):
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(40):
            s = tensor.ahlfors(rng.standard_normal((n, n)))
            worst = max(worst, abs(float(np.trace(s))))
            worst = max(worst, float(np.max(np.abs(s - s.T))))
        conf = float(np.exp(rng.uniform(-1.0, 1.0))) * random_rotation(n, rng)
        worst = max(worst, float(tensor.hs_norm(tensor.ahlfors(tensor.distortion_tensor(conf)))))
    return worst, 0.0


def _case_plane_norm_identity(rng):
    worst = 0.0
    for _ in range(100):
        j = random_jet(2, rng).J
        k = float(tensor.trace_dilation(j))
        sg = tensor.ahlfors(tensor.distortion_tensor(j))
        worst = max(worst, abs(float(tensor.hs_norm(sg)) ** 2 - (k**4 - 4.0) / 2.0))
    return worst, 0.0


def _case_norm_ceiling(rng):
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(60):
            j = random_jet(n, rng).J
            k = float(tensor.trace_dilation(j))
            sg = tensor.ahlfors(tensor.distortion_tensor(j))
            worst = max(worst, float(tensor.hs_norm(sg)) ** 2 - k**4 * (1.0 - 1.0 / n))
    return worst, 0.0


def _case_factoring_identity(rng):
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(60):
            worst = max(worst, float(tensor.factoring_residual(random_jet(n, rng).J)))
    return worst, 0.0


def _case_cofactor_transpose(rng):
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(40):
            m = rng.standard_normal((n, n))
            res = tensor.cofactor(m).T @ m - np.linalg.det(m) * np.eye(n)
            worst = max(worst, float(np.max(np.abs(res))))
    return worst, 0.0


# ---------------------------------------------------------------------------
# operators suite

def _case_flux_contraction(rng):
    worst = 0.0
    for n in (2, 3):
        for p in (1.0, 2.0, 5.0):
            for _ in range(40):
                q = random_jet(n, rng).J
                a = operators.flux(q, p)
                scale = float(np.max(np.abs(a))) * float(np.max(np.abs(q))) + 1e-30
                worst = max(worst, abs(float(np.sum(a * q))) / scale)
    return worst, 0.0


def _case_linearization_vs_fd(rng):
    step = 1e-6
    worst = 0.0
    for n, p in ((2, 1.0), (2, 3.0), (3, 2.0)):
        q = random_jet(n, rng, scale=0.25, min_det=0.5).J
        a4 = operators.flux_linearization(q, p)
        fd = np.zeros_like(a4)
        for k in range(n):
            for l in range(n):
                e = np.zeros((n, n))
                e[k, l] = step
                fd[:, k, :, l] = (operators.flux(q + e, p) - operators.flux(q - e, p)) / (2.0 * step)
        scale = float(np.max(np.abs(a4))) + 1e-30
        worst = max(worst, float(np.max(np.abs(a4 - fd))) / scale)
    return worst, 0.0


def _case_linearization_pair_symmetry(rng):
    worst = 0.0
    for n, p in ((2, 2.0), (3, 1.0), (3, 5.0)):
        for _ in range(20):
            a4 = operators.flux_linearization(random_jet(n, rng).J, p)
            worst = max(worst, float(np.max(np.abs(a4 - np.transpose(a4, (1, 0, 3, 2))))))
    return worst, 0.0


def _case_factored_vs_flowform(rng):
    worst = 0.0
    for n in (2, 3):
        for _ in range(100):
            jet = random_jet(n, rng)
            a = operators.linfty_factored(jet)
            b = operators.linfty_flowform(jet)
            scale = float(np.max(np.abs(a))) + 1e-30
            worst = max(worst, float(np.max(np.abs(a - b))) / scale)
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
    for _ in range(5):
        jet = random_jet(3, rng, scale=0.4)
        target = operators.linfty_factored(jet)
        err_lo = float(np.max(np.abs(operators.lp_asymptotic_ratio(jet, p_lo) - target)))
        err_hi = float(np.max(np.abs(operators.lp_asymptotic_ratio(jet, p_hi) - target)))
        ratio = err_lo / err_hi
        if worst_ratio is None or abs(ratio - p_hi / p_lo) > abs(worst_ratio - p_hi / p_lo):
            worst_ratio = ratio
    return worst_ratio, p_hi / p_lo


def _case_lh_no_violations(rng):
    bad = 0
    for n, p in ((2, 2.0), (2, 5.0), (3, 1.0), (3, 2.0), (3, 5.0)):
        for _ in range(200):
            q = random_jet(n, rng).J
            w = operators.lh_witness(q, rng.standard_normal(n), rng.standard_normal(n), p)
            slack = 1e-10 * (abs(w.lower) + abs(w.upper))
            if w.quadForm < w.lower - slack or w.quadForm > w.upper + slack:
                bad += 1
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
        for _ in range(30):
            x = rng.standard_normal(3)
            x *= float(rng.uniform(0.5, 2.0)) / np.linalg.norm(x)
            ksq = float(tensor.trace_dilation(mapping.jet(x).J)) ** 2
            worst = max(worst, abs(ksq - expect) / expect)
    mapping = maps.radial_stretch(2.0, 3)
    ksq = float(tensor.trace_dilation(mapping.jet(np.array([1.0, 0.0, 0.0])).J)) ** 2
    worst = max(worst, abs(ksq - 6.0 / 2.0 ** (2.0 / 3.0)) / ksq)
    return worst, 0.0


def _case_radial_limit_zero(rng):
    worst = 0.0
    for alpha in (0.5, 2.0, 3.0):
        mapping = maps.radial_stretch(alpha, 3)
        for _ in range(30):
            x = rng.standard_normal(3)
            x *= float(rng.uniform(0.5, 2.0)) / np.linalg.norm(x)
            worst = max(worst, float(np.max(np.abs(operators.linfty_factored(mapping.jet(x))))))
    return worst, 0.0


def _case_radial_lp_value(rng):
    worst = 0.0
    for alpha in (0.5, 2.0, 3.0):
        mapping = maps.radial_stretch(alpha, 3)
        for p in (1.0, 2.0):
            for _ in range(20):
                x = rng.standard_normal(3)
                x *= float(rng.uniform(0.5, 2.0)) / np.linalg.norm(x)
                got = operators.lp_nondiv(mapping.jet(x), p)
                expect = maps.radial_lp(alpha, 3, p, x)
                scale = float(np.max(np.abs(expect))) + 1e-30
                worst = max(worst, float(np.max(np.abs(got - expect))) / scale)
    return worst, 0.0


def _case_wedge_constants(rng):
    worst = 0.0
    for alpha in (np.pi / 2.0, 2.0 * np.pi / 3.0):
        mapping = maps.wedge_map(alpha, 3)
        for sector in (1, 2):
            det_expect, nsq_expect = maps.wedge_sector_constants(alpha, 3, sector)
            for _ in range(20):
                theta = float(rng.uniform(0.05, alpha - 0.05)) if sector == 1 else float(
                    rng.uniform(alpha + 0.05, 2.0 * np.pi - 0.05)
                )
                r = float(rng.uniform(0.3, 1.5))
                x = np.array([r * np.cos(theta), r * np.sin(theta), float(rng.uniform(-1.0, 1.0))])
                jet = mapping.jet(x)
                worst = max(worst, abs(float(np.linalg.det(jet.J)) - det_expect))
                worst = max(worst, abs(float(np.sum(jet.J * jet.J)) - nsq_expect))
    return worst, 0.0


def _case_wedge_limit_zero(rng):
    worst = 0.0
    mapping = maps.wedge_map(np.pi / 2.0, 3)
    for sector in (1, 2):
        for _ in range(30):
            alpha = np.pi / 2.0
            theta = float(rng.uniform(0.05, alpha - 0.05)) if sector == 1 else float(
                rng.uniform(alpha + 0.05, 2.0 * np.pi - 0.05)
            )
            r = float(rng.uniform(0.3, 1.5))
            x = np.array([r * np.cos(theta), r * np.sin(theta), float(rng.uniform(-1.0, 1.0))])
            worst = max(worst, float(np.max(np.abs(operators.linfty_factored(mapping.jet(x))))))
    return worst, 0.0


def _case_inversion_conformal(rng):
    worst = 0.0
    for n in (2, 3):
        inv = maps.moebius("inversion", {"n": n})
        back = inv.inverse()
        for _ in range(30):
            x = rng.standard_normal(n)
            x *= float(rng.uniform(0.4, 2.0)) / np.linalg.norm(x)
            rep = tensor.analyze(inv.jet(x).J)
            worst = max(worst, abs(float(rep.K) - np.sqrt(n)))
            worst = max(worst, float(np.sqrt(rep.SgNormSq)))
            worst = max(worst, float(np.max(np.abs(back.value(inv.value(x)) - x))))
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
    x = rng.standard_normal(n)
    x *= float(rng.uniform(0.2, 0.7)) / np.linalg.norm(x)
    y = rng.standard_normal(n)
    y *= float(rng.uniform(0.2, 0.7)) / np.linalg.norm(y)
    return u, f, x, y


def _case_conformal_invariance(rng):
    from .errors import GuardViolation, NonPositiveDeterminant

    worst = 0.0
    done = 0
    while done < 50:
        u, f, x, y = invariance_sample(rng)
        try:
            ku = float(tensor.trace_dilation(u.jet(x).J))
            post = maps.compose(f, u)
            d_post = abs(float(tensor.trace_dilation(post.jet(x).J)) - ku)
            xb = f.inverse().value(y)
            pre = maps.compose(u, f)
            ku_at_fx = float(tensor.trace_dilation(u.jet(f.value(xb)).J))
            d_pre = abs(float(tensor.trace_dilation(pre.jet(xb).J)) - ku_at_fx)
        except (NonPositiveDeterminant, GuardViolation):
            continue
        worst = max(worst, d_post, d_pre)
        done += 1
    return worst, 0.0


def _case_distortion_conjugation(rng):
    from .errors import GuardViolation, NonPositiveDeterminant

    worst = 0.0
    done = 0
    while done < 40:
        u, f, x, _ = invariance_sample(rng)
        try:
            post = maps.compose(f, u)
            sg_post = tensor.ahlfors(tensor.distortion_tensor(post.jet(x).J))
            y = u.value(x)
            df = f.jacobian(y)
            lam = f.conformal_factor(y)
            sg_u = tensor.ahlfors(tensor.distortion_tensor(u.jet(x).J))
        except (NonPositiveDeterminant, GuardViolation):
            continue
        worst = max(worst, float(np.max(np.abs(sg_post - (df @ sg_u @ df.T) / lam))))
        done += 1
    return worst, 0.0


# ---------------------------------------------------------------------------
# flowlines suite

def _case_teichmuller_drift(rng):
    mapping = _teichmuller_fixture(2)
    drift = 0.0
    for _ in range(3):
        x0 = rng.standard_normal(2)
        x0 *= float(rng.uniform(0.1, 0.5)) / np.linalg.norm(x0)
        traj = flowlines.trace_flowline(mapping, x0, ds=1e-3, max_len=0.3)
        drift = max(drift, float(np.max(np.abs(traj.K - traj.K[0]))))
    return drift, 0.0


def pathwise_derivative_pairs(mapping, traj) -> list:
    """Centered dilation derivative vs the row-field formula along a curve.

    Samples adjacent to a row or sign switch are dropped; each kept entry
    is (finite difference, formula value).
    """
    n = mapping.n
    pairs = []
    for k in range(1, len(traj) - 1):
        same_row = traj.row[k - 1] == traj.row[k] == traj.row[k + 1]
        same_sign = traj.sign[k - 1] == traj.sign[k] == traj.sign[k + 1]
        if not (same_row and same_sign):
            continue
        ds = float(traj.s[k + 1] - traj.s[k - 1])
        dk_fd = float(traj.K[k + 1] - traj.K[k - 1]) / ds
        jet = mapping.jet(traj.x[k])
        kval = float(traj.K[k])
        nsq = float(np.sum(jet.J * jet.J))
        lim = operators.linfty_factored(jet)
        row = int(traj.row[k]) - 1
        dk_formula = float(traj.sign[k]) * kval**3 / (n**2 * nsq**2) * float(lim[row])
        pairs.append((dk_fd, dk_formula))
    return pairs


def _case_pathwise_identity(rng):
    mapping = maps.polynomial_map(2, seed=int(rng.integers(2**32)), amplitude=0.08)
    x0 = np.array([0.12, -0.08])
    traj = flowlines.trace_flowline(mapping, x0, ds=2e-4, max_len=0.2)
    pairs = pathwise_derivative_pairs(mapping, traj)
    if not pairs:
        return 1.0, 0.0
    # mixed comparison: relative where the derivative is live, floored at
    # a twentieth of the curve's derivative scale near zero crossings
    scale = max(abs(f) for _, f in pairs)
    floor = max(0.05 * scale, 1e-12)
    worst = max(abs(fd - f) / max(abs(f), floor) for fd, f in pairs)
    return worst, 0.0


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
    mapping = _teichmuller_fixture(2)
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

def _case_block_identities(rng):
    sphere = traces.Sphere(center=np.zeros(3), radius=1.0)
    worst = 0.0
    for _ in range(200):
        a = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        if np.linalg.det(a) <= 0.05:
            continue
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        rec = traces.trace_inequality_check(maps.affine_map(a), sphere, x)
        worst = max(worst, float(rec.block_norm_residual), float(rec.block_det_residual))
    return worst, 0.0


def _case_oneway_slack(rng):
    sphere = traces.Sphere(center=np.zeros(3), radius=1.0)
    low = np.inf
    for _ in range(200):
        a = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        if np.linalg.det(a) <= 0.05:
            continue
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        rec = traces.trace_inequality_check(maps.affine_map(a), sphere, x)
        low = min(low, float(rec.slack))
    return max(0.0, -low), 0.0


def _case_critical_equality(rng):
    worst = 0.0
    for _ in range(50):
        normal = rng.standard_normal(3)
        normal /= np.linalg.norm(normal)
        stretches = np.exp(rng.uniform(-0.5, 0.5, size=2))
        j = traces.eigen_aligned_linear(normal, stretches, seed=int(rng.integers(2**32)))
        rec = traces.critical_equality_check(j, normal)
        worst = max(worst, abs(rec.lhs - rec.rhs) / (abs(rec.rhs) + 1e-30))
    return worst, 0.0


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


def _run_case(case: SuiteCase, index: int, seed: int, tol_scale: float) -> dict:
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
    return row


def run_suite(name: str, seed: int = 0, tol_scale: float = 1.0, threads: int = 1,
              timing: bool = False) -> SuiteReport:
    """Run one named suite and return its report.

    The report is deterministic for a fixed seed: case order, case
    generators, and float formatting do not depend on the worker count.
    """
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    cases = _SUITES[name]
    start = time.perf_counter()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(
                lambda pair: _run_case(pair[1], pair[0], seed, tol_scale),
                enumerate(cases),
            ))
    else:
        rows = [_run_case(case, i, seed, tol_scale) for i, case in enumerate(cases)]
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

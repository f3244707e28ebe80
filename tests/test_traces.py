"""Adapted frames, tangential dilation, and the trace inequalities."""

import math

import numpy as np
import pytest

from qcflow import HypothesisViolated, NonFiniteValue, NonPositiveDeterminant
from qcflow.maps import SmoothMap, affine_map, compose, identity_map, moebius, radial_stretch
from qcflow.tensor import trace_dilation
from qcflow.traces import (
    Hyperplane,
    Sphere,
    adapted_frame,
    critical_equality_check,
    eigen_aligned_linear,
    tangential_dilation,
    trace_inequality_check,
)


def random_linear(rng, n, scale=0.4, min_det=0.1):
    while True:
        j = np.eye(n) + scale * rng.standard_normal((n, n))
        if np.linalg.det(j) > min_det:
            return j


def sphere_point(rng, n):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


class TestSurfaces:
    def test_sphere_normal(self):
        s = Sphere(center=(0.0, 0.0), radius=2.0)
        np.testing.assert_allclose(s.normal_at([2.0, 0.0]), [1.0, 0.0])

    def test_sphere_rejects_off_surface(self):
        s = Sphere(center=(0.0, 0.0), radius=1.0)
        with pytest.raises(ValueError):
            s.normal_at([0.5, 0.0])

    def test_hyperplane_normal_unit(self):
        p = Hyperplane(normal=(2.0, 0.0, 0.0), offset=0.0)
        np.testing.assert_allclose(p.normal_at([0.0, 1.0, 2.0]), [1.0, 0.0, 0.0])


class TestAdaptedFrame:
    def test_identity_at_e1(self):
        frame = adapted_frame(identity_map(3), Sphere(center=(0, 0, 0), radius=1.0),
                              [1.0, 0.0, 0.0])
        np.testing.assert_allclose(frame.normal, [1.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(frame.w0, [1.0, 0.0, 0.0], atol=1e-14)
        # tangent frames coincide for the identity
        np.testing.assert_allclose(frame.tangent, frame.w_tangent, atol=1e-12)

    def test_diagonal_map_plane(self):
        m = affine_map(np.diag([math.sqrt(2.0), 1.0, math.sqrt(3.0)]))
        plane = Hyperplane(normal=(1.0, 0.0, 0.0), offset=0.0)
        frame = adapted_frame(m, plane, [0.0, 0.3, -0.4])
        np.testing.assert_allclose(np.abs(frame.w0), [1.0, 0.0, 0.0], atol=1e-12)
        # image tangent vectors stay in the e2-e3 coordinate plane
        assert np.max(np.abs(frame.w_tangent[:, 0])) <= 1e-12

    def test_orthonormal_and_oriented(self):
        rng = np.random.default_rng(401)
        sphere = Sphere(center=(0.0, 0.0, 0.0), radius=1.0)
        for _ in range(50):
            m = affine_map(random_linear(rng, 3))
            x = sphere_point(rng, 3)
            frame = adapted_frame(m, sphere, x)
            basis = np.vstack([frame.w0, frame.w_tangent])
            np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-12)
            tangent_full = np.vstack([frame.normal, frame.tangent])
            np.testing.assert_allclose(tangent_full @ tangent_full.T, np.eye(3), atol=1e-12)
            j = m.jacobian(x)
            assert float(np.dot(j @ frame.normal, frame.w0)) > 0.0


class TestTangentialDilation:
    def test_identity_sqrt_n_minus_one(self):
        sphere = Sphere(center=(0.0, 0.0, 0.0), radius=1.0)
        td = tangential_dilation(identity_map(3), sphere, [0.0, 0.0, 1.0])
        assert td == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_radial_stretch_conformal_on_sphere(self):
        # the restriction to the unit sphere is conformal for every alpha
        rng = np.random.default_rng(409)
        sphere = Sphere(center=(0.0, 0.0, 0.0), radius=1.0)
        for alpha in (0.5, 2.0, 3.0):
            m = radial_stretch(alpha, 3)
            for _ in range(10):
                td = tangential_dilation(m, sphere, sphere_point(rng, 3))
                assert td * td == pytest.approx(2.0, rel=1e-11)

    def test_diagonal_hand_value(self):
        # |B|^2 = 4 and det B = sqrt(3) on the plane orthogonal to e1
        m = affine_map(np.diag([math.sqrt(2.0), 1.0, math.sqrt(3.0)]))
        plane = Hyperplane(normal=(1.0, 0.0, 0.0), offset=0.0)
        td = tangential_dilation(m, plane, [0.0, 0.1, 0.2])
        assert td * td == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-12)
        assert td * td == pytest.approx(2.30940, abs=5e-6)

    def test_rotation_dilation_covariance(self):
        # post-composing with conformal linear maps leaves the value alone
        rng = np.random.default_rng(419)
        sphere = Sphere(center=(0.0, 0.0, 0.0), radius=1.0)
        base = affine_map(random_linear(rng, 3))
        rot = moebius("rotation", {"n": 3, "axis": [0.2, -1.0, 0.5], "angle": 1.1})
        dil = moebius("dilation", {"n": 3, "scale": 2.3})
        x = sphere_point(rng, 3)
        td = tangential_dilation(base, sphere, x)
        assert tangential_dilation(compose(rot, base), sphere, x) == pytest.approx(td, rel=1e-11)
        assert tangential_dilation(compose(dil, base), sphere, x) == pytest.approx(td, rel=1e-11)


class TestTraceInequality:
    def test_identity_block_identities_exact(self):
        sphere = Sphere(center=(0.0, 0.0, 0.0), radius=1.0)
        rec = trace_inequality_check(identity_map(3), sphere, [0.0, 1.0, 0.0])
        assert rec.block_norm_residual <= 1e-14
        assert rec.block_det_residual <= 1e-14
        assert rec.slack >= -1e-14

    def test_500_random_linear_maps(self):
        rng = np.random.default_rng(421)
        sphere = Sphere(center=(0.0, 0.0, 0.0), radius=1.0)
        for _ in range(500):
            m = affine_map(random_linear(rng, 3))
            rec = trace_inequality_check(m, sphere, sphere_point(rng, 3))
            assert rec.slack >= -1e-10
            assert rec.block_norm_residual <= 1e-10
            assert rec.block_det_residual <= 1e-10

    def test_radial_strict_inequality(self):
        sphere = Sphere(center=(0.0, 0.0, 0.0), radius=1.0)
        m = radial_stretch(2.0, 3)
        rec = trace_inequality_check(m, sphere, [0.0, 0.0, 1.0])
        assert rec.slack > 1e-3

    def test_block_identities_definition(self):
        # |du|^2 splits into tangential block plus normal image column,
        # and det du factors through the block determinant
        rng = np.random.default_rng(431)
        sphere = Sphere(center=(0.0, 0.0, 0.0), radius=1.0)
        for _ in range(20):
            j = random_linear(rng, 3)
            m = affine_map(j)
            x = sphere_point(rng, 3)
            frame = adapted_frame(m, sphere, x)
            block = (frame.tangent @ j.T) @ frame.w_tangent.T
            jn = j @ frame.normal
            assert np.sum(j * j) == pytest.approx(
                np.sum(block * block) + np.dot(jn, jn), rel=1e-12
            )
            assert np.linalg.det(j) == pytest.approx(
                float(np.dot(jn, frame.w0)) * np.linalg.det(block), rel=1e-12
            )

    @pytest.mark.parametrize(
        "check", [adapted_frame, tangential_dilation, trace_inequality_check],
        ids=["frame", "dilation", "inequality"],
    )
    def test_one_jet_per_call(self, monkeypatch, check):
        # the frame, the block and the ambient terms share one Jacobian
        calls = []
        jet = SmoothMap.jet

        def counted(self, x):
            calls.append(1)
            return jet(self, x)

        monkeypatch.setattr(SmoothMap, "jet", counted)
        sphere = Sphere(center=(0.0, 0.0, 0.0), radius=1.0)
        check(radial_stretch(2.0, 3), sphere, [0.6, 0.0, 0.8])
        assert len(calls) == 1


class TestCriticalEquality:
    def test_hand_checkable_diagonal(self):
        # |J|^2 = 6, normal eigenvalue 2 = 6/3, both sides 4/sqrt(3)
        j = np.diag([math.sqrt(2.0), 1.0, math.sqrt(3.0)])
        rec = critical_equality_check(j, [1.0, 0.0, 0.0])
        assert rec.lhs == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-12)
        assert rec.rhs == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-12)

    def test_conformal_case(self):
        for n, lam in ((2, 0.7), (3, 1.0), (4, 2.5)):
            rec = critical_equality_check(lam * np.eye(n), [1.0] + [0.0] * (n - 1))
            assert rec.lhs == pytest.approx(n - 1.0, rel=1e-12)
            assert rec.rhs == pytest.approx(n - 1.0, rel=1e-12)

    def test_eigen_constructed_equality(self):
        rng = np.random.default_rng(433)
        for seed in range(100):
            nu = rng.standard_normal(3)
            stretches = rng.uniform(0.5, 2.0, size=2)
            j = eigen_aligned_linear(nu, stretches, seed=seed)
            rec = critical_equality_check(j, nu)
            assert rec.lhs == pytest.approx(rec.rhs, rel=1e-9)

    def test_hypothesis_checked(self):
        # generic J does not carry the normal as a balanced eigenvector
        with pytest.raises(HypothesisViolated):
            critical_equality_check(np.diag([2.0, 1.0, 1.0]), [1.0, 0.0, 0.0])

    def test_rejects_non_finite(self):
        # used to warn and then fail inside affine_map with a ConfigError
        with pytest.raises(NonFiniteValue, match="matrix entries must be finite"):
            critical_equality_check(np.diag([1.0, math.nan, 1.0]), [1.0, 0.0, 0.0])

    def test_rejects_folded(self):
        # J^T J = I satisfies the hypothesis, so the sign check must refuse the fold
        with pytest.raises(NonPositiveDeterminant, match="determinant must be positive"):
            critical_equality_check(np.diag([1.0, 1.0, -1.0]), [1.0, 0.0, 0.0])

    def test_eigen_constructor_validates(self):
        with pytest.raises(ValueError):
            eigen_aligned_linear([1.0, 0.0, 0.0], [1.0], seed=0)
        with pytest.raises(ValueError):
            eigen_aligned_linear([1.0, 0.0, 0.0], [1.0, -1.0], seed=0)

    def test_eigen_constructor_satisfies_hypothesis(self):
        j = eigen_aligned_linear([0.3, -0.5, 0.8], [1.2, 0.7], seed=5)
        assert np.linalg.det(j) > 0.0
        nu = np.array([0.3, -0.5, 0.8])
        nu /= np.linalg.norm(nu)
        lam = np.sum(j * j) / 3.0
        assert np.linalg.norm(j.T @ (j @ nu) - lam * nu) <= 1e-10 * lam

    def test_ambient_dilation_consistency(self):
        # lhs is a function of the ambient dilation alone
        j = eigen_aligned_linear([0.0, 0.0, 1.0], [1.5, 0.9], seed=2)
        rec = critical_equality_check(j, [0.0, 0.0, 1.0])
        k_sq = trace_dilation(j) ** 2
        assert rec.lhs == pytest.approx(2.0 * 3.0 ** (-1.5) * k_sq ** 1.5, rel=1e-12)

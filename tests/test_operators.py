"""Flux, linearization, ellipticity sandwich, and the two L-infinity forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_jet, random_posdet
from qcflow import (
    ASYMPTOTIC_SIGN,
    Jet2Sample,
    NonPositiveDeterminant,
    UnsupportedRegime,
    b_tensor,
    dilation_gradient,
    flux,
    flux_linearization,
    lh_witness,
    linfty_factored,
    linfty_flowform,
    lp_asymptotic_ratio,
    lp_divergence,
    lp_nondiv,
    trace_dilation,
)
from qcflow.flowlines import trace_flowline
from qcflow.gradientflow import _det_field, dtmax, make_grid
from qcflow.maps import (
    affine_map,
    identity_map,
    make_map,
    moebius,
    polynomial_map,
    radial_lp,
    radial_stretch,
    wedge_map,
)
from qcflow.operators import _contracted_operator, _operator_coefficients
from qcflow.tensor import _adjugate


def fd_linearization(q, p, h):
    """Central difference of flux in each matrix entry.

    Perturbing q[k, l] probes the derivative slots (k, l) of the
    four-index array, so the difference quotient lands in [:, k, :, l].
    """
    n = q.shape[0]
    out = np.zeros((n, n, n, n))
    for k in range(n):
        for l in range(n):
            e = np.zeros((n, n))
            e[k, l] = h
            out[:, k, :, l] = (flux(q + e, p) - flux(q - e, p)) / (2.0 * h)
    return out


class TestJet2Sample:
    def test_rejects_nonpositive_det(self):
        with pytest.raises(NonPositiveDeterminant):
            Jet2Sample(
                x=np.zeros(2), u=np.zeros(2), J=np.diag([1.0, -1.0]), H=np.zeros((2, 2, 2))
            )

    def test_nonpositive_det_message(self):
        with pytest.raises(NonPositiveDeterminant, match="determinant must be positive"):
            Jet2Sample(
                x=np.zeros(3), u=np.zeros(3), J=np.diag([1.0, 1.0, -2.0]),
                H=np.zeros((3, 3, 3)),
            )

    def test_rejects_asymmetric_hessian(self):
        h = np.zeros((2, 2, 2))
        h[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            Jet2Sample(x=np.zeros(2), u=np.zeros(2), J=np.eye(2), H=h)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Jet2Sample(x=np.zeros(2), u=np.zeros(2), J=np.eye(2), H=np.zeros((3, 3, 3)))


class TestFlux:
    def test_identity_vanishes(self):
        for n in (2, 3, 4):
            np.testing.assert_allclose(flux(np.eye(n), 2.0), np.zeros((n, n)), atol=1e-14)

    def test_conformal_vanishes(self):
        # rotation times positive scale keeps the bracket identically zero
        c, s = math.cos(1.1), math.sin(1.1)
        q = 1.7 * np.array([[c, -s], [s, c]])
        np.testing.assert_allclose(flux(q, 3.0), np.zeros((2, 2)), atol=1e-12)

    def test_contraction_vanishes(self):
        rng = np.random.default_rng(101)
        for n in (2, 3):
            for p in (1.0, 2.0, 5.0):
                for _ in range(40):
                    q = random_posdet(rng, n)
                    a = flux(q, p)
                    scale = np.max(np.abs(a)) * np.max(np.abs(q)) + 1e-300
                    assert abs(np.sum(a * q)) / scale <= 1e-9

    def test_rejects_nonpositive_det(self):
        with pytest.raises(NonPositiveDeterminant):
            flux(np.diag([1.0, -2.0]), 2.0)

    def test_large_p_stays_finite(self):
        # p=100 weight ~1e62 is representable; log-domain evaluation must
        # reach it without intermediate overflow. Only the normalized
        # asymptotic ratio is guaranteed finite all the way to p=1000.
        q = np.diag([2.0, 0.5])
        a = flux(q, 100.0)
        assert np.all(np.isfinite(a))
        assert np.max(np.abs(a)) > 1e60


class TestFluxLinearization:
    def test_identity_2d_matches_fd(self):
        a4 = flux_linearization(np.eye(2), 2.0)
        fd = fd_linearization(np.eye(2), 2.0, 1e-5)
        assert np.max(np.abs(a4 - fd)) <= 1e-6

    def test_diag_case_matches_fd(self):
        q = np.diag([2.0, 1.0])
        a4 = flux_linearization(q, 2.0)
        fd = fd_linearization(q, 2.0, 1e-5 * (1.0 + np.linalg.norm(q)))
        assert np.max(np.abs(a4 - fd)) <= 1e-6 * max(1.0, np.max(np.abs(a4)))

    def test_random_matches_fd(self):
        rng = np.random.default_rng(103)
        for n, p in ((2, 2.0), (3, 1.0), (3, 5.0)):
            for _ in range(10):
                q = random_posdet(rng, n, scale=0.25, min_det=0.5)
                a4 = flux_linearization(q, p)
                fd = fd_linearization(q, p, 1e-5 * (1.0 + np.linalg.norm(q)))
                rel = np.max(np.abs(a4 - fd)) / max(1.0, np.max(np.abs(a4)))
                assert rel <= 1e-6

    def test_fd_convergence_order(self):
        # halving h divides the FD error by about four
        q = np.array([[1.3, 0.2], [-0.1, 0.9]])
        a4 = flux_linearization(q, 2.0)
        errs = []
        for h in (2e-3, 1e-3):
            errs.append(np.max(np.abs(fd_linearization(q, 2.0, h) - a4)))
        ratio = errs[0] / errs[1]
        assert 3.2 <= ratio <= 4.8

    def test_pair_symmetry_exact(self):
        # swapping the (component, derivative) pairs leaves the array fixed
        rng = np.random.default_rng(107)
        for n in (2, 3):
            q = random_posdet(rng, n)
            a4 = flux_linearization(q, 3.0)
            assert np.array_equal(a4, np.transpose(a4, (1, 0, 3, 2)))


class TestLhWitness:
    def test_identity_3d_p1(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            xi = rng.standard_normal(3)
            eta = rng.standard_normal(3)
            w = lh_witness(np.eye(3), xi, eta, 1.0)
            assert w.lower <= w.quadForm <= w.upper

    def test_identity_2d_p2_aligned(self):
        w = lh_witness(np.eye(2), [1.0, 0.0], [1.0, 0.0], 2.0)
        # flat lower constant is 2(p-1)/(p+1) = 2/3 here; |I|^2 = 2
        m1 = 2.0 ** ((2 * 2 - 2) / 2)
        assert w.lower == pytest.approx((2.0 / 3.0) * 2.0 * m1, rel=1e-12)
        assert w.lower <= w.quadForm <= w.upper

    def test_quadform_at_identity_closed_form(self):
        # at conformal arguments the form is p·|q|^{np-2}(n + (n-2)<eta,xi>^2)
        rng = np.random.default_rng(113)
        for n in (2, 3, 4):
            for p in (1.0, 2.0, 5.0):
                if n == 2 and p == 1.0:
                    continue
                xi = rng.standard_normal(n)
                eta = rng.standard_normal(n)
                xi /= np.linalg.norm(xi)
                eta /= np.linalg.norm(eta)
                w = lh_witness(np.eye(n), xi, eta, p)
                pred = p * n ** ((n * p - 2) / 2.0) * (n + (n - 2) * np.dot(eta, xi) ** 2)
                assert w.quadForm == pytest.approx(pred, rel=1e-10)

    def test_thousand_random_n3(self):
        rng = np.random.default_rng(127)
        for p in (1.0, 2.0, 5.0):
            for _ in range(1000):
                q = random_posdet(rng, 3)
                w = lh_witness(q, rng.standard_normal(3), rng.standard_normal(3), p)
                assert w.lower <= w.quadForm <= w.upper

    def test_random_n2(self):
        rng = np.random.default_rng(131)
        for p in (2.0, 5.0):
            for _ in range(500):
                q = random_posdet(rng, 2)
                w = lh_witness(q, rng.standard_normal(2), rng.standard_normal(2), p)
                assert w.lower <= w.quadForm <= w.upper

    def test_capped_constant_needed_past_p2(self):
        """Pinned witness showing the p-growing 3d constant overshoots.

        At p=5 the form (6p-3)/(p+1) evaluates to 4.5, but the quadratic
        form dips to about 4.483 times p·|q|^{np-2}/(det q)^p at this
        argument. Conformal arguments with orthogonal directions pin the
        best flat constant at n, so the implementation caps the 3d
        constant at min(n, (6p-3)/(p+1)).
        """
        q = np.array(
            [[0.83, -0.176, 0.176], [-0.005, 0.923, -0.229], [-0.312, 0.216, 0.63]]
        )
        xi = np.array([-0.498, 0.704, 0.507])
        eta = np.array([0.027, 0.569, -0.822])
        p = 5.0
        w = lh_witness(q, xi, eta, p)
        nsq = np.sum(q * q)
        m1 = nsq ** ((3 * p - 2) / 2.0) / np.linalg.det(q) ** p
        normalized = w.quadForm / (p * m1)
        assert normalized < 4.5  # the uncapped form would fail here
        assert normalized >= 3.0
        assert w.lower <= w.quadForm <= w.upper

    def test_small_p_uses_growing_constant_3d(self):
        # below the crossing the 3d constant is (6p-3)/(p+1), sharper than n
        w = lh_witness(np.eye(3), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1.0)
        m1 = 3.0 ** ((3 * 1 - 2) / 2.0)
        assert w.lower == pytest.approx(1.5 * 1.0 * m1, rel=1e-12)

    def test_rejects_plane_p1(self):
        with pytest.raises(UnsupportedRegime):
            lh_witness(np.eye(2), [1.0, 0.0], [0.0, 1.0], 1.0)
        with pytest.raises(UnsupportedRegime):
            lh_witness(np.eye(3), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.5)

    def test_normalizes_directions(self):
        w1 = lh_witness(np.eye(3), [2.0, 0.0, 0.0], [0.0, 3.0, 0.0], 2.0)
        w2 = lh_witness(np.eye(3), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 2.0)
        assert w1.quadForm == pytest.approx(w2.quadForm, rel=1e-12)


class TestLpNondiv:
    def test_affine_is_zero(self):
        jet = affine_map([[1.5, 0.3], [0.0, 0.8]]).jet([0.4, -0.2])
        np.testing.assert_allclose(lp_nondiv(jet, 2.0), np.zeros(2), atol=1e-14)

    def test_radial_alpha1_is_zero(self):
        jet = radial_stretch(1.0, 3).jet([0.3, -0.5, 0.7])
        np.testing.assert_allclose(lp_nondiv(jet, 2.0), np.zeros(3), atol=1e-12)

    def test_radial_closed_form_hand_value(self):
        # alpha=2, n=3, p=2 at the first basis vector: 162 along x
        jet = radial_stretch(2.0, 3).jet([1.0, 0.0, 0.0])
        out = lp_nondiv(jet, 2.0)
        np.testing.assert_allclose(out, [162.0, 0.0, 0.0], rtol=1e-12, atol=1e-10)

    def test_radial_closed_form_generic_points(self):
        rng = np.random.default_rng(137)
        m = radial_stretch(2.0, 3)
        for _ in range(25):
            x = rng.standard_normal(3)
            x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
            out = lp_nondiv(m.jet(x), 2.0)
            np.testing.assert_allclose(out, radial_lp(2.0, 3, 2.0, x), rtol=1e-10)


def _oracle_and_contracted(q, hess, p):
    """n^4 contraction of flux_linearization and the contracted kernel, node-major."""
    oracle = np.einsum("...ikjl,...kjl->...i", flux_linearization(q, p), hess)
    q = np.moveaxis(q, (-2, -1), (0, 1))
    coeff = _operator_coefficients(q, _det_field(q), _adjugate(q), np.sum(q * q, axis=(0, 1)), p)
    fast = _contracted_operator(coeff, np.moveaxis(hess, (-3, -2, -1), (0, 1, 2)))
    return oracle, np.moveaxis(fast, 0, -1)


# a float64 reordering of O(n^3) terms: agreement is fixed at 1e-11 of the
# per-node result's magnitude, well above the observed ~1e-13
CONTRACTION_RTOL = 1e-11


class TestContractedOperator:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [1.5, 2.0, 7.0, 50.0])
    def test_matches_full_contraction(self, n, p):
        rng = np.random.default_rng((n, int(10 * p)))
        q = np.stack([random_posdet(rng, n) for _ in range(40)])
        hess = rng.standard_normal((40, n, n, n))
        sym = 0.5 * (hess + np.swapaxes(hess, -1, -2))
        # within the 1e-6 symmetry slack Jet2Sample allows
        asym = sym + 1e-7 * rng.standard_normal(sym.shape)
        for h in (sym, asym):
            oracle, fast = _oracle_and_contracted(q, h, p)
            scale = np.max(np.abs(oracle), axis=-1, keepdims=True)
            assert np.all(np.abs(fast - oracle) <= CONTRACTION_RTOL * scale)

    def test_large_power_stays_finite(self):
        # at p=1000 the weight |q|^{np-2}/det^p fits in float64 only for
        # n=2 near-conformal q (for n=3 it exceeds 3^1499 at q=I), so the
        # oracle is finite there alone
        rng = np.random.default_rng(1000)
        theta = rng.uniform(0.0, 2.0 * np.pi, 30)
        rot = np.stack([np.stack([np.cos(theta), -np.sin(theta)], -1),
                        np.stack([np.sin(theta), np.cos(theta)], -1)], -2)
        q = rng.uniform(4.0, 16.0, 30)[:, None, None] * rot @ (
            np.eye(2) + 1e-3 * rng.standard_normal((30, 2, 2)))
        hess = rng.standard_normal((30, 2, 2, 2))
        oracle, fast = _oracle_and_contracted(q, hess, 1000.0)
        assert np.all(np.isfinite(oracle)) and np.all(np.isfinite(fast))
        scale = np.max(np.abs(oracle), axis=-1, keepdims=True)
        assert np.all(np.abs(fast - oracle) <= CONTRACTION_RTOL * scale)


class TestDilationGradient:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_central_difference(self, n):
        # (F / K) . H against a central difference of K; h = 1e-5
        h = 1e-5
        mapping = polynomial_map(n, seed=17 + n, amplitude=0.1)
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = 0.4 * rng.uniform(-1.0, 1.0, n)
            fd = np.array([
                (trace_dilation(mapping.jacobian(x + h * e))
                 - trace_dilation(mapping.jacobian(x - h * e))) / (2.0 * h)
                for e in np.eye(n)
            ])
            np.testing.assert_allclose(dilation_gradient(mapping.jet(x)), fd,
                                       rtol=0, atol=1e-7)

    def test_zero_on_affine(self):
        jet = affine_map([[1.4, 0.3], [-0.2, 0.8]]).jet(np.array([0.1, 0.2]))
        np.testing.assert_array_equal(dilation_gradient(jet), np.zeros(2))


class TestLpDivergence:
    def test_affine_is_zero(self):
        m = affine_map([[1.5, 0.3], [0.0, 0.8]])
        out = lp_divergence(m, [0.3, 0.1], 2.0, 1e-3)
        np.testing.assert_allclose(out, np.zeros(2), atol=1e-10)

    def test_radial_matches_closed_form(self):
        m = radial_stretch(2.0, 3)
        x = np.array([0.8, -0.4, 0.6])
        out = lp_divergence(m, x, 2.0, 1e-3)
        ref = radial_lp(2.0, 3, 2.0, x)
        assert np.max(np.abs(out - ref)) / np.max(np.abs(ref)) <= 1e-4

    def test_halving_h_quarters_error(self):
        m = radial_stretch(2.0, 3)
        x = np.array([0.7, 0.2, -0.5])
        ref = lp_nondiv(m.jet(x), 2.0)
        e1 = np.max(np.abs(lp_divergence(m, x, 2.0, 2e-3) - ref))
        e2 = np.max(np.abs(lp_divergence(m, x, 2.0, 1e-3) - ref))
        assert 3.2 <= e1 / e2 <= 4.8


class TestLinftyFactored:
    def test_radial_vanishes_all_alpha(self):
        rng = np.random.default_rng(139)
        for alpha in (0.5, 2.0, 3.0):
            m = radial_stretch(alpha, 3)
            for _ in range(20):
                x = rng.standard_normal(3)
                x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
                out = linfty_factored(m.jet(x))
                assert np.max(np.abs(out)) <= 1e-8

    def test_wedge_vanishes_off_seam(self):
        m = wedge_map(math.pi / 2.0, 3)
        rng = np.random.default_rng(149)
        for _ in range(20):
            theta = rng.uniform(0.1, math.pi / 2.0 - 0.1)
            r = rng.uniform(0.5, 1.5)
            x = [r * math.cos(theta), r * math.sin(theta), rng.uniform(-1.0, 1.0)]
            out = linfty_factored(m.jet(x))
            assert np.max(np.abs(out)) <= 1e-8 * max(1.0, np.max(np.abs(m.jet(x).J)) ** 6)

    def test_affine_is_zero(self):
        jet = affine_map([[2.0, 0.0], [0.4, 0.5]]).jet([0.1, 0.2])
        np.testing.assert_allclose(linfty_factored(jet), np.zeros(2), atol=1e-14)

    def test_conformal_is_zero(self):
        inv = moebius("inversion", {"n": 3})
        jet = inv.jet([0.5, 0.4, -0.3])
        assert np.max(np.abs(linfty_factored(jet))) <= 1e-8


class TestLinftyFlowform:
    def test_radial_vanishes(self):
        jet = radial_stretch(2.0, 3).jet([0.6, -0.2, 0.9])
        assert np.max(np.abs(linfty_flowform(jet))) <= 1e-8

    def test_conformal_vanishes(self):
        rot = moebius("rotation", {"n": 2, "angle": 0.8})
        assert np.max(np.abs(linfty_flowform(rot.jet([0.3, 0.4])))) <= 1e-12

    def test_matches_factored_on_polynomial_maps(self):
        rng = np.random.default_rng(151)
        for seed in range(10):
            n = 2 + seed % 2
            m = polynomial_map(n, seed=seed, amplitude=0.05)
            x = rng.uniform(-0.5, 0.5, size=n)
            jet = m.jet(x)
            a = linfty_factored(jet)
            b = linfty_flowform(jet)
            scale = max(np.max(np.abs(a)), 1e-12)
            assert np.max(np.abs(a - b)) / scale <= 1e-8

    def test_matches_factored_on_random_jets(self):
        rng = np.random.default_rng(157)
        for n in (2, 3, 4):
            for _ in range(50):
                jet = random_jet(rng, n)
                a = linfty_factored(jet)
                b = linfty_flowform(jet)
                scale = max(np.max(np.abs(a)), 1e-12)
                assert np.max(np.abs(a - b)) / scale <= 1e-8


class TestAsymptoticRatio:
    def test_affine_zero(self):
        jet = affine_map([[1.5, 0.0], [0.2, 0.7]]).jet([0.0, 0.0])
        for p in (10.0, 1000.0):
            np.testing.assert_allclose(lp_asymptotic_ratio(jet, p), np.zeros(2), atol=1e-12)

    def test_conformal_zero(self):
        jet = moebius("inversion", {"n": 2}).jet([0.6, 0.1])
        assert np.max(np.abs(lp_asymptotic_ratio(jet, 100.0))) <= 1e-10

    def test_one_over_p_convergence(self):
        rng = np.random.default_rng(163)
        for _ in range(10):
            jet = random_jet(rng, 3, scale=0.2, min_det=0.5)
            limit = ASYMPTOTIC_SIGN * linfty_factored(jet)
            errs = [
                np.max(np.abs(lp_asymptotic_ratio(jet, p) - limit))
                for p in (10.0, 100.0, 1000.0)
            ]
            assert 7.0 <= errs[0] / errs[1] <= 13.0
            assert 7.0 <= errs[1] / errs[2] <= 13.0

    def test_no_overflow_at_p_1000(self):
        jet = radial_stretch(3.0, 3).jet([1.2, 0.1, -0.4])
        out = lp_asymptotic_ratio(jet, 1000.0)
        assert np.all(np.isfinite(out))


class TestBTensor:
    def test_conformal_vanishes(self):
        rng = np.random.default_rng(167)
        for lam in (0.5, 1.0, 3.0):
            b = b_tensor(lam * np.eye(2), 2.0)
            for _ in range(5):
                eta = rng.standard_normal(2)
                assert abs(eta @ b @ eta) <= 1e-10 * (1.0 + np.dot(eta, eta))

    def test_model_case_formula(self):
        rng = np.random.default_rng(173)
        for _ in range(30):
            l1, l2 = rng.uniform(0.3, 2.5, size=2)
            p = float(rng.integers(1, 6))
            b = b_tensor(np.diag([l1, l2]), p)
            mean_sq = (l1 * l1 + l2 * l2) / 2.0
            expected = p * (1.0 - l1 * l1 / mean_sq) * ((l1 * l1 + l2 * l2) / (l1 * l2)) ** p
            assert b[0, 0] == pytest.approx(expected, rel=1e-11)

    def test_hand_value(self):
        b = b_tensor(np.diag([2.0, 0.5]), 1.0)
        assert b[0, 0] == pytest.approx(-15.0 / 4.0, rel=1e-13)

    def test_sign_indefinite(self):
        # one positive and one negative value of the quadratic form
        b = b_tensor(np.diag([2.0, 0.5]), 1.0)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert e1 @ b @ e1 < 0.0
        assert e2 @ b @ e2 > 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(179)
        for _ in range(20):
            q = random_posdet(rng, 3)
            b = b_tensor(q, 2.0)
            np.testing.assert_allclose(b, b.T, atol=1e-10 * (1.0 + np.max(np.abs(b))))

    def test_rejects_nonpositive_det(self):
        with pytest.raises(NonPositiveDeterminant):
            b_tensor(np.diag([1.0, 0.0]), 2.0)


def _jet_stack(seed, n, shape):
    """A stacked Jet2Sample of well-conditioned jets, and two direction stacks."""
    rng = np.random.default_rng(seed)
    count = int(np.prod(shape))
    j = np.array([random_posdet(rng, n, scale=0.4) for _ in range(count)]).reshape(shape + (n, n))
    h = rng.standard_normal(shape + (n, n, n))
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    xi, eta = rng.standard_normal(shape + (n,)), rng.standard_normal(shape + (n,))
    return Jet2Sample(x=np.zeros(shape + (n,)), u=np.zeros(shape + (n,)), J=j, H=h), xi, eta


def _row(jets, idx):
    return Jet2Sample(x=jets.x[idx], u=jets.u[idx], J=jets.J[idx], H=jets.H[idx])


STACK_SHAPES = st.sampled_from([(1,), (4,), (9,), (2, 3)])
JET_OPERATORS = {
    "linfty_factored": lambda jets, p: linfty_factored(jets),
    "linfty_flowform": lambda jets, p: linfty_flowform(jets),
    "dilation_gradient": lambda jets, p: dilation_gradient(jets),
    "lp_nondiv": lp_nondiv,
    "lp_asymptotic_ratio": lp_asymptotic_ratio,
    "lp_asymptotic_ratio_1000": lambda jets, p: lp_asymptotic_ratio(jets, 1000.0),
}
# name: (operator of the Jacobians, the trailing axes of its output at dimension n)
MATRIX_OPERATORS = {
    "flux": (flux, lambda n: (n, n)),
    "flux_linearization": (flux_linearization, lambda n: (n, n, n, n)),
}


class TestStacks:
    """Every pointwise operator takes leading stack axes, each row bit-equal to its single call."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]), shape=STACK_SHAPES,
           p=st.sampled_from([1.0, 1.5, 2.0, 5.0, 30.0]))
    def test_rows_bit_equal_single_calls(self, seed, n, shape, p):
        jets, xi, eta = _jet_stack(seed, n, shape)
        stacked = {name: op(jets, p) for name, op in JET_OPERATORS.items()}
        for out in stacked.values():
            assert out.shape == shape + (n,)
        matrix = {name: op(jets.J, p) for name, (op, _) in MATRIX_OPERATORS.items()}
        for name, (_, trailing) in MATRIX_OPERATORS.items():
            assert matrix[name].shape == shape + trailing(n), name
        lh_ok = not (n == 2 and p == 1.0)
        if lh_ok:
            w = lh_witness(jets.J, xi, eta, p)
            assert w.quadForm.shape == w.lower.shape == w.upper.shape == shape
        for idx in np.ndindex(*shape):
            jet = _row(jets, idx)
            for name, op in JET_OPERATORS.items():
                assert op(jet, p).tobytes() == stacked[name][idx].tobytes(), name
            for name, (op, _) in MATRIX_OPERATORS.items():
                assert op(jets.J[idx], p).tobytes() == matrix[name][idx].tobytes(), name
            if lh_ok:
                w1 = lh_witness(jets.J[idx], xi[idx], eta[idx], p)
                for name in ("quadForm", "lower", "upper"):
                    assert isinstance(getattr(w1, name), float)
                    assert getattr(w1, name) == getattr(w, name)[idx], name
                assert w1.xi.tobytes() == w.xi[idx].tobytes()
                assert w1.eta.tobytes() == w.eta[idx].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_asymmetric_row_rejected_like_its_single_call(self, n):
        jets, _, _ = _jet_stack(5, n, (6,))
        h = jets.H.copy()
        h[3, 0, 0, 1] += 1e-3 * np.max(np.abs(h[3]))
        with pytest.raises(ValueError) as single:
            Jet2Sample(x=jets.x[3], u=jets.u[3], J=jets.J[3], H=h[3])
        with pytest.raises(ValueError) as stacked:
            Jet2Sample(x=jets.x, u=jets.u, J=jets.J, H=h)
        assert str(stacked.value) == str(single.value) == "Hessian not symmetric in its derivative indices"

    def test_symmetry_tolerance_is_each_rows_own(self):
        # a row with a small Hessian is not excused by a large one elsewhere in the stack
        h = np.zeros((2, 2, 2, 2))
        h[0, 0, 0, 0] = 1e6
        h[1, 0, 0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hessian not symmetric"):
            Jet2Sample(x=np.zeros((2, 2)), u=np.zeros((2, 2)), J=np.stack([np.eye(2)] * 2), H=h)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_folded_row_rejected_like_its_single_call(self, n):
        jets, xi, eta = _jet_stack(7, n, (5,))
        j = jets.J.copy()
        j[2, 0] = -j[2, 0]
        with pytest.raises(NonPositiveDeterminant) as single:
            Jet2Sample(x=jets.x[2], u=jets.u[2], J=j[2], H=jets.H[2])
        with pytest.raises(NonPositiveDeterminant) as stacked:
            Jet2Sample(x=jets.x, u=jets.u, J=j, H=jets.H)
        assert str(stacked.value) == str(single.value)
        with pytest.raises(NonPositiveDeterminant) as witness:
            lh_witness(j, xi, eta, 2.0)
        assert str(witness.value) == str(single.value)

    @pytest.mark.parametrize("slot", ["xi", "eta"])
    def test_zero_direction_row_rejected_like_its_single_call(self, slot):
        jets, xi, eta = _jet_stack(11, 3, (4,))
        dirs = {"xi": xi.copy(), "eta": eta.copy()}
        dirs[slot][1] = 0.0
        with pytest.raises(ValueError) as single:
            lh_witness(jets.J[1], dirs["xi"][1], dirs["eta"][1], 2.0)
        with pytest.raises(ValueError) as stacked:
            lh_witness(jets.J, dirs["xi"], dirs["eta"], 2.0)
        assert str(stacked.value) == str(single.value) == "ellipticity directions must be nonzero"

    def test_hessian_stack_shape_checked(self):
        with pytest.raises(ValueError, match="does not match Jacobian shape"):
            Jet2Sample(x=np.zeros((3, 2)), u=np.zeros((3, 2)), J=np.stack([np.eye(2)] * 3),
                       H=np.zeros((2, 2, 2, 2)))


def _refuse_lapack(monkeypatch) -> None:
    """Make every later call to LAPACK's inverse or det fail the test."""
    for name in ("inv", "det"):
        def refused(a, name=name):
            raise AssertionError(f"np.linalg.{name} called")

        monkeypatch.setattr(np.linalg, name, refused)


class TestOneInverse:
    """At n = 2..4 every J^{-T} and det is tensor's kernel, never LAPACK's inverse or det."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_no_lapack_inverse_or_det(self, monkeypatch, n):
        jets, xi, eta = _jet_stack(13, n, (4,))
        _refuse_lapack(monkeypatch)
        grid = make_grid(make_map("affine_bump", n=n, amplitude=0.05), (9 if n < 4 else 6,) * n,
                         1.0 / 8.0)
        for idx in (Ellipsis, 0):  # the stack and its first row alone
            jet, q = _row(jets, idx), jets.J[idx]
            flux(q, 2.0)
            flux_linearization(q, 2.0)
            lh_witness(q, xi[idx], eta[idx], 2.0)
            lp_nondiv(jet, 2.0)
            linfty_factored(jet)
            lp_asymptotic_ratio(jet, 2.0)
            dilation_gradient(jet)
        dtmax(grid, 2.0)

    @pytest.mark.parametrize("name, params", [("polynomial", {"seed": 1}), ("inversion", {})],
                             ids=["polynomial", "inversion"])
    def test_four_dimensional_walk_takes_no_lapack(self, monkeypatch, name, params):
        m = make_map(name, n=4, **params)
        _refuse_lapack(monkeypatch)
        traj = trace_flowline(m, [0.1, 0.2, 0.1, -0.1], ds=1e-3, max_len=0.05)
        assert traj.terminated in ("maxLength", "degenerate") and len(traj) >= 1

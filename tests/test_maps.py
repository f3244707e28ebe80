"""Analytic test maps, conformal words, composition, and jet plumbing."""

import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import random_posdet
from hypothesis import given, settings
from hypothesis import strategies as st

from qcflow import (
    AxisExcluded,
    ConfigError,
    GuardViolation,
    NonPositiveDeterminant,
    OriginExcluded,
    SeamExcluded,
    UnknownMap,
    ahlfors,
    analyze,
    distortion_tensor,
    linfty_factored,
    trace_dilation,
)
from qcflow.maps import (
    ConformalMap,
    SmoothMap,
    SphereBump,
    _chain,
    affine_map,
    bump_map,
    competitor_perturbation,
    compose,
    fd_map,
    identity_map,
    make_map,
    map_ids,
    moebius,
    polynomial_map,
    radial_ksq,
    radial_lp,
    radial_sg,
    radial_stretch,
    teichmuller_example,
    teichmuller_map,
    wedge_map,
    wedge_sector_constants,
)
from qcflow.verify import invariance_sample, random_moebius


class TestRadialStretch:
    @pytest.mark.parametrize("alpha", [0.0, -2.0, math.nan, math.inf])
    def test_alpha_must_be_positive_finite(self, alpha):
        with pytest.raises(ConfigError, match="alpha must be a positive finite number"):
            radial_stretch(alpha, 2)

    def test_alpha_one_is_identity(self):
        m = radial_stretch(1.0, 3)
        x = np.array([0.3, -0.8, 0.5])
        np.testing.assert_allclose(m.value(x), x, atol=1e-14)
        np.testing.assert_allclose(m.jacobian(x), np.eye(3), atol=1e-14)

    def test_dilation_constant_everywhere(self):
        # K^2 = (n + alpha^2 - 1)/alpha^(2/n) independent of the point
        rng = np.random.default_rng(211)
        for alpha, n in ((0.5, 2), (2.0, 3), (3.0, 3)):
            m = radial_stretch(alpha, n)
            expected = radial_ksq(alpha, n)
            for _ in range(20):
                x = rng.standard_normal(n)
                x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
                k = trace_dilation(m.jacobian(x))
                assert k * k == pytest.approx(expected, rel=1e-12)

    def test_ksq_hand_value(self):
        # alpha=2, n=3: (3 + 4 - 1)/2^(2/3) = 6/2^(2/3)
        assert radial_ksq(2.0, 3) == pytest.approx(6.0 / 2.0 ** (2.0 / 3.0), rel=1e-15)

    def test_trace_free_part_closed_form(self):
        rng = np.random.default_rng(223)
        m = radial_stretch(2.0, 3)
        for _ in range(20):
            x = rng.standard_normal(3)
            x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
            sg = ahlfors(distortion_tensor(m.jacobian(x)))
            np.testing.assert_allclose(sg, radial_sg(2.0, 3, x), atol=1e-12)

    def test_trace_free_coefficient_value(self):
        # coefficient (alpha^2-1)/alpha^(2/n) = 3/4^(1/3) at alpha=2, n=3
        x = np.array([1.0, 0.0, 0.0])
        sg = radial_sg(2.0, 3, x)
        coef = 3.0 / 4.0 ** (1.0 / 3.0)
        expected = coef * (np.outer(x, x) - np.eye(3) / 3.0)
        np.testing.assert_allclose(sg, expected, atol=1e-14)

    def test_origin_guarded(self):
        m = radial_stretch(2.0, 3)
        with pytest.raises(OriginExcluded):
            m.jet([0.0, 0.0, 0.0])
        with pytest.raises(OriginExcluded):
            m.jet([1e-12, 0.0, 0.0])

    def test_jets_match_finite_differences(self):
        m = radial_stretch(2.0, 3)
        fd = fd_map(m.value, 3, h=1e-3)
        x = np.array([0.8, 0.3, -0.5])
        assert np.max(np.abs(m.jacobian(x) - fd.jacobian(x))) <= 1e-5
        assert np.max(np.abs(m.hessian(x) - fd.hessian(x))) <= 1e-5

    def test_lp_formula_scales_with_radius(self):
        # closed form decays like |x|^-(alpha+1) along x
        x1 = np.array([1.0, 0.0, 0.0])
        x2 = np.array([2.0, 0.0, 0.0])
        v1 = radial_lp(2.0, 3, 2.0, x1)
        v2 = radial_lp(2.0, 3, 2.0, x2)
        assert v2[0] * 2.0**3 == pytest.approx(v1[0] * 2.0, rel=1e-12)


class TestWedge:
    def test_sector_constants(self):
        det1, nsq1 = wedge_sector_constants(math.pi / 2.0, 3, 1)
        assert det1 == pytest.approx(2.0, rel=1e-15)
        assert nsq1 == pytest.approx(6.0, rel=1e-15)
        det2, nsq2 = wedge_sector_constants(math.pi / 2.0, 3, 2)
        assert det2 == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert nsq2 == pytest.approx(22.0 / 9.0, rel=1e-14)

    def test_jets_reproduce_sector_constants(self):
        m = wedge_map(math.pi / 2.0, 3)
        rng = np.random.default_rng(227)
        for _ in range(10):
            theta = rng.uniform(0.05, math.pi / 2.0 - 0.05)
            r = rng.uniform(0.4, 1.6)
            x = [r * math.cos(theta), r * math.sin(theta), rng.uniform(-1.0, 1.0)]
            j = m.jacobian(x)
            assert np.linalg.det(j) == pytest.approx(2.0, rel=1e-12)
            assert np.sum(j * j) == pytest.approx(6.0, rel=1e-12)
        for _ in range(10):
            theta = rng.uniform(math.pi / 2.0 + 0.05, 2.0 * math.pi - 0.05)
            r = rng.uniform(0.4, 1.6)
            x = [r * math.cos(theta), r * math.sin(theta), 0.1]
            j = m.jacobian(x)
            assert np.linalg.det(j) == pytest.approx(2.0 / 3.0, rel=1e-12)
            assert np.sum(j * j) == pytest.approx(22.0 / 9.0, rel=1e-12)

    def test_alpha_pi_fixes_angles(self):
        m = wedge_map(math.pi, 3)
        x = np.array([0.7, 0.3, -0.2])
        np.testing.assert_allclose(m.value(x), x, atol=1e-13)

    def test_axis_guard(self):
        m = wedge_map(math.pi / 2.0, 3)
        with pytest.raises(AxisExcluded):
            m.jet([0.0, 0.0, 0.5])

    def test_seam_guard(self):
        m = wedge_map(math.pi / 2.0, 3)
        with pytest.raises(SeamExcluded):
            m.jet([1.0, 1e-9, 0.0])  # hugging theta = 0
        c, s = math.cos(math.pi / 2.0), math.sin(math.pi / 2.0)
        with pytest.raises(SeamExcluded):
            m.jet([c * 1.0 + 1e-9 * s, s * 1.0, 0.0])  # hugging theta = alpha


class TestMoebius:
    def test_dilation_factor(self):
        f = moebius("dilation", {"n": 2, "scale": 1.7})
        assert f.conformal_factor([0.3, 0.4]) == pytest.approx(1.7**2, rel=1e-14)

    def test_rotation_factor_one(self):
        f = moebius("rotation", {"n": 2, "angle": 0.5})
        assert f.conformal_factor([0.3, 0.4]) == pytest.approx(1.0, rel=1e-14)

    def test_rotation_3d_axis(self):
        f = moebius("rotation", {"n": 3, "axis": [0.0, 0.0, 1.0], "angle": 0.9})
        x = np.array([1.0, 0.0, 0.3])
        y = f.value(x)
        assert y[2] == pytest.approx(0.3, abs=1e-14)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-14)

    def test_inversion_preserves_orientation(self):
        # the sphere inversion is composed with a reflection so det > 0
        f = moebius("inversion", {"n": 3})
        for x in ([1.0, 0.0, 0.0], [0.3, -0.8, 0.5], [2.0, 1.0, -1.0]):
            assert np.linalg.det(f.jacobian(x)) > 0.0

    def test_inversion_conformal_everywhere(self):
        rng = np.random.default_rng(229)
        f = moebius("inversion", {"n": 3})
        for _ in range(20):
            x = rng.standard_normal(3)
            if np.linalg.norm(x) < 0.1:
                continue
            rep = analyze(f.jacobian(x))
            assert rep.conformal
            assert rep.K == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_inversion_self_inverse(self):
        f = moebius("inversion", {"n": 2})
        x = np.array([0.6, -0.3])
        np.testing.assert_allclose(f.value(f.value(x)), x, atol=1e-13)

    def test_translation(self):
        f = moebius("translation", {"offset": [1.0, -2.0]})
        np.testing.assert_allclose(f.value([0.5, 0.5]), [1.5, -1.5])
        np.testing.assert_allclose(f.jacobian([0.5, 0.5]), np.eye(2))

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(233)
        for seed in range(8):
            f = random_moebius(3, np.random.default_rng(seed))
            g = f.inverse()
            x = rng.standard_normal(3) * 0.4
            try:
                y = g.value(f.value(x))
            except GuardViolation:
                continue
            np.testing.assert_allclose(y, x, atol=1e-10)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            moebius("rotation", {"n": 2})  # angle missing
        with pytest.raises(ConfigError):
            moebius("dilation", {"n": 2, "scale": -1.0})
        with pytest.raises(UnknownMap):
            moebius("squeeze", {"n": 2})

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_dilation_scale_must_be_positive_finite(self, scale):
        # a NaN scale used to pass the sign test and raise only when sampled
        with pytest.raises(ConfigError, match="scale must be a positive finite number"):
            moebius("dilation", {"n": 2, "scale": scale})

    @pytest.mark.parametrize("offset", [[math.nan, 0.0], [0.0, math.inf]])
    def test_translation_offset_must_be_finite(self, offset):
        # a NaN offset used to build a map whose every value is NaN
        with pytest.raises(ConfigError, match="translation offset must be finite"):
            moebius("translation", {"offset": offset})


class TestAffineMap:
    @pytest.mark.parametrize("matrix", [
        2.0, [1.0, 2.0], [[1.0, 2.0]], [[1.0, 0.0], [0.0, math.nan]], [[math.inf, 0.0], [0.0, 1.0]],
    ], ids=["scalar", "vector", "one_by_two", "nan", "inf"])
    def test_matrix_must_be_finite_square(self, matrix):
        # a scalar used to raise IndexError and [[1, 2]] built a map with n = 1
        with pytest.raises(ConfigError, match="affine matrix must be a finite square matrix"):
            affine_map(matrix)

    @pytest.mark.parametrize("offset", [[math.nan, 0.0], [0.0], [0.0, 0.0, 0.0], 1.0],
                             ids=["nan", "short", "long", "scalar"])
    def test_offset_must_be_n_finite_numbers(self, offset):
        with pytest.raises(ConfigError, match="affine offset must be 2 finite numbers"):
            affine_map(np.eye(2), offset)

    def test_offset_applied(self):
        f = affine_map([[2.0, 0.0], [1.0, 1.0]], [0.5, -1.0])
        np.testing.assert_array_equal(f.value([1.0, 2.0]), [2.5, 2.0])


class TestCompose:
    def test_identity_left_is_noop(self):
        u = polynomial_map(2, seed=1)
        c = compose(identity_map(2), u)
        x = np.array([0.2, -0.1])
        np.testing.assert_array_equal(c.jet(x).J, u.jet(x).J)
        np.testing.assert_array_equal(c.jet(x).H, u.jet(x).H)

    def test_chain_rule_jacobian(self):
        inner = polynomial_map(2, seed=3, amplitude=0.05)
        outer = affine_map([[1.2, 0.1], [0.0, 0.9]])
        c = compose(outer, inner)
        x = np.array([0.1, 0.3])
        expected = outer.jacobian(inner.value(x)) @ inner.jacobian(x)
        np.testing.assert_allclose(c.jacobian(x), expected, atol=1e-13)

    def test_negative_factors_rejected(self):
        # det(-I) = -1 in three dimensions, so the composite has det +1
        # and only the per-factor check can refuse it
        flip = affine_map(-np.eye(3))
        c = compose(flip, flip)
        x = np.array([0.1, -0.2, 0.3])
        with pytest.raises(NonPositiveDeterminant):
            c.jet(x)
        with pytest.raises(NonPositiveDeterminant):
            c._jet1(x)

    def test_negative_factors_rejected_inside_a_composite(self):
        # the nested composite is flattened, and each flip is still checked
        flip = affine_map(-np.eye(3))
        rot = moebius("rotation", {"n": 3, "axis": [0.0, 0.0, 1.0], "angle": 0.4})
        c = compose(rot, compose(flip, flip))
        x = np.array([0.1, -0.2, 0.3])
        with pytest.raises(NonPositiveDeterminant):
            c.jet(x)
        with pytest.raises(NonPositiveDeterminant):
            c._jet1(x)

    @pytest.mark.parametrize("nesting", ["right", "left"])
    def test_three_factors_fold_innermost_first(self, nesting):
        # either nesting folds the same factor list, bit for bit
        inner = polynomial_map(3, seed=7)
        mid = affine_map([[1.3, 0.2, 0.0], [-0.1, 0.9, 0.3], [0.0, 0.2, 1.1]], [0.1, 0.0, -0.2])
        outer = moebius("rotation", {"n": 3, "axis": [0.3, -1.0, 0.7], "angle": 0.8})
        if nesting == "right":
            c = compose(outer, compose(mid, inner))
        else:
            c = compose(compose(outer, mid), inner)
        x = np.array([0.2, -0.3, 0.1])
        y = inner.value(x)
        expected = outer.jacobian(mid.value(y)) @ (mid.jacobian(y) @ inner.jacobian(x))
        assert c.jacobian(x).tobytes() == expected.tobytes()
        assert c._jet1(x)[1].tobytes() == expected.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]), right=st.booleans())
    def test_word_affine_word_jacobian_is_chained_product(self, seed, n, right):
        rng = np.random.default_rng(seed)
        first, last = random_moebius(n, rng), random_moebius(n, rng)
        mid = affine_map(random_posdet(rng, n), rng.uniform(-0.5, 0.5, size=n))
        if right:
            c = compose(last, compose(mid, first))
        else:
            c = compose(compose(last, mid), first)
        x = rng.uniform(-0.5, 0.5, size=n)
        y = first.value(x)
        expected = last.jacobian(mid.value(y)) @ (mid.jacobian(y) @ first.jacobian(x))
        assert c.jacobian(x).tobytes() == expected.tobytes()

    def test_negative_factor_message(self):
        # the composition factors share the package's one sign check
        c = compose(affine_map(np.diag([1.0, -1.0])), identity_map(2))
        x = np.array([0.1, 0.2])
        with pytest.raises(NonPositiveDeterminant, match="determinant must be positive"):
            c.jet(x)
        with pytest.raises(NonPositiveDeterminant, match="determinant must be positive"):
            c._jet1(x)

    def test_post_composition_preserves_dilation(self):
        rng = np.random.default_rng(239)
        done = 0
        while done < 200:
            u, f, x, _ = invariance_sample(rng)
            try:
                ku = trace_dilation(u.jet(x).J)
                kc = trace_dilation(compose(f, u).jet(x).J)
            except (NonPositiveDeterminant, GuardViolation):
                continue
            assert abs(kc - ku) <= 1e-9 * (1.0 + ku)
            done += 1

    def test_post_composition_conjugates_trace_free_part(self):
        rng = np.random.default_rng(241)
        done = 0
        while done < 60:
            u, f, x, _ = invariance_sample(rng)
            try:
                jet_u = u.jet(x)
                sg = ahlfors(distortion_tensor(jet_u.J))
                jet_c = compose(f, u).jet(x)
                sg_c = ahlfors(distortion_tensor(jet_c.J))
                df = f.jacobian(u.value(x))
                lam = f.conformal_factor(u.value(x))
            except (NonPositiveDeterminant, GuardViolation):
                continue
            np.testing.assert_allclose(sg_c, df @ sg @ df.T / lam, atol=1e-8)
            done += 1

    def test_pre_composition_relocates_dilation(self):
        # K of u after a conformal change of variables is K of u at the image
        rng = np.random.default_rng(251)
        done = 0
        while done < 60:
            u, f, _, y = invariance_sample(rng)
            try:
                xb = f.inverse().value(y)
                k_pre = trace_dilation(compose(u, f).jet(xb).J)
                k_ref = trace_dilation(u.jet(f.value(xb)).J)
                sg_pre = ahlfors(distortion_tensor(compose(u, f).jet(xb).J))
                sg_ref = ahlfors(distortion_tensor(u.jet(f.value(xb)).J))
            except (NonPositiveDeterminant, GuardViolation):
                continue
            assert abs(k_pre - k_ref) <= 1e-9 * (1.0 + k_ref)
            np.testing.assert_allclose(sg_pre, sg_ref, atol=1e-9 * (1.0 + trace_dilation(u.jet(f.value(xb)).J) ** 2))
            done += 1

    def test_conformal_post_composition_keeps_solutions(self):
        # if the factored operator vanishes for u it vanishes for F(u)
        u = radial_stretch(2.0, 3)
        f = moebius("dilation", {"n": 3, "scale": 0.7})
        c = compose(f, u)
        rng = np.random.default_rng(257)
        for _ in range(15):
            x = rng.standard_normal(3)
            x *= rng.uniform(0.5, 1.5) / np.linalg.norm(x)
            out = linfty_factored(c.jet(x))
            assert np.max(np.abs(out)) <= 1e-7

    def test_moebius_sandwich_of_affine_is_solution(self):
        for n in (2, 3):
            rng = np.random.default_rng(263 + n)
            if n == 2:
                psi = compose(
                    moebius("inversion", {"n": 2}),
                    moebius("translation", {"offset": [2.8, -1.1]}),
                )
                mid = affine_map([[1.6, 0.2], [0.0, 0.9]])
                phi = moebius("rotation", {"n": 2, "angle": 0.6})
            else:
                psi = compose(
                    moebius("inversion", {"n": 3}),
                    moebius("translation", {"offset": [2.8, -1.1, 0.7]}),
                )
                mid = affine_map([[1.6, 0.2, 0.0], [0.0, 0.9, 0.1], [0.0, 0.0, 1.2]])
                phi = moebius("rotation", {"n": 3, "axis": [0, 0, 1], "angle": 0.6})
            m = teichmuller_map(psi, mid, phi)
            for _ in range(15):
                x = rng.standard_normal(n)
                x *= rng.uniform(0.2, 0.8) / np.linalg.norm(x)
                jet = m.jet(x)
                scale = max(1.0, np.max(np.abs(jet.J)) ** 6)
                assert np.max(np.abs(linfty_factored(jet))) <= 1e-7 * scale


class TestFirstOrderSampler:
    @pytest.mark.parametrize(
        "build, n",
        [
            (lambda: teichmuller_example(2), 2),
            (lambda: teichmuller_example(3), 3),
            (
                lambda: compose(
                    moebius("rotation", {"n": 2, "angle": 0.3}),
                    compose(
                        moebius("inversion", {"n": 2}),
                        moebius("translation", {"offset": [0.4, -0.7]}),
                    ),
                ),
                2,
            ),
            (lambda: affine_map([[1.3, 0.2, 0.0], [-0.1, 0.9, 0.3], [0.0, 0.2, 1.1]]), 3),
            (lambda: polynomial_map(2, seed=5), 2),
            (lambda: radial_stretch(1.7, 3), 3),
        ],
        ids=["teichmuller2", "teichmuller3", "word_with_inversion", "affine", "polynomial",
             "fallback"],
    )
    def test_matches_public_jet_bitwise(self, build, n):
        m = build()
        rng = np.random.default_rng(41 + n)
        for _ in range(25):
            x = rng.uniform(-0.7, 0.7, size=n)
            jet = m.jet(x)
            u, j = m._jet1(x)
            assert u.tobytes() == jet.u.tobytes()
            assert j.tobytes() == jet.J.tobytes()

    def test_first_order_path_skips_hessian(self):
        x = np.array([0.3, -0.2])
        word = compose(moebius("inversion", {"n": 2}), moebius("rotation", {"n": 2, "angle": 0.3}))
        for m in (word, affine_map([[1.2, 0.1], [0.0, 0.8]]), teichmuller_example(2),
                  polynomial_map(2, seed=5)):
            assert len(m.jet_fn(x, 1)) == 2

    def test_words_fold_from_their_first_generator(self, monkeypatch):
        # teichmuller(2) has factors [rotation word, affine, two-letter word]:
        # one chain inside the two-letter word and one per later factor
        calls = []

        def counted(outer, inner):
            calls.append(1)
            return _chain(outer, inner)

        m = teichmuller_example(2)
        monkeypatch.setattr("qcflow.maps._chain", counted)
        m._jet1(np.array([0.3, -0.2]))
        assert len(calls) == 3

    def test_inversion_origin_guard(self):
        inv = moebius("inversion", {"n": 2})
        with pytest.raises(OriginExcluded):
            inv._jet1(np.zeros(2))
        shifted = compose(inv, moebius("translation", {"offset": [0.5, -0.25]}))
        with pytest.raises(OriginExcluded):
            shifted._jet1(np.array([-0.5, 0.25]))


class TestCompetitorPerturbation:
    def setup_method(self):
        self.base = polynomial_map(3, seed=4, amplitude=0.05)
        self.bumps = [SphereBump(center=np.array([0.0, 0.0, 1.0]), threshold=0.5)]
        self.vectors = np.array([[0.3, -0.2, 0.4]])

    def test_lambda_zero_is_base(self):
        pert = competitor_perturbation(self.base, self.vectors, self.bumps, 0.0)
        x = np.array([0.3, -0.2, 0.5])
        np.testing.assert_array_equal(pert.jet(x).J, self.base.jet(x).J)

    def test_boundary_values_pinned(self):
        pert = competitor_perturbation(self.base, self.vectors, self.bumps, 0.3)
        rng = np.random.default_rng(269)
        for _ in range(20):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert np.max(np.abs(pert.value(x) - self.base.value(x))) <= 1e-12

    def test_first_order_dilation_change(self):
        # dK/dlambda on the sphere contracts the flow field with the
        # perturbation gradient -2 (sum phi_l v_l) outer x
        x = np.array([0.1, 0.2, 0.97])
        x /= np.linalg.norm(x)
        jet0 = self.base.jet(x)
        rep = analyze(jet0.J)
        phi = self.bumps[0].value(x)
        dchi = -2.0 * np.outer(phi * self.vectors[0], x)
        field = rep.Sg @ np.linalg.inv(jet0.J).T
        formula = np.sum(field * dchi) / rep.K
        errs = []
        for lam in (1e-3, 5e-4):
            pert = competitor_perturbation(self.base, self.vectors, self.bumps, lam)
            fd = (trace_dilation(pert.jet(x).J) - rep.K) / lam
            errs.append(abs(fd - formula))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.4)

    def test_vector_count_checked(self):
        with pytest.raises(ConfigError):
            competitor_perturbation(self.base, np.zeros((2, 3)), self.bumps, 0.1)

    @pytest.mark.parametrize("x", [[0.0, 0.0, 0.0], [0.05, -0.1, 0.12], [0.0, 0.0, 0.2]],
                             ids=["origin", "inside", "edge"])
    def test_inner_ball_jet_is_base_jet(self, x):
        # the radial fade is zero for |x| <= 0.2, even where the cap bump is live
        pert = competitor_perturbation(self.base, self.vectors, self.bumps, 0.3)
        got, base = pert.jet(x), self.base.jet(x)
        np.testing.assert_array_equal(got.u, base.u)
        np.testing.assert_array_equal(got.J, base.J)
        np.testing.assert_array_equal(got.H, base.H)

    def test_fade_band_hessian_matches_jacobian_differences(self):
        # 0.2 < |x| < 0.4 runs the smoothstep ramp; central differences of
        # the exact Jacobian reach the exact Hessian at second order
        pert = competitor_perturbation(self.base, self.vectors, self.bumps, 0.3)
        x = np.array([0.1, 0.12, 0.25])
        assert 0.2 < np.linalg.norm(x) < 0.4
        hess = pert.jet(x).H
        assert np.max(np.abs(hess - self.base.jet(x).H)) > 1e-3
        errs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            fd = np.stack([(pert.jet(x + h * e).J - pert.jet(x - h * e).J) / (2.0 * h)
                           for e in np.eye(3)], axis=-1)
            errs.append(float(np.max(np.abs(fd - hess))))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)


class TestFdMap:
    def test_affine_recovered_exactly(self):
        # affine has no truncation error, so a wide step keeps the
        # second-difference round-off below the target
        m = affine_map([[1.5, 0.3], [0.0, 0.8]], offset=[0.2, -0.1])
        fd = fd_map(m.value, 2, h=1e-2)
        x = np.array([0.4, 0.7])
        assert np.max(np.abs(fd.jacobian(x) - m.jacobian(x))) <= 1e-10
        assert np.max(np.abs(fd.hessian(x))) <= 1e-10

    def test_radial_jets_recovered(self):
        m = radial_stretch(2.0, 3)
        fd = fd_map(m.value, 3, h=1e-3)
        x = np.array([0.9, -0.2, 0.4])
        assert np.max(np.abs(fd.jacobian(x) - m.jacobian(x))) <= 1e-5
        assert np.max(np.abs(fd.hessian(x) - m.hessian(x))) <= 1e-5

    def test_second_order_convergence(self):
        m = radial_stretch(2.0, 3)
        x = np.array([0.9, -0.2, 0.4])
        errs = []
        for h in (2e-3, 1e-3):
            fd = fd_map(m.value, 3, h=h)
            errs.append(np.max(np.abs(fd.jacobian(x) - m.jacobian(x))))
        assert 3.2 <= errs[0] / errs[1] <= 4.8


class TestPolynomialMap:
    def test_jets_match_finite_differences(self):
        for seed in (0, 5):
            m = polynomial_map(3, seed=seed, amplitude=0.05)
            fd = fd_map(m.value, 3, h=1e-3)
            x = np.array([0.2, -0.3, 0.1])
            assert np.max(np.abs(m.jacobian(x) - fd.jacobian(x))) <= 1e-5
            assert np.max(np.abs(m.hessian(x) - fd.hessian(x))) <= 1e-4

    def test_determinant_positive_near_ball(self):
        rng = np.random.default_rng(271)
        for seed in range(10):
            m = polynomial_map(2, seed=seed)
            for _ in range(20):
                x = rng.uniform(-0.8, 0.8, size=2)
                assert np.linalg.det(m.jacobian(x)) > 0.0


class TestBumpMap:
    def test_boundary_of_unit_box_fixed(self):
        m = bump_map(2, amplitude=0.05)
        for x in ([0.0, 0.3], [1.0, 0.7], [0.4, 0.0], [0.6, 1.0]):
            np.testing.assert_allclose(m.value(x), x, atol=1e-15)

    def test_interior_displaced(self):
        m = bump_map(2, amplitude=0.05)
        x = np.array([0.5, 0.5])
        assert np.max(np.abs(m.value(x) - x)) > 1e-3

    def test_jets_match_finite_differences(self):
        m = bump_map(2, amplitude=0.05)
        fd = fd_map(m.value, 2, h=1e-4)
        x = np.array([0.3, 0.6])
        assert np.max(np.abs(m.jacobian(x) - fd.jacobian(x))) <= 1e-6
        assert np.max(np.abs(m.hessian(x) - fd.hessian(x))) <= 1e-4


class TestArgumentErrors:
    @pytest.mark.parametrize("build, message", [
        (lambda: wedge_map(0.0, 3), "wedge angle must lie in (0, 2*pi)"),
        (lambda: wedge_map(2.0 * math.pi, 3), "wedge angle must lie in (0, 2*pi)"),
        (lambda: wedge_map(math.pi, 1), "wedge map needs n >= 2"),
        (lambda: wedge_sector_constants(math.pi, 3, 3), "wedge sector must be 1 or 2"),
        (lambda: moebius("rotation", {"n": 2, "matrix": np.eye(3)}),
         "rotation matrix shape (3, 3), expected (2,2)"),
        (lambda: moebius("rotation", {"n": 2, "matrix": [[1.0, 0.5], [0.0, 1.0]]}),
         "rotation matrix must be orthogonal with det +1"),
        (lambda: moebius("rotation", {"n": 2, "matrix": [[1.0, 0.0], [0.0, -1.0]]}),
         "rotation matrix must be orthogonal with det +1"),
        (lambda: moebius("rotation", {"n": 4, "angle": 0.3}),
         "angle-based rotations support n=2 (angle) or n=3 (axis, angle)"),
        (lambda: teichmuller_example(4), "canned composition supports n=2 or n=3"),
        (lambda: compose(identity_map(2), identity_map(3)),
         "composition requires matching dimensions"),
    ], ids=["wedge_zero", "wedge_full_turn", "wedge_n1", "wedge_sector", "rotation_shape",
            "rotation_shear", "rotation_reflection", "rotation_n4", "teichmuller_n4",
            "compose_dims"])
    def test_config_error(self, build, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build()

    def test_point_length_checked(self):
        with pytest.raises(ValueError, match=re.escape("point shape (3,) does not match n=2")):
            identity_map(2).jet([0.1, 0.2, 0.3])


class TestRegistry:
    def test_ids_cover_builders(self):
        ids = map_ids()
        for required in ("radial_stretch", "wedge", "inversion", "identity", "polynomial"):
            assert required in ids

    def test_make_map_radial(self):
        m = make_map("radial_stretch", alpha=2.0, n=3)
        assert m.n == 3
        assert trace_dilation(m.jacobian([1.0, 0.0, 0.0])) ** 2 == pytest.approx(
            radial_ksq(2.0, 3), rel=1e-12
        )

    def test_unknown_id(self):
        with pytest.raises(UnknownMap):
            make_map("spiral")

    @pytest.mark.parametrize("kind, params", [
        ("rotation", {"n": 2, "angle": 0.3}),
        ("dilation", {"n": 3, "scale": 1.5}),
        ("translation", {"offset": [1.0, -2.0]}),
        ("inversion", {"n": 2}),
    ])
    def test_generator_ids_build_one_letter_words(self, kind, params):
        m = make_map(kind, **params)
        assert isinstance(m, ConformalMap)
        assert [k for k, _ in m.word] == [kind]

    def test_map_record_fields(self):
        # no name or params: the registry id is the only name a map has
        assert [f.name for f in dataclasses.fields(SmoothMap)] == ["n", "jet_fn"]

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            make_map("radial_stretch", alpha=2.0)  # n missing

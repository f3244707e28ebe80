"""Analytic test maps, conformal words, composition, and jet plumbing."""

import dataclasses
import math
import re
import sys
import threading
import time

import numpy as np
import pytest
from conftest import count_determinants, random_posdet
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import chained_map, fd_map

from qcflow import maps as qcflow_maps
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
    _chain,
    affine_map,
    bump_map,
    compose,
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
from qcflow.operators import Jet2Sample
from qcflow.verify import invariance_sample, random_moebius

AXIS_RULE = "rotation axis must be 3 finite numbers whose norm is nonzero and finite, got "


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

    def test_lp_formula_rows_match_single_points_bitwise(self):
        x = np.random.default_rng(13).uniform(-2.0, 2.0, size=(2, 5, 3))
        stacked = radial_lp(0.5, 3, 2.0, x)
        assert stacked.shape == x.shape
        for idx in np.ndindex(2, 5):
            assert radial_lp(0.5, 3, 2.0, x[idx]).tobytes() == stacked[idx].tobytes()


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

    @pytest.mark.parametrize("kind, params, extra", [
        ("rotation", {"n": 2, "angle": 0.3}, {"bogus": 7}),
        ("rotation", {"n": 2, "angle": 0.3}, {"scale": 2.0}),
        ("dilation", {"n": 2, "scale": 1.5}, {"angle": 0.3}),
        ("translation", {"offset": [1.0, -2.0]}, {"n": 2}),
        ("inversion", {"n": 2}, {"offset": [1.0, 0.0]}),
    ], ids=["rotation_bogus", "rotation_scale", "dilation_angle", "translation_n",
            "inversion_offset"])
    def test_unknown_parameter_rejected(self, kind, params, extra):
        # each kind used to ignore keys it does not read, even another kind's
        (key,) = extra
        message = f"moebius {kind} got unknown parameter {key}"
        moebius(kind, params)
        with pytest.raises(ConfigError, match=re.escape(message)):
            moebius(kind, {**params, **extra})
        with pytest.raises(ConfigError, match=re.escape(message)):
            make_map(kind, **params, **extra)

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


def _chained_jacobian(outer, mid, inner):
    """outer mid inner, innermost product first, by the package's chain rule."""
    return _chain((None, outer), _chain((None, mid), (None, inner)))[1]


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
            c.jacobian(x)

    def test_negative_factors_rejected_inside_a_composite(self):
        # the nested composite is flattened, and each flip is still checked
        flip = affine_map(-np.eye(3))
        rot = moebius("rotation", {"n": 3, "axis": [0.0, 0.0, 1.0], "angle": 0.4})
        c = compose(rot, compose(flip, flip))
        x = np.array([0.1, -0.2, 0.3])
        with pytest.raises(NonPositiveDeterminant):
            c.jet(x)
        with pytest.raises(NonPositiveDeterminant):
            c.jacobian(x)

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
        expected = _chained_jacobian(outer.jacobian(mid.value(y)), mid.jacobian(y),
                                     inner.jacobian(x))
        assert c.jacobian(x).tobytes() == expected.tobytes()
        assert c.jet(x).J.tobytes() == expected.tobytes()

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
        expected = _chained_jacobian(last.jacobian(mid.value(y)), mid.jacobian(y),
                                     first.jacobian(x))
        assert c.jacobian(x).tobytes() == expected.tobytes()

    def test_affine_factor_determinant_taken_once(self, monkeypatch):
        # an affine factor's J is constant: the composite takes its
        # determinant, the kernel's, at the first sample only, and a fold
        # is refused at every sample with the same message
        rot = moebius("rotation", {"n": 2, "angle": 0.3})
        good = compose(rot, affine_map([[1.2, 0.1], [0.0, 0.8]]))
        bad = compose(rot, affine_map(np.diag([1.0, -1.0])))
        calls = count_determinants(monkeypatch)
        x = np.array([0.1, 0.2])
        for _ in range(3):
            good.jacobian(x)
            good.value(np.stack([x, -x]))
        assert calls == [2]
        messages = set()
        for _ in range(3):
            with pytest.raises(NonPositiveDeterminant) as info:
                bad.jacobian(x)
            messages.add(str(info.value))
        assert calls == [2, 2]
        assert messages == {"determinant must be positive (min -1.000000e+00)"}

    def test_negative_factor_message(self):
        # the composition factors share the package's one sign check
        c = compose(affine_map(np.diag([1.0, -1.0])), identity_map(2))
        x = np.array([0.1, 0.2])
        with pytest.raises(NonPositiveDeterminant, match="determinant must be positive"):
            c.jet(x)
        with pytest.raises(NonPositiveDeterminant, match="determinant must be positive"):
            c.jacobian(x)

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


def _same_bits(got: tuple, want: tuple) -> bool:
    return len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _assert_matches_oracle(m, xs):
    """value, jacobian, hessian, jet and jet_fn at both orders against the plain chain fold."""
    ref = chained_map(m)
    for x in xs:
        for order in (1, 2):
            assert _same_bits(m.jet_fn(x, order), ref.jet_fn(x, order))
        for accessor in ("value", "jacobian", "hessian"):
            assert _same_bits((getattr(m, accessor)(x),), (getattr(ref, accessor)(x),))
        if x.ndim == 1:
            jet, want = m.jet(x), ref.jet_fn(x, 2)
            assert _same_bits((jet.u, jet.J, jet.H), want)


@st.composite
def _letters(draw, n):
    """A conformal word of one to three generators; an inversion follows a far translation."""
    axes = [[0.0, 0.0, 1.0], [0.3, -1.0, 0.7], [1.0, 1.0, 0.0]]
    word = None
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["rotation", "dilation", "translation", "inversion"]))
        if kind == "rotation":
            params = {"n": n, "angle": draw(st.floats(-4.0, 4.0))}
            if n == 3:
                params["axis"] = draw(st.sampled_from(axes))
        elif kind == "dilation":
            params = {"n": n, "scale": draw(st.floats(0.25, 4.0))}
        elif kind == "translation":
            params = {"offset": draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))}
        else:
            params = {"n": n}
        letter = moebius(kind, params)
        if kind == "inversion":  # keeps the pole away from the sampled box
            letter = compose(letter, moebius("translation", {"offset": [3.0] + [0.0] * (n - 1)}))
        word = letter if word is None else compose(letter, word)
    return word


@st.composite
def _sandwich(draw, n):
    """A word, an affine map with det > 0 and a word, composed with either nesting."""
    first, last = draw(_letters(n)), draw(_letters(n))
    entries = st.floats(-0.4, 0.4)
    offdiag = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    matrix = np.eye(n) + np.reshape(offdiag, (n, n))
    if np.linalg.det(matrix) < 0.05:
        matrix = np.diag(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    mid = affine_map(matrix, draw(st.lists(entries, min_size=n, max_size=n)))
    if draw(st.booleans()):
        return compose(last, compose(mid, first))
    return compose(compose(last, mid), first)


@st.composite
def _word_affine_word(draw):
    n = draw(st.sampled_from([2, 3]))
    m = draw(_sandwich(n))
    points = draw(st.lists(st.lists(st.floats(-0.7, 0.7), min_size=n, max_size=n),
                           min_size=1, max_size=4))
    return m, np.array(points)


class TestFold:
    """A composite folds its leading constant factors once, bit-equal to a plain chain fold."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_teichmuller_matches_the_chain_oracle(self, n):
        m = teichmuller_example(n)
        xs = np.random.default_rng(70 + n).uniform(-0.7, 0.7, size=(12, n))
        _assert_matches_oracle(m, list(xs) + [xs, xs.reshape(3, 4, n)])

    @settings(max_examples=150, deadline=None)
    @given(case=_word_affine_word())
    def test_word_affine_word_matches_the_chain_oracle(self, case):
        m, points = case
        try:
            chained_map(m).jet_fn(points, 2)
        except GuardViolation:  # an inversion pole: both refuse the stack
            with pytest.raises(GuardViolation):
                m.jet_fn(points, 2)
            return
        _assert_matches_oracle(m, list(points) + [points])

    def test_fold_covers_the_leading_translation_of_a_word(self, monkeypatch):
        # a word after the constant run passes its innermost translations to
        # the run's values and keeps the rest, here the inversion alone
        m = teichmuller_example(2)
        xs = np.array([[0.3, -0.2], [0.1, 0.4]])
        m.jacobian(xs)  # the fold samples the constant factors once
        calls = []
        jet = qcflow_maps._generator_jet

        def counted(kind, *args):
            calls.append(kind)
            return jet(kind, *args)

        monkeypatch.setattr(qcflow_maps, "_generator_jet", counted)
        m.jacobian(xs)
        assert calls == ["inversion"]
        # one point's float program holds the same one step after its moves
        _, _, _, factors = qcflow_maps._fold(m.factors)[-1]
        assert [[kind for kind, _, _ in steps] for steps, _ in factors] == [["inversion"]]

    @pytest.mark.parametrize("where", ["whole_run", "run_then_word", "two_affines_then_word"])
    def test_folded_reflection_refused_at_every_sample(self, where):
        flip = affine_map(np.diag([1.0, -1.0]))
        rot = moebius("rotation", {"n": 2, "angle": 0.3})
        shift = compose(moebius("inversion", {"n": 2}),
                        moebius("translation", {"offset": [2.0, 0.5]}))
        m = {"whole_run": compose(flip, rot),
             "run_then_word": compose(shift, compose(flip, rot)),
             "two_affines_then_word": compose(shift, compose(affine_map(np.eye(2)),
                                                             compose(flip, rot)))}[where]
        x = np.array([0.2, -0.1])
        messages = set()
        for sample in (m.jacobian, m.value, m.hessian, m.jet, m.jacobian):
            with pytest.raises(NonPositiveDeterminant) as info:
                sample(x)
            messages.add(str(info.value))
        assert messages == {"determinant must be positive (min -1.000000e+00)"}

    @pytest.mark.parametrize("folded", [True, False], ids=["in_the_run", "after_the_run"])
    def test_two_reflections_in_a_row_refused(self, folded):
        # the two flips compose to det +1, so only their own checks refuse them
        flip = affine_map(np.diag([1.0, -1.0]))
        inner = moebius("rotation", {"n": 2, "angle": 0.3}) if folded else polynomial_map(2)
        m = compose(flip, compose(flip, inner))
        x = np.array([0.2, -0.1])
        for sample in (m.jacobian, m.jet, m.jacobian):
            with pytest.raises(NonPositiveDeterminant,
                               match=re.escape("determinant must be positive (min -1.000000e+00)")):
                sample(x)

    def test_fold_made_once_across_threads(self, monkeypatch):
        # threads sample a fresh composite together: one folds, the others
        # wait for that fold and use it; the slow fold and the short switch
        # interval make every thread find the composite unfolded
        fold = qcflow_maps._fold
        calls = []
        workers = 4
        started = threading.Barrier(workers)

        def slow(factors):
            calls.append(1)
            time.sleep(0.05)
            return fold(factors)

        monkeypatch.setattr(qcflow_maps, "_fold", slow)
        m = teichmuller_example(2)
        x = np.array([0.3, -0.2])
        results = [None] * workers

        def sample(k):
            started.wait(timeout=10)
            results[k] = m.jacobian(x)

        threads = [threading.Thread(target=sample, args=(k,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert calls == [1]
        want = chained_map(m).jacobian(x).tobytes()
        assert all(r is not None and r.tobytes() == want for r in results)


# a point's coordinates: exact signed zeros, integers and plain floats
_COORDINATES = st.one_of(st.sampled_from([0.0, -0.0]), st.integers(-2, 2).map(float),
                         st.floats(-0.7, 0.7))


class TestFloatSample:
    """One point of a word or folded composite at order 1 keeps the array bits on Python floats."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.sampled_from([2, 3]), composite=st.booleans())
    def test_matches_the_array_path_bitwise(self, data, n, composite):
        m = data.draw(_sandwich(n) if composite else _letters(n))
        x = np.array(data.draw(st.lists(_COORDINATES, min_size=n, max_size=n)))
        if composite:  # every later factor is a word or an affine map
            assert qcflow_maps._fold(m.factors)[-1] is not None
        try:
            stack = m.jet_fn(x[None], 1)
        except GuardViolation as exc:  # an inversion pole refuses the point on both paths
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                m.jet_fn(x, 1)
            return
        single = m.jet_fn(x, 1)
        assert _same_bits(single, tuple(a[0] for a in stack))
        assert m.jet_fn(x, 2)[1].tobytes() == single[1].tobytes()
        assert m.jacobian(x).tobytes() == single[1].tobytes()
        if composite:
            assert _same_bits(single, chained_map(m).jet_fn(x, 1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_sweep_matches_the_stack(self, n):
        # r^4 taken as a product instead of the C pow differs on about 0.1% of points
        xs = np.random.default_rng(5 + n).uniform(-0.7, 0.7, size=(4000, n))
        for m in (moebius("inversion", {"n": n}), teichmuller_example(n)):
            singles = [m.jet_fn(x, 1) for x in xs]
            for k, arr in enumerate(m.jet_fn(xs, 1)):
                assert np.array([one[k] for one in singles]).tobytes() == arr.tobytes()

    @pytest.mark.parametrize("build, program", [
        (lambda: teichmuller_example(2), True),
        (lambda: teichmuller_example(3), True),
        (lambda: moebius("inversion", {"n": 3}), True),
        (lambda: moebius("rotation", {"n": 2, "angle": 0.3}), True),
        (lambda: compose(moebius("rotation", {"n": 2, "angle": 0.3}), polynomial_map(2, seed=5)),
         False),
        (lambda: affine_map([[1.3, 0.2], [-0.1, 0.8]]), False),
        (lambda: radial_stretch(1.7, 3), False),
        (lambda: polynomial_map(4, seed=1), False),
    ], ids=["teichmuller2", "teichmuller3", "inversion3", "rotation2", "composite_polynomial",
            "affine", "radial", "polynomial4"])
    def test_jacobian_entries_match_the_accessor(self, build, program):
        # a float program hands over its sums and no array; any other map
        # hands over jacobian's array and its entries
        m = build()
        for x in np.random.default_rng(9).uniform(-0.7, 0.7, size=(20, m.n)).tolist():
            entries, a = m._jacobian_entries(x)
            want = m.jacobian(np.array(x))
            assert (a is None) == program
            assert np.array(entries).reshape(m.n, m.n).tobytes() == want.tobytes()
            if a is not None:
                assert a.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("fault", ["pole", "reflection", "shape"])
    def test_raises_as_the_array_path(self, n, fault):
        # the reflection follows an inversion, so it is a factor after the fold
        shift = compose(moebius("inversion", {"n": n}),
                        moebius("translation", {"offset": [2.0] + [0.5] * (n - 1)}))
        flip = affine_map(np.diag([1.0] * (n - 1) + [-1.0]))
        m, x, error, message = {
            "pole": (moebius("inversion", {"n": n}), [-0.0] + [0.0] * (n - 1), OriginExcluded,
                     "inversion sampled at the origin"),
            "reflection": (compose(flip, shift), [0.1] * n, NonPositiveDeterminant,
                           "determinant must be positive (min -1.000000e+00)"),
            "shape": (teichmuller_example(n), [0.1] * (n + 1), ValueError,
                      f"point shape ({n + 1},) does not match n={n}"),
        }[fault]
        x = np.array(x)
        for _ in range(3):  # the first sample makes the float program, later ones reuse it
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                m.jacobian(x)
        stacked = message.replace(f"({n + 1},)", f"(1, {n + 1})")
        with pytest.raises(error, match=f"^{re.escape(stacked)}$"):
            m.jacobian(x[None])  # a stack takes the array path


class TestOnePairProducts:
    """One 2x2 or 3x3 pair, or one point, takes the product rule on Python floats."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.sampled_from([2, 3]))
    def test_matches_the_stack_bitwise(self, data, n):
        # a one-row stack takes the array path of the same rule
        a, b = (np.array(data.draw(st.lists(_COORDINATES, min_size=n * n, max_size=n * n)))
                .reshape(n, n) for _ in range(2))
        x = np.array(data.draw(st.lists(_COORDINATES, min_size=n, max_size=n)))
        pairs = [(qcflow_maps._matmul(a, b), qcflow_maps._matmul(a[None], b[None])[0]),
                 (qcflow_maps._matmul(a.T, b), qcflow_maps._matmul(a.T[None], b[None])[0]),
                 (qcflow_maps._dot(x, a[0]), qcflow_maps._dot(x[None], a[:1])[0]),
                 (qcflow_maps._apply(a, x), qcflow_maps._apply(a, x[None])[0])]
        for one, stacked in pairs:
            assert type(one) is type(stacked) and one.shape == stacked.shape
            assert one.dtype == stacked.dtype and one.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("kind", ["rotation", "affine"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_generator_value_of_one_point_matches_the_stack(self, kind, n):
        rng = np.random.default_rng(17 + n)
        m = random_posdet(rng, n)
        data = m if kind == "rotation" else (m, rng.standard_normal(n))
        xs = rng.uniform(-0.7, 0.7, size=(50, n))
        stack = qcflow_maps._generator_value(kind, data, xs)
        ones = np.array([qcflow_maps._generator_value(kind, data, x) for x in xs])
        assert ones.tobytes() == stack.tobytes()


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
            assert m.value(x).tobytes() == jet.u.tobytes()
            assert m.jacobian(x).tobytes() == jet.J.tobytes()
            assert m.hessian(x).tobytes() == jet.H.tobytes()

    def test_accessors_build_no_jet_sample(self, monkeypatch):
        # value, jacobian and hessian return the sampler's arrays; only jet validates
        def refuse(self):
            raise AssertionError("Jet2Sample built")

        monkeypatch.setattr(Jet2Sample, "__post_init__", refuse)
        x = np.array([0.3, -0.2])
        for m in (teichmuller_example(2), polynomial_map(2, seed=5), radial_stretch(1.7, 2),
                  wedge_map(2.0, 2), bump_map(2), moebius("inversion", {"n": 2})):
            assert m.value(x).shape == (2,)
            assert m.jacobian(x).shape == (2, 2)
            assert m.hessian(x).shape == (2, 2, 2)

    def test_folded_map_accessors_return_arrays(self):
        # a non-composite map is checked where its J is used: jet refuses the
        # fold, the accessors hand it back
        flip = np.diag([1.0, -1.0])
        m = affine_map(flip, [0.1, 0.0])
        x = np.array([0.3, -0.2])
        np.testing.assert_array_equal(m.value(x), [0.4, 0.2])
        np.testing.assert_array_equal(m.jacobian(x), flip)
        np.testing.assert_array_equal(m.hessian(x), np.zeros((2, 2, 2)))
        with pytest.raises(NonPositiveDeterminant):
            m.jet(x)

    def test_first_order_path_skips_hessian(self):
        x = np.array([0.3, -0.2])
        word = compose(moebius("inversion", {"n": 2}), moebius("rotation", {"n": 2, "angle": 0.3}))
        for m in (word, affine_map([[1.2, 0.1], [0.0, 0.8]]), teichmuller_example(2),
                  polynomial_map(2, seed=5), bump_map(2)):
            assert len(m.jet_fn(x, 1)) == 2

    def test_words_fold_from_their_first_generator(self, monkeypatch):
        # teichmuller(2) has factors [rotation word, affine, two-letter word]:
        # the rotation, the affine and the word's translation fold into one
        # constant matrix, so only the inversion is chained onto it
        calls = []

        def counted(outer, inner):
            calls.append(1)
            return _chain(outer, inner)

        m = teichmuller_example(2)
        monkeypatch.setattr("qcflow.maps._chain", counted)
        m.jacobian(np.array([[0.3, -0.2], [0.1, 0.4]]))
        assert len(calls) == 1
        # one point's float program chains the same one inversion step
        _, _, matrix, factors = qcflow_maps._fold(m.factors)[-1]
        assert matrix is not None
        assert [[kind for kind, _, _ in steps] for steps, _ in factors] == [["inversion"]]

    def test_inversion_origin_guard(self):
        inv = moebius("inversion", {"n": 2})
        with pytest.raises(OriginExcluded):
            inv.value(np.zeros(2))
        shifted = compose(inv, moebius("translation", {"offset": [0.5, -0.25]}))
        with pytest.raises(OriginExcluded):
            shifted.jacobian(np.array([-0.5, 0.25]))


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
        (lambda: moebius("rotation", {"n": 2, "angle": math.nan}),
         "rotation angle must be finite, got nan"),
        (lambda: moebius("rotation", {"n": 2, "angle": -math.inf}),
         "rotation angle must be finite, got -inf"),
        (lambda: moebius("rotation", {"n": 3, "axis": [0.0, 0.0, 1.0], "angle": math.inf}),
         "rotation angle must be finite, got inf"),
        (lambda: moebius("rotation", {"n": 3, "axis": [1.0, 0.0], "angle": 1.0}),
         AXIS_RULE + "[1.0, 0.0]"),
        (lambda: moebius("rotation", {"n": 3, "axis": [1.0, 0.0, 0.0, 0.0], "angle": 1.0}),
         AXIS_RULE + "[1.0, 0.0, 0.0, 0.0]"),
        (lambda: moebius("rotation", {"n": 3, "axis": [0.0, 0.0, 0.0], "angle": 1.0}),
         AXIS_RULE + "[0.0, 0.0, 0.0]"),
        (lambda: moebius("rotation", {"n": 3, "axis": [math.nan, 0.0, 1.0], "angle": 1.0}),
         AXIS_RULE + "[nan, 0.0, 1.0]"),
        (lambda: moebius("rotation", {"n": 3, "axis": [1.0, math.inf, 0.0], "angle": 1.0}),
         AXIS_RULE + "[1.0, inf, 0.0]"),
        (lambda: moebius("rotation", {"n": 3, "axis": [1e200, 1e200, 0.0], "angle": 1.0}),
         AXIS_RULE + "[1e+200, 1e+200, 0.0]"),
    ], ids=["wedge_zero", "wedge_full_turn", "wedge_n1", "wedge_sector", "rotation_shape",
            "rotation_shear", "rotation_reflection", "rotation_n4", "teichmuller_n4",
            "compose_dims", "rotation_nan_angle", "rotation_minus_inf_angle",
            "rotation_inf_angle_3d", "rotation_short_axis", "rotation_long_axis",
            "rotation_zero_axis", "rotation_nan_axis", "rotation_inf_axis",
            "rotation_overflowing_axis"])
    def test_config_error(self, build, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build()

    def test_point_length_checked(self):
        with pytest.raises(ValueError, match=re.escape("point shape (3,) does not match n=2")):
            identity_map(2).jet([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match=re.escape("point shape (4, 3) does not match n=2")):
            identity_map(2).value(np.zeros((4, 3)))

    def test_jet_takes_one_point(self):
        with pytest.raises(ValueError, match=re.escape("jet takes one point, got shape (4, 2)")):
            identity_map(2).jet(np.zeros((4, 2)))


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

    # every builder that takes n, with its other parameters
    DIMENSIONED = {"radial_stretch": {"alpha": 2.0}, "wedge": {"alpha": 2.0},
                   "rotation": {"angle": 0.3}, "dilation": {"scale": 1.5}, "inversion": {},
                   "polynomial": {}, "identity": {}, "affine_bump": {}, "teichmuller": {}}

    @pytest.mark.parametrize("n", [2.5, 0, -2, math.nan, math.inf, "2"])
    @pytest.mark.parametrize("map_id", sorted(DIMENSIONED))
    def test_dimension_must_be_a_whole_number_from_one(self, map_id, n):
        # n = 2.5 used to build a map that failed only when sampled, and
        # the generators truncated it to 2
        message = f"dimension n must be an integral number >= 1, got {n!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            make_map(map_id, **self.DIMENSIONED[map_id], n=n)

    @pytest.mark.parametrize("map_id", sorted(DIMENSIONED))
    def test_integral_float_dimension_accepted(self, map_id):
        m = make_map(map_id, **self.DIMENSIONED[map_id], n=2.0)
        assert type(m.n) is int and m.n == 2
        assert m.jacobian([0.3, 0.4]).shape == (2, 2)


def _pole_of_teichmuller_2():
    # the point the middle affine factor sends onto the inversion pole
    rot = moebius("rotation", {"n": 2, "angle": 0.6})
    return rot.value(np.linalg.solve([[1.6, 0.2], [0.0, 0.9]], [-2.8, 1.1]))


# every registry id with parameters, and the box a seeded sweep draws from
BROADCAST_CASES = {
    "radial_stretch": ({"alpha": 1.7, "n": 3}, (-1.0, 1.0)),
    "wedge": ({"alpha": 2.0, "n": 3}, (-1.0, 1.0)),
    "rotation": ({"n": 3, "axis": [0.3, -1.0, 0.7], "angle": 0.8}, (-1.0, 1.0)),
    "dilation": ({"n": 2, "scale": 1.7}, (-1.0, 1.0)),
    "translation": ({"offset": [0.3, -0.2, 0.5]}, (-1.0, 1.0)),
    "inversion": ({"n": 3}, (-1.0, 1.0)),
    "affine": ({"matrix": [[1.3, 0.2], [-0.1, 0.9]], "offset": [0.1, 0.2]}, (-1.0, 1.0)),
    "polynomial": ({"n": 3, "seed": 9, "amplitude": 0.08}, (-0.7, 0.7)),
    "identity": ({"n": 2}, (-1.0, 1.0)),
    "affine_bump": ({"n": 3}, (-0.2, 1.2)),
    "teichmuller": ({"n": 2}, (-0.7, 0.7)),
}

BROADCAST_MAPS = {
    **{map_id: (make_map(map_id, **params), box)
       for map_id, (params, box) in BROADCAST_CASES.items()},
    "teichmuller3": (teichmuller_example(3), (-0.7, 0.7)),
    "wedge_reflex": (wedge_map(4.0, 2), (-1.0, 1.0)),
    "word_of_polynomial": (compose(moebius("inversion", {"n": 2}), polynomial_map(2, seed=3)),
                           (-0.7, 0.7)),
}


class TestBroadcast:
    """A stack of points samples bit for bit like each point alone."""

    def test_cases_cover_the_registry(self):
        assert sorted(BROADCAST_CASES) == map_ids()

    @pytest.mark.parametrize("stack", [(24,), (4, 6)], ids=["k_n", "k_m_n"])
    @pytest.mark.parametrize("name", sorted(BROADCAST_MAPS))
    def test_stack_matches_points_bitwise(self, name, stack):
        m, (lo, hi) = BROADCAST_MAPS[name]
        xs = np.random.default_rng(len(stack) + 10 * m.n).uniform(lo, hi, size=stack + (m.n,))
        for order in (1, 2):
            stacked = m.jet_fn(xs, order)
            for k, arr in enumerate(stacked):
                assert arr.shape == stack + (m.n,) * (k + 1)
            for idx in np.ndindex(stack):
                single = m.jet_fn(xs[idx], order)
                assert len(single) == len(stacked)
                for arr, one in zip(stacked, single):
                    assert arr[idx].tobytes() == one.tobytes()
        for accessor in (m.value, m.jacobian, m.hessian):
            out = accessor(xs)
            for idx in np.ndindex(stack):
                assert out[idx].tobytes() == accessor(xs[idx]).tobytes()

    @pytest.mark.parametrize("m, bad, error, message", [
        (radial_stretch(2.0, 2), [0.0, 0.0], OriginExcluded,
         "radial stretch sampled at the origin"),
        (wedge_map(2.0, 3), [0.5, 0.0, 0.2], SeamExcluded,
         "wedge map sampled within 1e-06 of a seam"),
        (wedge_map(2.0, 3), [0.5 * math.cos(2.0), 0.5 * math.sin(2.0), -0.1], SeamExcluded,
         "wedge map sampled within 1e-06 of a seam"),
        (wedge_map(2.0, 3), [0.0, 0.0, 0.3], AxisExcluded,
         "wedge map sampled on the symmetry axis"),
        (teichmuller_example(2), _pole_of_teichmuller_2(), OriginExcluded,
         "inversion sampled at the origin"),
    ], ids=["radial_origin", "wedge_seam_0", "wedge_seam_alpha", "wedge_axis",
            "teichmuller_pole"])
    def test_one_guarded_point_refuses_the_stack(self, m, bad, error, message):
        exact = f"^{re.escape(message)}$"
        with pytest.raises(error, match=exact):
            m.value(bad)
        # good points sit well inside the first wedge sector and the ball
        angles = np.linspace(0.5, 1.5, 6)
        good = 0.3 * np.stack([np.cos(angles), np.sin(angles)] + [angles] * (m.n - 2), axis=-1)
        stack = np.insert(good, 3, bad, axis=0)
        for accessor in (m.value, m.jacobian, m.hessian):
            accessor(good)
            for xs in (stack, stack[None]):
                with pytest.raises(error, match=exact):
                    accessor(xs)


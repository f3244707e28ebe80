"""Pointwise tensor algebra: norms, cofactors, dilation, distortion."""

import math
import re

import numpy as np
import pytest
from conftest import random_posdet
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _checked_det_adj, _expansion_det_adj

from qcflow import (
    Jet2Sample,
    NonFiniteValue,
    NonPositiveDeterminant,
    QcflowError,
    ahlfors,
    analyze,
    cofactor,
    distortion_tensor,
    factoring_residual,
    flux,
    hs_norm,
    linfty_factored,
    trace_dilation,
)
from qcflow.gradientflow import _det_field
from qcflow.maps import affine_map, compose, moebius, radial_stretch
from qcflow.tensor import (_adjugate, _checked, _cofactor_row, _cofactors, _dilation, _dilation_field,
                           _entries, _entries_det, _inverse_t, _sg_field, _sg_one)
from qcflow.traces import critical_equality_check
from qcflow.verify import random_moebius


def _matrix_det(a):
    """The kernel's det of a matrix or stack, as maps takes an affine factor's."""
    return _entries_det(_entries(a), a.shape[-1])


def random_spd_jacobians(rng, n, count, scale=0.4):
    mats = []
    while len(mats) < count:
        j = np.eye(n) + scale * rng.standard_normal((n, n))
        if np.linalg.det(j) > 0.05:
            mats.append(j)
    return mats


def _signed_zeros(rng, n):
    """random_posdet with exact +0.0 and -0.0 in about a third of its entries.

    Zeros can make the matrix singular, where LAPACK's det may still come
    out positive by round-off; the expansion's det must be positive too.
    """
    while True:
        q = random_posdet(rng, n, scale=0.6)
        q[rng.random((n, n)) < 0.35] = 0.0
        q *= np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
        if np.linalg.det(q) < 0.0:
            q[0] = -q[0]
        if np.linalg.det(q) > 0.0 and _matrix_det(q) > 0.0:
            return q


def _integer(rng, n):
    """Integer matrix with positive determinant."""
    while True:
        q = np.rint(4.0 * random_posdet(rng, n, scale=0.6)).astype(int)
        if np.linalg.det(q) > 0.5:
            return q


# stacks of count matrices for TestDilationField's bitwise test
STACK_FORMS = {
    "float": lambda rng, n, count: np.array([random_posdet(rng, n, scale=0.6)
                                            for _ in range(count)]),
    "signed_zeros": lambda rng, n, count: np.array([_signed_zeros(rng, n) for _ in range(count)]),
    "integer": lambda rng, n, count: np.array([_integer(rng, n) for _ in range(count)]),
    "transposed": lambda rng, n, count: np.array([random_posdet(rng, n, scale=0.6)
                                                 for _ in range(count)]).swapaxes(-1, -2),
}


# one kernel from each module that enters through tensor._checked
CHECKED_ENTRIES = {
    "trace_dilation": trace_dilation,
    "flux": lambda m: flux(m, 2.0),
    "Jet2Sample": lambda m: Jet2Sample(x=np.zeros(2), u=np.zeros(2), J=m, H=np.zeros((2, 2, 2))),
    "critical_equality_check": lambda m: critical_equality_check(m, [1.0, 0.0]),
}


class TestCheckedEntry:
    @pytest.mark.parametrize("entry", sorted(CHECKED_ENTRIES))
    @pytest.mark.parametrize("shape, message", [
        ((3,), "expected square matrix trailing axes, got shape (3,)"),
        ((2, 3), "expected square matrix trailing axes, got shape (2, 3)"),
        ((1, 1), "dimension 1 outside supported range 2..4"),
        ((5, 5), "dimension 5 outside supported range 2..4"),
    ], ids=["vector", "2x3", "1x1", "5x5"])
    def test_rejects_bad_shape(self, entry, shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CHECKED_ENTRIES[entry](np.ones(shape))


class TestHsNorm:
    def test_identity_2d(self):
        assert hs_norm(np.eye(2)) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_three_four_five(self):
        assert hs_norm(np.diag([3.0, 4.0])) == 5.0

    def test_zero_matrix(self):
        assert hs_norm(np.zeros((3, 3))) == 0.0

    def test_batched(self):
        stack = np.stack([np.eye(2), np.diag([3.0, 4.0])])
        out = hs_norm(stack)
        assert out.shape == (2,)
        np.testing.assert_allclose(out, [math.sqrt(2.0), 5.0])


class TestCofactor:
    def test_identity(self):
        np.testing.assert_array_equal(cofactor(np.eye(3)), np.eye(3))

    def test_diag_2d_swaps_entries(self):
        out = cofactor(np.diag([2.0, 5.0]))
        np.testing.assert_allclose(out, np.diag([5.0, 2.0]))

    def test_transpose_contraction_gives_det(self):
        # cof(M)^T M = det(M) I for any square M, singular included.
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            for _ in range(25):
                m = rng.standard_normal((n, n))
                lhs = cofactor(m).T @ m
                np.testing.assert_allclose(
                    lhs, np.linalg.det(m) * np.eye(n), atol=1e-10 * max(1.0, hs_norm(m) ** n)
                )

    def test_singular_matrix_ok(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        lhs = cofactor(m).T @ m
        np.testing.assert_allclose(lhs, np.zeros((2, 2)), atol=1e-12)

    def test_stack_matches_single_calls(self):
        # the closed form runs the same float operations on a stack
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            mats = rng.standard_normal((3, 5, n, n))
            out = cofactor(mats)
            assert out.shape == mats.shape
            for idx in np.ndindex(3, 5):
                np.testing.assert_array_equal(out[idx], cofactor(mats[idx]))


class TestDetAdj:
    def test_matches_linalg_on_entry_first_stacks(self):
        # closed-form cofactor expansion against LAPACK; the float64
        # round-off of either is a few ulps of |M|^n
        rng = np.random.default_rng(23)
        for n in (2, 3, 4):
            mats = rng.standard_normal((200, n, n))
            mats = mats[np.linalg.det(mats) >= 0.05]
            det, adj = _matrix_det(mats), _adjugate(np.moveaxis(mats, 0, -1))
            scale = hs_norm(mats) ** n
            np.testing.assert_allclose(det, np.linalg.det(mats), rtol=0, atol=1e-13 * scale.max())
            adj = np.moveaxis(adj, -1, 0)
            np.testing.assert_allclose(
                adj @ mats, det[:, None, None] * np.eye(n), rtol=0, atol=1e-13 * scale.max()
            )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 9),
           form=st.sampled_from(sorted(STACK_FORMS)), single=st.booleans())
    def test_four_by_four_matches_the_expansion_oracle_bitwise(self, seed, count, form, single):
        # each shared 2x2 minor is taken once, by the recursion's own operations
        mats = np.asarray(STACK_FORMS[form](np.random.default_rng(seed), 4, count), dtype=float)
        a = mats[0] if single else np.moveaxis(mats, 0, -1)
        want_det, want_adj = _checked_det_adj(a)
        assert np.asarray(_det_field(a)).tobytes() == want_det.tobytes()
        assert _adjugate(a).tobytes() == want_adj.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 9),
           form=st.sampled_from(sorted(STACK_FORMS)))
    def test_four_by_four_cofactors_match_the_expansion_oracle_bitwise(self, seed, count, form):
        # every cofactor and every row of them, on one matrix's Python
        # floats and on a stack's node arrays
        mats = np.asarray(STACK_FORMS[form](np.random.default_rng(seed), 4, count), dtype=float)
        want = np.moveaxis(_expansion_det_adj(np.moveaxis(mats, 0, -1))[1], -1, 0).swapaxes(-1, -2)
        nodes = [mats[:, i, j] for i in range(4) for j in range(4)]
        assert np.stack(_cofactors(nodes, 4), axis=-1).tobytes() == want.tobytes()
        for i in range(4):
            assert np.stack(_cofactor_row(nodes, 4, i), axis=-1).tobytes() == want[:, i].tobytes()
        for m, w in zip(mats, want):
            e = m.ravel().tolist()
            assert np.array(_cofactors(e, 4)).tobytes() == w.tobytes()
            for i in range(4):
                assert np.array(_cofactor_row(e, 4, i)).tobytes() == w[i].tobytes()

    def test_diag_2d_hand_values(self):
        a = np.diag([2.0, 5.0])
        assert _matrix_det(a) == 10.0
        np.testing.assert_array_equal(_adjugate(a), np.diag([5.0, 2.0]))


class TestInverseT:
    """J^{-T} at n = 2..4: cofactor / det on one matrix's floats and on a stack's node arrays."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]),
           count=st.integers(1, 9), form=st.sampled_from(sorted(STACK_FORMS)))
    def test_equals_cofactor_over_det_bitwise(self, seed, n, count, form):
        mats = np.asarray(STACK_FORMS[form](np.random.default_rng(seed), n, count), dtype=float)
        det = _checked(mats)[2]
        inv_t = _inverse_t(mats, det)
        assert inv_t.tobytes() == (cofactor(mats) / det[:, None, None]).tobytes()
        for i, j in enumerate(mats):
            d = _checked(j)[2]
            assert _inverse_t(j, d).tobytes() == (cofactor(j) / d).tobytes() == inv_t[i].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]), decades=st.floats(0.0, 8.0))
    def test_within_a_condition_scaled_bound_of_lapack(self, seed, n, decades):
        # each cofactor errs by a few eps times cond |J^{-1}| det, and det,
        # as the kernel's det test bounds it, by a few eps times
        # cond^(n-1) det; LAPACK's inverse errs by a few eps times cond |J^{-1}|
        rng = np.random.default_rng(seed)
        q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        if np.linalg.det(q1 @ q2) < 0.0:
            q1[:, 0] = -q1[:, 0]
        a = q1 @ np.diag(10.0 ** -rng.uniform(0.0, decades, n)) @ q2
        want = np.linalg.inv(a).T
        bound = 32 * n * n * np.finfo(float).eps * np.linalg.cond(a) ** (n - 1) * np.linalg.norm(want, 2)
        assert np.max(np.abs(_inverse_t(a, _checked(a)[2]) - want)) <= bound

    @pytest.mark.parametrize("n", [3, 4])
    def test_overflowing_inverse_is_named(self, n):
        # det 1e-4 and |J|^2 finite, but J^{-T}[0, 0] = 1e310: not a bare
        # RuntimeWarning, and not inf or NaN entries
        j = np.diag([1e-310] + [1e153 if n == 3 else 1e102] * (n - 1))
        for m in (j, np.stack([np.eye(n), j])):
            jet = Jet2Sample(x=np.zeros(m.shape[:-1]), u=np.zeros(m.shape[:-1]), J=m,
                             H=np.zeros(m.shape + (n,)))
            for call in (lambda: flux(m, 2.0), lambda: linfty_factored(jet)):
                with pytest.raises(NonFiniteValue, match=r"^J\^\{-T\} overflows the float range$"):
                    call()


class TestKernel:
    """One source for one matrix on Python floats and for a stack on node arrays, n = 2..4."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]),
           count=st.integers(1, 9), form=st.sampled_from(sorted(STACK_FORMS)))
    def test_stack_rows_match_single_calls_bitwise(self, seed, n, count, form):
        # every sum has its own fixed order, so neither the numpy version
        # nor a transposed view's memory order reaches the bits
        mats = np.asarray(STACK_FORMS[form](np.random.default_rng(seed), n, count), dtype=float)
        det, nsq = _checked(mats)[2:]
        k, field = _dilation_field(mats)
        for i, j in enumerate(mats):
            f1, nsq1, det1 = _sg_one(j.ravel().tolist())
            assert det[i].tobytes() == _checked(j)[2].tobytes() == np.float64(det1).tobytes()
            assert nsq[i].tobytes() == _checked(j)[3].tobytes() == np.float64(nsq1).tobytes()
            assert field[i].tobytes() == np.array(f1).reshape(n, n).tobytes()
            assert k[i].tobytes() == trace_dilation(j).tobytes() == _dilation(nsq1, det1, n).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]),
           count=st.integers(1, 9), form=st.sampled_from(sorted(STACK_FORMS)))
    def test_one_row_matches_the_full_field_bitwise(self, seed, n, count, form):
        # a flow line's RK4 stage takes one row of F: the first row's
        # cofactors for det, the row's own for F, and nothing else
        mats = np.asarray(STACK_FORMS[form](np.random.default_rng(seed), n, count), dtype=float)
        dets = _matrix_det(mats), _det_field(np.moveaxis(mats, 0, -1).copy())
        for i, j in enumerate(mats):
            e = j.ravel().tolist()
            full, nsq, det = _sg_one(e)
            # the helpers a stack shares still give a stack row its single call's bits
            assert dets[0][i].tobytes() == dets[1][i].tobytes() == np.float64(_matrix_det(j)).tobytes()
            assert np.float64(_matrix_det(j)).tobytes() == np.float64(det).tobytes()
            for row in range(n):
                part = slice(row * n, row * n + n)
                cofactors = np.array(_cofactors(e, n)[part])
                assert np.array(_cofactor_row(e, n, row)).tobytes() == cofactors.tobytes()
                f, nsq1, det1 = _sg_one(e, row)
                assert np.array(f).tobytes() == np.array(full[part]).tobytes()
                assert np.array([nsq1, det1]).tobytes() == np.array([nsq, det]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(n=st.sampled_from([2, 3, 4]), data=st.data())
    def test_one_row_raises_as_the_full_field(self, n, data):
        # a non-finite entry, a det <= 0 or past the float range, and an
        # |J|^2 past it are refused by the same check with the same message
        entry = st.floats(-4.0, 4.0) | st.sampled_from(
            [0.0, -0.0, 1e-200, 1e155, 1e200, -1e200, math.inf, -math.inf, math.nan])
        e = data.draw(st.lists(entry, min_size=n * n, max_size=n * n))
        try:
            full, nsq, det = _sg_one(e)
        except QcflowError as exc:
            for row in range(n):
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    _sg_one(e, row)
            return
        for row in range(n):
            f, nsq1, det1 = _sg_one(e, row)
            assert np.array(f).tobytes() == np.array(full[row * n:row * n + n]).tobytes()
            assert np.array([nsq1, det1]).tobytes() == np.array([nsq, det]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]), decades=st.floats(0.0, 8.0))
    def test_det_within_a_condition_scaled_bound_of_lapack(self, seed, n, decades):
        # singular values spread over up to 8 decades. The expansion errs
        # by a few eps times the sum of its terms' magnitudes, which
        # Hadamard's inequality holds under cond^(n-1) |det|; LAPACK errs by
        # a few eps times cond |det|
        rng = np.random.default_rng(seed)
        q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        a = q1 @ np.diag(10.0 ** -rng.uniform(0.0, decades, n)) @ q2
        want = np.linalg.det(a)
        bound = 16 * n * n * np.finfo(float).eps * np.linalg.cond(a) ** (n - 1) * abs(want)
        assert abs(_matrix_det(a) - want) <= bound

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("fault, error, message", [
        ("nan", NonFiniteValue, "matrix entries must be finite"),
        ("fold", NonPositiveDeterminant, "determinant must be positive (min -2.000000e+00)"),
        ("singular", NonPositiveDeterminant, "determinant must be positive (min 0.000000e+00)"),
        ("inf_det", NonFiniteValue, "determinant overflows the float range"),
        ("nan_det", NonFiniteValue, "determinant overflows the float range"),
        ("inf_norm", NonFiniteValue, "|J|^2 overflows the float range"),
    ])
    def test_both_arms_raise_alike(self, n, fault, error, message):
        # nan_det: every product of the all-1e200 matrix overflows, and
        # inf - inf is NaN; under the RuntimeWarning filter neither arm warns
        j = {"nan": np.where(np.eye(n) > 0, 1.0, np.nan), "fold": np.diag([-2.0] + [1.0] * (n - 1)),
             "singular": np.diag([0.0] + [1.0] * (n - 1)), "inf_det": np.diag([1e200, 2e200, 3e200, 4e200][:n]),
             "nan_det": np.full((n, n), 1e200), "inf_norm": np.diag([1e200, 1e-200, 1.0, 1.0][:n])}[fault]
        stack = np.stack([np.eye(n), j])
        rows = [lambda row=row: _sg_one(j.ravel().tolist(), row) for row in range(n)]
        for call in (lambda: _sg_one(j.ravel().tolist()), lambda: _checked(j), lambda: _checked(stack),
                     lambda: _dilation_field(j), lambda: _dilation_field(stack), *rows):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_overflowing_norm_is_named(self, n):
        # det 1 but |J|^2 = 1e400: K was inf and the field's entries NaN
        j = np.diag([1e200, 1e-200] + [1.0] * (n - 2))
        for m in (j, np.stack([np.eye(n), j])):
            for call in (_checked, trace_dilation, _dilation_field):
                with pytest.raises(NonFiniteValue, match=r"^\|J\|\^2 overflows the float range$"):
                    call(m)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_overflowing_determinant_is_named(self, n):
        # finite entries whose det overflows: not a bare RuntimeWarning, and
        # not "matrix entries must be finite"
        j = np.diag([1e200, 2e200, 3e200, 4e200][:n])
        for m in (j, np.stack([np.eye(n), j])):
            with pytest.raises(NonFiniteValue, match="^determinant overflows the float range$"):
                analyze(m)


class TestDilationField:
    def test_matches_s_g_route(self):
        # closed form against ahlfors(distortion_tensor(J)) @ inv(J)^T;
        # relative tolerance fixed beforehand at 1e-12
        rng = np.random.default_rng(29)
        for n in (2, 3, 4):
            for j in random_spd_jacobians(rng, n, 150):
                k, field = _dilation_field(j)
                ref = ahlfors(distortion_tensor(j)) @ np.linalg.inv(j).T
                assert np.max(np.abs(field - ref)) <= 1e-12 * np.max(np.abs(ref))
                assert k == trace_dilation(j)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(31)
        mats = np.array(random_spd_jacobians(rng, 3, 12)).reshape(3, 4, 3, 3)
        k, field = _dilation_field(mats)
        for idx in np.ndindex(3, 4):
            k1, f1 = _dilation_field(mats[idx])
            assert k[idx] == pytest.approx(k1, rel=1e-13)
            np.testing.assert_allclose(field[idx], f1, rtol=0, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]),
           count=st.integers(1, 9), form=st.sampled_from(sorted(STACK_FORMS)))
    def test_stack_rows_match_single_calls_bitwise(self, seed, n, count, form):
        # one matrix takes the float branch, a stack of them
        # the kernel on node arrays; exact +-0.0 entries, integers and a
        # transposed view (whose |J|^2 numpy sums in memory order) reach both
        rng = np.random.default_rng(seed)
        mats = STACK_FORMS[form](rng, n, count)
        k, field = _dilation_field(mats)
        assert k.tobytes() == trace_dilation(mats).tobytes()
        for i, j in enumerate(mats):
            k1, f1 = _dilation_field(j)
            assert k1.tobytes() == k[i].tobytes() == trace_dilation(j).tobytes()
            assert f1.tobytes() == field[i].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("fault", ["nan", "inf", "fold", "shape"])
    def test_float_branch_raises_as_the_array_branch(self, n, fault):
        j = np.eye(n)
        if fault == "nan":
            j[0, 1] = np.nan
        elif fault == "inf":
            j[n - 1, n - 1] = -np.inf
        elif fault == "fold":
            j[0, 0] = -2.0
        else:
            j = np.ones((n, n + 1))
        with pytest.raises(QcflowError if fault != "shape" else ValueError) as want:
            trace_dilation(j)  # the array branch's _checked
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            _dilation_field(j)
        if fault in ("nan", "inf"):
            assert str(want.value) == "matrix entries must be finite"
        elif fault == "fold":
            assert str(want.value) == "determinant must be positive (min -2.000000e+00)"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_matrix_takes_no_errstate(self, monkeypatch, n):
        # floats never warn: one matrix gives its stack-of-one row's bits and errors,
        # with nsq and det as Python floats, and never enters np.errstate
        rng = np.random.default_rng(n)
        mats = [random_posdet(rng, n), np.diag([1e200] * n),
                np.diag([1e200, 1e-200, 1.0, 1.0][:n]), np.diag([-1.0] + [1.0] * (n - 1)),
                np.full((n, n), 1e200), np.diag([1e150] * n)]
        stacked = []
        for j in mats:
            try:
                stacked.append(_sg_field(j[None]))
            except QcflowError as exc:
                stacked.append(exc)

        def refused(**kwargs):
            raise AssertionError("np.errstate entered")

        monkeypatch.setattr(np, "errstate", refused)
        for j, want in zip(mats, stacked):
            if isinstance(want, Exception):
                with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
                    _sg_field(j)
                continue
            field, nsq, det = _sg_field(j)
            assert type(nsq) is float and type(det) is float
            assert field.tobytes() == want[0][0].tobytes()
            assert np.float64(nsq).tobytes() == want[1][0].tobytes()
            assert np.float64(det).tobytes() == want[2][0].tobytes()

    def test_folded_rejected(self):
        with pytest.raises(NonPositiveDeterminant, match="determinant must be positive"):
            _dilation_field(np.diag([1.0, -1.0, 1.0]))

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteValue):
            _dilation_field(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestTraceDilation:
    def test_identity_2d(self):
        assert trace_dilation(np.eye(2)) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_diag_two_half(self):
        k = trace_dilation(np.diag([2.0, 0.5]))
        assert k == pytest.approx(math.sqrt(17.0) / 2.0, rel=1e-14)
        assert k == pytest.approx(2.06155, abs=5e-6)

    def test_floor_sqrt_n(self):
        # K >= sqrt(n) with equality only at conformal arguments.
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            for j in random_spd_jacobians(rng, n, 60):
                assert trace_dilation(j) >= math.sqrt(n) - 1e-12

    def test_scale_invariant(self):
        rng = np.random.default_rng(5)
        for j in random_spd_jacobians(rng, 3, 20):
            assert trace_dilation(4.7 * j) == pytest.approx(trace_dilation(j), rel=1e-12)

    def test_rejects_nonpositive_det(self):
        with pytest.raises(NonPositiveDeterminant):
            trace_dilation(np.diag([1.0, -1.0]))
        with pytest.raises(NonPositiveDeterminant):
            trace_dilation(np.zeros((2, 2)))


class TestDistortionTensor:
    def test_rotation_gives_identity(self):
        c, s = math.cos(0.7), math.sin(0.7)
        r = np.array([[c, -s], [s, c]])
        np.testing.assert_allclose(distortion_tensor(r), np.eye(2), atol=1e-14)

    def test_radial_alpha2_at_e1(self):
        j = radial_stretch(2.0, 3).jacobian([1.0, 0.0, 0.0])
        expected = np.diag([4.0, 1.0, 1.0]) / 2.0 ** (2.0 / 3.0)
        np.testing.assert_allclose(distortion_tensor(j), expected, atol=1e-13)

    def test_unit_det_and_spd(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            for j in random_spd_jacobians(rng, n, 40):
                g = distortion_tensor(j)
                assert np.linalg.det(g) == pytest.approx(1.0, rel=1e-11)
                np.testing.assert_allclose(g, g.T, atol=1e-12 * hs_norm(g))
                assert np.min(np.linalg.eigvalsh(g)) > 0.0


class TestAhlfors:
    def test_identity_maps_to_zero(self):
        np.testing.assert_array_equal(ahlfors(np.eye(3)), np.zeros((3, 3)))

    def test_antisymmetric_maps_to_zero(self):
        a = np.array([[0.0, 2.0], [-2.0, 0.0]])
        np.testing.assert_allclose(ahlfors(a), np.zeros((2, 2)), atol=1e-15)

    def test_diag_two_zero(self):
        np.testing.assert_allclose(ahlfors(np.diag([2.0, 0.0])), np.diag([1.0, -1.0]))

    def test_output_symmetric_trace_free(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            for _ in range(30):
                m = rng.standard_normal((n, n))
                s = ahlfors(m)
                assert abs(np.trace(s)) <= 1e-12 * (1.0 + hs_norm(m))
                np.testing.assert_allclose(s, s.T, atol=1e-13 * (1.0 + hs_norm(m)))

    def test_linear(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            ahlfors(2.0 * a - 3.0 * b), 2.0 * ahlfors(a) - 3.0 * ahlfors(b), atol=1e-12
        )


class TestPlaneNormIdentity:
    """In two dimensions |S(g)|^2 is a function of K alone."""

    def test_exact_relation(self):
        rng = np.random.default_rng(19)
        for j in random_spd_jacobians(rng, 2, 200):
            rep = analyze(j)
            expected = (rep.K**4 - 4.0) / 2.0
            assert rep.SgNormSq == pytest.approx(expected, abs=1e-10 * (1.0 + rep.K**4))

    def test_ceiling_every_dimension(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4):
            for j in random_spd_jacobians(rng, n, 80):
                rep = analyze(j)
                ceiling = rep.K**4 * (1.0 - 1.0 / n)
                assert rep.SgNormSq <= ceiling * (1.0 + 1e-12)

    def test_trace_form(self):
        # |S(g)|^2 = tr(g^2) - tr(g)^2/n, with g the distortion tensor.
        rng = np.random.default_rng(29)
        for n in (2, 3):
            for j in random_spd_jacobians(rng, n, 50):
                g = distortion_tensor(j)
                rep = analyze(j)
                expected = np.trace(g @ g) - np.trace(g) ** 2 / n
                assert rep.SgNormSq == pytest.approx(expected, rel=1e-10)


class TestAnalyze:
    def test_inversion_at_e1_is_conformal(self):
        inv = moebius("inversion", {"n": 3})
        rep = analyze(inv.jacobian([1.0, 0.0, 0.0]))
        assert rep.K == pytest.approx(math.sqrt(3.0), rel=1e-12)
        np.testing.assert_allclose(rep.Sg, np.zeros((3, 3)), atol=1e-12)
        assert rep.conformal

    def test_generic_jacobian_not_conformal(self):
        rep = analyze(np.diag([2.0, 0.5]))
        assert not rep.conformal
        assert rep.SgNormSq > 1.0

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(31)
        for j in random_spd_jacobians(rng, 3, 20):
            rep = analyze(j)
            assert rep.K == pytest.approx(trace_dilation(j), rel=1e-14)
            np.testing.assert_allclose(rep.g, distortion_tensor(j), atol=1e-13)
            np.testing.assert_allclose(rep.Sg, ahlfors(rep.g), atol=1e-13)
            assert rep.SgNormSq == pytest.approx(hs_norm(rep.Sg) ** 2, rel=1e-12)

    def test_stack_matches_single_calls(self):
        # LAPACK's batched and single determinants differ in the last bits
        rng = np.random.default_rng(43)
        for n in (2, 3, 4):
            mats = np.stack([random_posdet(rng, n) for _ in range(6)] + [2.0 * np.eye(n)])
            rep = analyze(mats)
            assert rep.K.shape == rep.SgNormSq.shape == rep.conformal.shape == (7,)
            assert rep.conformal[-1] and not rep.conformal[0]
            for k, j in enumerate(mats):
                one = analyze(j)
                assert rep.K[k] == pytest.approx(one.K, rel=1e-13)
                np.testing.assert_allclose(rep.g[k], one.g, rtol=1e-13, atol=1e-13)
                np.testing.assert_allclose(rep.Sg[k], one.Sg, rtol=1e-13, atol=1e-13)
                assert rep.SgNormSq[k] == pytest.approx(one.SgNormSq, rel=1e-13, abs=1e-26)
                assert rep.conformal[k] == one.conformal


class TestFactoringResidual:
    def test_500_random_jacobians(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 4):
            count = {2: 200, 3: 200, 4: 100}[n]
            for j in random_spd_jacobians(rng, n, count):
                bound = 1e-10 * (1.0 + hs_norm(np.linalg.inv(j)))
                assert factoring_residual(j) <= bound

    def test_scaled_jacobians(self):
        # Tolerance scales with |J^{-1}| so extreme magnitudes stay testable.
        rng = np.random.default_rng(41)
        for j in random_spd_jacobians(rng, 3, 30):
            for c in (1e6, 1e-6):
                bound = 1e-10 * (1.0 + hs_norm(np.linalg.inv(c * j)))
                assert factoring_residual(c * j) <= bound


# Property tests of the closed-form identities. Each example draws a seed,
# a dimension and a spread; random_posdet keeps det J > 0.05. Tolerances
# were fixed before the tests were first run.
SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.sampled_from([2, 3, 4])
SPREADS = st.floats(0.05, 1.0)


class TestIdentityProperties:
    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS, n=DIMS, spread=SPREADS)
    def test_dilation_floor(self, seed, n, spread):
        j = random_posdet(np.random.default_rng(seed), n, spread)
        assert trace_dilation(j) >= math.sqrt(n) * (1.0 - 1e-14)

    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS, n=DIMS, spread=SPREADS)
    def test_distortion_ceiling(self, seed, n, spread):
        rep = analyze(random_posdet(np.random.default_rng(seed), n, spread))
        assert rep.SgNormSq <= rep.K**4 * (1.0 - 1.0 / n) * (1.0 + 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS, n=DIMS, spread=SPREADS)
    def test_adjugate_times_matrix_is_det(self, seed, n, spread):
        rng = np.random.default_rng(seed)
        mats = np.stack([random_posdet(rng, n, spread) for _ in range(4)])
        det, adj = _matrix_det(mats), np.moveaxis(_adjugate(np.moveaxis(mats, 0, -1)), -1, 0)
        atol = 1e-13 * float(np.max(hs_norm(mats))) ** n
        np.testing.assert_allclose(det, np.linalg.det(mats), rtol=0, atol=atol)
        np.testing.assert_allclose(adj @ mats, det[:, None, None] * np.eye(n), rtol=0, atol=atol)

    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS, n=DIMS, spread=SPREADS)
    def test_closed_form_field_matches_s_g_route(self, seed, n, spread):
        # both terms of the closed form are at most K^2 |J^{-1}| in size
        j = random_posdet(np.random.default_rng(seed), n, spread)
        k, field = _dilation_field(j)
        ref = ahlfors(distortion_tensor(j)) @ np.linalg.inv(j).T
        assert np.max(np.abs(field - ref)) <= 1e-12 * k**2 * hs_norm(np.linalg.inv(j))
        assert k == trace_dilation(j)

    @settings(max_examples=50, deadline=None)
    @given(seed=SEEDS, n=DIMS, spread=SPREADS)
    def test_post_composition_keeps_dilation(self, seed, n, spread):
        rng = np.random.default_rng(seed)
        u = affine_map(random_posdet(rng, n, spread), rng.uniform(-0.5, 0.5, size=n))
        word = random_moebius(n, rng)
        x = rng.uniform(-0.5, 0.5, size=n)
        ku = trace_dilation(u.jacobian(x))
        assert abs(trace_dilation(compose(word, u).jacobian(x)) - ku) <= 1e-9 * (1.0 + ku)

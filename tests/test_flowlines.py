"""Row fields, hysteresis switching, and integrated flow lines."""

import math

import numpy as np
import pytest

from qcflow import (
    AllRowsDegenerate,
    GuardViolation,
    RowSwitched,
    StepFailure,
    ahlfors,
    distortion_tensor,
    trace_dilation,
)
from qcflow.flowlines import (
    ball_domain,
    du_recovery_check,
    flow_field,
    path_integral_residual,
    select_row,
    trace_flowline,
)
from qcflow.maps import (
    SmoothMap,
    affine_map,
    compose,
    identity_map,
    moebius,
    polynomial_map,
    radial_stretch,
    teichmuller_example,
    teichmuller_map,
)
from qcflow.tensor import _dilation_field
from qcflow.verify import pathwise_derivative_pairs


def make_teichmuller(n=2):
    """Conformal-sandwiched affine map, smooth on the unit ball."""
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
    return teichmuller_map(psi, mid, phi)


class TestFlowField:
    def test_identity_is_zero(self):
        f = flow_field(identity_map(3), [0.3, 0.2, -0.1])
        np.testing.assert_allclose(f, np.zeros((3, 3)), atol=1e-14)

    def test_conformal_is_zero(self):
        inv = moebius("inversion", {"n": 2})
        f = flow_field(inv, [0.6, 0.3])
        np.testing.assert_allclose(f, np.zeros((2, 2)), atol=1e-12)

    def test_radial_value_at_e1(self):
        # S(g) = diag(2,-1,-1)/2^(2/3) and J^{-T} = diag(1/2,1,1) there
        f = flow_field(radial_stretch(2.0, 3), [1.0, 0.0, 0.0])
        expected = np.diag([1.0, -1.0, -1.0]) / 2.0 ** (2.0 / 3.0)
        np.testing.assert_allclose(f, expected, atol=1e-13)


class TestSelectRow:
    def test_single_live_row(self):
        field = np.zeros((3, 3))
        field[1] = [0.0, 0.4, 0.1]
        assert select_row(field) == 2

    def test_hysteresis_keeps_current(self):
        field = np.array([[0.6, 0.0], [1.0, 0.0]])
        # row 1 is above half the strongest row, so it is kept
        assert select_row(field, current=1) == 1
        assert select_row(field) == 2

    def test_switches_below_threshold(self):
        field = np.array([[0.3, 0.0], [1.0, 0.0]])
        assert select_row(field, current=1) == 2

    def test_norm_floor_random_fields(self):
        rng = np.random.default_rng(307)
        for n in (2, 3, 4):
            for _ in range(100):
                field = rng.standard_normal((n, n))
                row = select_row(field)
                norms = np.linalg.norm(field, axis=1)
                assert norms[row - 1] == np.max(norms)
                assert norms[row - 1] >= np.sqrt(np.sum(field**2)) / n**2

    def test_kept_row_keeps_norm_floor(self):
        rng = np.random.default_rng(311)
        for _ in range(200):
            field = rng.standard_normal((3, 3))
            current = int(rng.integers(1, 4))
            row = select_row(field, current=current)
            norms = np.linalg.norm(field, axis=1)
            assert norms[row - 1] >= np.sqrt(np.sum(field**2)) / 9.0

    def test_degenerate_field_raises(self):
        with pytest.raises(AllRowsDegenerate):
            select_row(np.zeros((2, 2)))

    def test_bad_current_raises(self):
        with pytest.raises(ValueError):
            select_row(np.eye(2), current=5)


class TestTraceFlowline:
    def test_conformal_start_degenerates(self):
        inv = moebius("inversion", {"n": 2})
        traj = trace_flowline(inv, [0.5, 0.2], ds=1e-3, max_len=1.0)
        assert traj.terminated == "degenerate"
        assert len(traj) == 1

    def test_dilation_constant_on_solution_map(self):
        m = make_teichmuller(2)
        traj = trace_flowline(m, [0.1, -0.2], ds=1e-3, max_len=1.0)
        drift = np.max(np.abs(traj.K - traj.K[0]))
        assert drift <= 1e-6

    def test_starts_with_dilation_above_floor(self):
        m = make_teichmuller(2)
        assert trace_dilation(m.jacobian([0.1, -0.2])) > math.sqrt(2.0) + 0.01

    def test_never_degenerates_inside(self):
        # dilation stays above the conformal floor, so the field cannot die
        m = make_teichmuller(2)
        rng = np.random.default_rng(313)
        for _ in range(10):
            x0 = rng.uniform(-0.4, 0.4, size=2)
            traj = trace_flowline(m, x0, ds=1e-3, max_len=2.0)
            assert traj.terminated in ("boundary", "maxLength")

    def test_boundary_bisection_accuracy(self):
        m = make_teichmuller(2)
        traj = trace_flowline(m, [0.7, 0.0], ds=1e-3, max_len=5.0,
                              domain=ball_domain(0.8))
        assert traj.terminated == "boundary"
        assert abs(np.linalg.norm(traj.x[-1]) - 0.8) <= 1e-9

    def test_step_size_bound(self):
        m = make_teichmuller(2)
        traj = trace_flowline(m, [0.1, 0.1], ds=1e-3, max_len=0.5)
        steps = np.linalg.norm(np.diff(traj.x, axis=0), axis=1)
        max_speed = np.max(traj.speed)
        assert np.all(steps <= max_speed * 1e-3 * 1.05)

    def test_row_column_valid(self):
        m = polynomial_map(2, seed=9, amplitude=0.06)
        traj = trace_flowline(m, [0.2, -0.1], ds=1e-3, max_len=0.5)
        assert np.all((traj.row >= 1) & (traj.row <= 2))
        assert traj.s[0] == 0.0
        assert np.all(np.diff(traj.s) > 0.0)

    def test_outside_start_rejected(self):
        with pytest.raises(ValueError):
            trace_flowline(identity_map(2), [2.0, 0.0])

    @pytest.mark.parametrize("ds", [0.0, -1e-3, math.nan, math.inf])
    def test_bad_step_rejected(self, ds):
        # ds = 0 never advances and ds < 0 walks backwards
        m = affine_map([[1.4, 0.2], [0.1, 0.8]])
        with pytest.raises(ValueError, match="ds must be a positive finite number"):
            trace_flowline(m, [0.1, 0.05], ds=ds)

    @pytest.mark.parametrize("max_len", [0.0, -1.0, math.nan, math.inf])
    def test_bad_length_cap_rejected(self, max_len):
        # a non-positive or NaN cap would end the walk at its start as maxLength
        m = affine_map([[1.4, 0.2], [0.1, 0.8]])
        with pytest.raises(ValueError, match="max_len must be a positive finite number"):
            trace_flowline(m, [0.1, 0.05], max_len=max_len)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_bad_ball_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be a positive finite number"):
            ball_domain(radius)

    @pytest.mark.parametrize("k", [1, 7])
    def test_field_vanishing_midway_ends_degenerate(self, monkeypatch, k):
        # from the k-th sample on the field is zero: the walk records that
        # sample with the row and sign it arrived with, and stops there
        m = polynomial_map(2, seed=3, amplitude=0.06)  # its line runs on row 2
        plain = trace_flowline(m, [0.2, -0.1], ds=1e-3, max_len=0.05)
        calls = []

        def vanishing(j):
            k_val, field = _dilation_field(j)
            calls.append(1)
            # sample k is call 4k: one per sample and three per RK4 step
            return k_val, (0.0 * field if len(calls) > 4 * k else field)

        monkeypatch.setattr("qcflow.flowlines._dilation_field", vanishing)
        traj = trace_flowline(m, [0.2, -0.1], ds=1e-3, max_len=0.05)
        assert traj.terminated == "degenerate" and len(traj) == k + 1
        assert traj.speed[-1] == 0.0
        for name in ("s", "x", "K", "row", "sign"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(plain, name)[: k + 1])
        np.testing.assert_array_equal(traj.speed[:-1], plain.speed[:k])

    def test_degenerate_sample_keeps_a_flipped_sign(self, monkeypatch):
        # sample 1 switches to row 2, which points against the previous
        # velocity, so the sign flips; sample 2 sees a zero field
        fields = [np.array([[1.0, 0.0], [0.0, 0.1]]), np.array([[0.1, 0.0], [-1.0, 0.0]]),
                  np.zeros((2, 2))]
        calls = []

        def scripted(j):
            calls.append(1)
            return math.sqrt(2.0), fields[min((len(calls) - 1) // 4, 2)]

        monkeypatch.setattr("qcflow.flowlines._dilation_field", scripted)
        traj = trace_flowline(identity_map(2), [0.1, 0.0], ds=1e-2, max_len=1.0)
        assert traj.terminated == "degenerate"
        assert traj.row.tolist() == [1, 2, 2]
        assert traj.sign.tolist() == [1.0, -1.0, -1.0]
        assert traj.speed.tolist() == [1.0, 1.0, 0.0]

    def test_one_determinant_per_sample(self, monkeypatch):
        # the start sample, the accepted point and the three later RK4
        # stages each take one determinant, for K and the field together
        calls = []
        det = np.linalg.det

        def counted(a):
            calls.append(1)
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counted)
        m = affine_map([[1.3, 0.2], [-0.1, 0.8]])
        traj = trace_flowline(m, [0.1, 0.05], ds=1e-2, max_len=0.2)
        steps = len(traj) - 1
        assert traj.terminated == "maxLength" and steps == 20
        assert len(calls) == 1 + 4 * steps

    @pytest.mark.parametrize("n", [2, 3])
    def test_composition_checks_only_its_affine_factor(self, monkeypatch, n):
        # per sample one determinant for K and the field and one for the
        # affine middle factor; the conformal words are not sign-checked
        calls = []
        det = np.linalg.det

        def counted(a):
            calls.append(1)
            return det(a)

        m = teichmuller_example(n)
        monkeypatch.setattr(np.linalg, "det", counted)
        traj = trace_flowline(m, [0.1, 0.05, -0.05][:n], ds=1e-3, max_len=0.02)
        steps = len(traj) - 1
        assert traj.terminated == "maxLength" and steps == 20
        assert len(calls) == 2 * (1 + 4 * steps)

    @pytest.mark.parametrize("composed", [False, True], ids=["guarded", "guarded_factor"])
    def test_stage_outside_guard_raises_step_failure(self, composed):
        # the map is defined only on a small disk around the start, and the
        # step is long enough that the midpoint stage lands outside it
        base = affine_map([[1.4, 0.2], [0.1, 0.8]])
        x0 = np.array([0.1, 0.05])
        radius = 0.01

        def jet_fn(x, order):
            if np.linalg.norm(x - x0) > radius:
                raise GuardViolation("outside the sampling disk")
            return base.jet_fn(x, order)

        m = SmoothMap(n=2, jet_fn=jet_fn)
        if composed:
            m = compose(m, identity_map(2))
        speed = float(np.max(np.linalg.norm(flow_field(m, x0), axis=1)))
        ds = 4.0 * radius / speed
        with pytest.raises(StepFailure) as info:
            trace_flowline(m, x0, ds=ds, max_len=1.0)
        assert isinstance(info.value.__cause__, GuardViolation)

    def test_pathwise_derivative_identity(self):
        # dK/ds along the curve equals the factored-operator formula
        m = polynomial_map(2, seed=9, amplitude=0.06)
        traj = trace_flowline(m, [0.2, -0.1], ds=2e-4, max_len=0.3)
        pairs = pathwise_derivative_pairs(m, traj)
        assert len(pairs) > 100
        formula_scale = max(abs(f) for _, f in pairs)
        floor = max(0.05 * formula_scale, 1e-12)
        for fd, formula in pairs:
            assert abs(fd - formula) <= 1e-5 * max(abs(formula), floor)


class TestCsvOutput:
    def test_round_trip_values(self):
        m = make_teichmuller(2)
        traj = trace_flowline(m, [0.1, -0.2], ds=1e-3, max_len=0.1)
        text = traj.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "s,x1,x2,K,row,speed"
        assert len(lines) == len(traj) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == traj.K[0]

    def test_write_csv(self, tmp_path):
        m = make_teichmuller(2)
        traj = trace_flowline(m, [0.1, -0.2], ds=1e-3, max_len=0.05)
        path = tmp_path / "line.csv"
        traj.write_csv(path)
        assert path.read_text() == traj.to_csv_text()


class TestDriftIdentities:
    def test_affine_both_sides_zero(self):
        m = affine_map([[1.4, 0.2], [0.1, 0.8]])
        traj = trace_flowline(m, [0.0, 0.0], ds=1e-3, max_len=0.4)
        row = int(traj.row[0])
        assert np.all(traj.row == row)
        assert du_recovery_check(m, traj, row) <= 1e-12
        assert path_integral_residual(m, traj, row) <= 1e-12

    def test_fundamental_theorem_residual_small(self):
        m = polynomial_map(2, seed=9, amplitude=0.06)
        traj = trace_flowline(m, [0.2, -0.1], ds=1e-3, max_len=0.2)
        row = int(traj.row[0])
        if np.all(traj.row == row) and np.all(traj.sign == traj.sign[0]):
            assert path_integral_residual(m, traj, row) <= 1e-5

    def test_recovery_integrand_is_k_grad_k(self):
        # du_recovery_check integrates F . H; K grad K from the S(g) route
        # must give the same residual
        m = polynomial_map(2, seed=9, amplitude=0.06)
        traj = trace_flowline(m, [0.2, -0.1], ds=1e-3, max_len=0.2)
        row = int(traj.row[0])
        assert np.all(traj.row == row)
        jets = [m.jet(x) for x in traj.x]
        integrand = np.array([
            np.einsum("kl,kjl->j",
                      ahlfors(distortion_tensor(j.J)) @ np.linalg.inv(j.J).T, j.H)
            for j in jets
        ])
        drift = jets[-1].J[row - 1] - jets[0].J[row - 1]
        expected = np.max(np.abs(drift - np.trapezoid(integrand, traj.s, axis=0)))
        assert expected > 1e-6
        assert du_recovery_check(m, traj, row) == pytest.approx(expected, rel=1e-9)

    def test_row_switch_rejected(self):
        m = affine_map([[1.4, 0.2], [0.1, 0.8]])
        traj = trace_flowline(m, [0.0, 0.0], ds=1e-3, max_len=0.3)
        other = 1 + int(traj.row[0]) % 2
        with pytest.raises(RowSwitched):
            du_recovery_check(m, traj, other)

    def test_row_switch_rejected_by_path_integral(self):
        m = affine_map([[1.4, 0.2], [0.1, 0.8]])
        traj = trace_flowline(m, [0.0, 0.0], ds=1e-3, max_len=0.3)
        row = int(traj.row[0])
        traj.row[len(traj) // 2:] = 1 + row % 2
        with pytest.raises(RowSwitched, match="trajectory changed active row"):
            path_integral_residual(m, traj, row)

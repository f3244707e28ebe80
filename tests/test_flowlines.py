"""Row fields, hysteresis switching, and integrated flow lines."""

import math
import re

import numpy as np
import pytest
from conftest import count_determinants
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    chained_map,
    path_integral_residual,
    pathwise_derivative_pairs,
    trace_flowline_arrays,
)

from qcflow import (
    AllRowsDegenerate,
    GuardViolation,
    QcflowError,
    RowSwitched,
    StepFailure,
    ahlfors,
    distortion_tensor,
    trace_dilation,
)
from qcflow.flowlines import (
    _sample_field,
    ball_domain,
    du_recovery_check,
    flow_field,
    select_row,
    trace_flowline,
)
from qcflow.maps import (
    SmoothMap,
    affine_map,
    compose,
    identity_map,
    make_map,
    map_ids,
    moebius,
    polynomial_map,
    radial_stretch,
    teichmuller_example,
    teichmuller_map,
)


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

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 2)])
    def test_non_matrix_field_raises(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"field must be a matrix, got shape {shape}")):
            select_row(np.ones(shape))

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

    @pytest.mark.parametrize("x0, shown", [
        ([[0.1, 0.1]], "[[0.1, 0.1]]"),
        ([0.1, 0.1, 0.1], "[0.1, 0.1, 0.1]"),
        ([math.nan, 0.1], "[nan, 0.1]"),
        ([0.1, -math.inf], "[0.1, -inf]"),
    ], ids=["stacked", "too_long", "nan", "inf"])
    def test_bad_start_point_rejected(self, x0, shown):
        # a stacked start used to fail as a bare IndexError, and a NaN one
        # passed the domain check and failed inside the map
        with pytest.raises(ValueError, match=re.escape(
                f"x0 must be a finite point of shape (2,), got {shown}")):
            trace_flowline(make_teichmuller(2), x0)

    def test_jacobian_of_the_wrong_shape_rejected(self):
        # a 3x3 J for a 2-dimensional map used to reach the RK4 sums and
        # fail there as a broadcasting error
        base = affine_map([[1.4, 0.2, 0.0], [0.1, 0.8, 0.0], [0.0, 0.0, 1.0]])
        m = SmoothMap(n=2, jet_fn=lambda x, order: base.jet_fn(np.append(x, 0.0), order))
        with pytest.raises(ValueError, match=re.escape(
                "jacobian shape (3, 3) at one point does not match n=2")):
            trace_flowline(m, [0.1, 0.05])

    @pytest.mark.parametrize("n", [1, 5])
    def test_dimension_outside_the_kernel_rejected(self, n):
        # maps allow these, the field's kernel does not
        m = identity_map(1) if n == 1 else make_map("polynomial", n=5, seed=1)
        with pytest.raises(ValueError, match=re.escape(f"dimension {n} outside supported range 2..4")):
            trace_flowline(m, [0.1, 0.2, 0.1, -0.1, 0.0][:n])

    def test_nan_domain_predicate_rejected_at_the_start(self):
        with pytest.raises(ValueError, match=re.escape("domain predicate is NaN at [0.1, 0.2]")):
            trace_flowline(make_teichmuller(2), [0.1, 0.2], domain=lambda x: math.nan)

    def test_nan_domain_predicate_rejected_during_the_walk(self):
        # NaN once the line leaves x1 < 0.15: it used to count as inside
        # and run the walk on to max_len
        calls = []

        def predicate(x):
            calls.append(x.copy())
            return -1.0 if x[0] < 0.15 else math.nan

        m = affine_map([[1.4, 0.2], [0.1, 0.8]])
        with pytest.raises(ValueError, match=r"^domain predicate is NaN at \[0\.15"):
            trace_flowline(m, [0.1, 0.05], ds=1e-2, max_len=1.0, domain=predicate)
        assert all(isinstance(x, np.ndarray) and x.shape == (2,) for x in calls)
        assert 1 < len(calls) < 20

    def test_nan_domain_predicate_rejected_inside_a_chord(self):
        # positive at the end of step 4 and NaN in a band about the middle
        # of its chord: the boundary search's first halving lands in the
        # band and names that point, at which no step ends
        m = affine_map([[1.4, 0.2], [0.1, 0.8]])
        plain = trace_flowline(m, [0.1, 0.05], ds=1e-2, max_len=0.1)
        here, end = plain.x[3], plain.x[4]
        mid = here + 0.5 * (end - here)

        def predicate(x):
            return -1.0 if x[0] < mid[0] - 1e-4 else math.nan if x[0] < mid[0] + 1e-4 else 1.0

        with pytest.raises(ValueError, match=re.escape(
                f"domain predicate is NaN at {mid.tolist()!r}")):
            trace_flowline(m, [0.1, 0.05], ds=1e-2, max_len=0.1, domain=predicate)
        assert not any(np.array_equal(mid, x) for x in plain.x)

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

        def vanishing(mapping, y, row=None):
            # every sample takes the field from _sample_field, and every
            # RK4 stage its active row
            field, *rest = _sample_field(mapping, y, row)
            calls.append(1)
            # sample k is call 4k: one per sample and three per RK4 step
            if len(calls) > 4 * k:
                field = [0.0 * v for v in field]
            return field, *rest

        monkeypatch.setattr("qcflow.flowlines._sample_field", vanishing)
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

        def scripted(mapping, y, row=None):
            calls.append(1)
            # |J|^2 = 2 and det J = 1 give K = sqrt(2); a stage reads its row
            field = fields[min((len(calls) - 1) // 4, 2)]
            return (field.ravel() if row is None else field[row]).tolist(), 2.0, 1.0

        monkeypatch.setattr("qcflow.flowlines._sample_field", scripted)
        traj = trace_flowline(identity_map(2), [0.1, 0.0], ds=1e-2, max_len=1.0)
        assert traj.terminated == "degenerate"
        assert traj.row.tolist() == [1, 2, 2]
        assert traj.sign.tolist() == [1.0, -1.0, -1.0]
        assert traj.speed.tolist() == [1.0, 1.0, 0.0]

    def test_one_determinant_per_sample(self, monkeypatch):
        # the start sample, the accepted point and the three later RK4
        # stages each take one determinant, the kernel's, for K and the
        # field together, and none of them LAPACK's
        calls = count_determinants(monkeypatch)
        m = affine_map([[1.3, 0.2], [-0.1, 0.8]])
        traj = trace_flowline(m, [0.1, 0.05], ds=1e-2, max_len=0.2)
        steps = len(traj) - 1
        assert traj.terminated == "maxLength" and steps == 20
        assert calls == [2] * (1 + 4 * steps)

    @pytest.mark.parametrize("n", [2, 3])
    def test_composition_checks_only_its_affine_factor(self, monkeypatch, n):
        # per sample one kernel determinant for K and the field, and one
        # for the affine middle factor's constant J at the composite's first
        # sample; the conformal words are not sign-checked
        m = teichmuller_example(n)
        calls = count_determinants(monkeypatch)
        traj = trace_flowline(m, [0.1, 0.05, -0.05][:n], ds=1e-3, max_len=0.02)
        steps = len(traj) - 1
        assert traj.terminated == "maxLength" and steps == 20
        assert calls == [n] * ((1 + 4 * steps) + 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_folded_composition_traces_like_the_chain_oracle(self, n):
        # the fold changes no bit of the walk: every recorded field of a
        # line equals the trace over the plain chain fold of the same factors
        m = teichmuller_example(n)
        starts = ([0.3, -0.2], [-0.1, 0.45], [0.05, 0.02]) if n == 2 else \
            ([0.3, -0.2, 0.1], [-0.1, 0.4, -0.25], [0.02, 0.05, -0.03])
        for x0 in starts:
            got = trace_flowline(m, x0, ds=1e-3, max_len=0.15)
            want = trace_flowline(chained_map(m), x0, ds=1e-3, max_len=0.15)
            assert got.terminated == want.terminated
            for name in ("s", "x", "K", "row", "speed", "sign"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("composed", [False, True], ids=["guarded", "guarded_factor"])
    def test_stage_outside_guard_raises_step_failure(self, composed):
        # the map is defined only on a small disk around the start, and the
        # step is long enough that the midpoint stage lands outside it
        x0 = np.array([0.1, 0.05])
        radius = 0.01
        m = _guarded_map(x0, radius)
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


# parameters of every registry map at n = 2 and 3; polynomial also runs at n = 4
_MAP_PARAMS = {
    "radial_stretch": lambda n: {"alpha": 2.0, "n": n},
    "wedge": lambda n: {"alpha": 2.0, "n": n},
    "rotation": lambda n: {"n": 2, "angle": 0.4} if n == 2 else {"axis": [0.3, -1.0, 0.7],
                                                                  "angle": 0.8},
    "dilation": lambda n: {"n": n, "scale": 1.7},
    "translation": lambda n: {"offset": [0.3, -0.2, 0.1][:n]},
    "inversion": lambda n: {"n": n},
    "affine": lambda n: {"matrix": [[1.3, 0.2], [-0.1, 0.8]] if n == 2 else
                         [[1.3, 0.2, 0.0], [-0.1, 0.9, 0.3], [0.0, 0.2, 1.1]], "offset": [0.1] * n},
    "polynomial": lambda n: {"n": n, "seed": 2},
    "identity": lambda n: {"n": n},
    "affine_bump": lambda n: {"n": n},
    "teichmuller": lambda n: {"n": n},
}

def _box(x: np.ndarray) -> float:
    """Signed predicate of the box |x_i| < 0.4, which the walk calls with arrays."""
    return float(np.max(np.abs(x))) - 0.4


def _guarded_map(x0: np.ndarray, radius: float) -> SmoothMap:
    """An affine map that refuses to sample farther than radius from x0."""
    base = affine_map([[1.4, 0.2], [0.1, 0.8]])

    def jet_fn(x, order):
        if np.any(np.linalg.norm(x - x0, axis=-1) > radius):
            raise GuardViolation("outside the sampling disk")
        return base.jet_fn(x, order)

    return SmoothMap(n=2, jet_fn=jet_fn)


def _step_map() -> SmoothMap:
    """J = diag(1, 2) where x1 > 0.1 and the identity elsewhere.

    The field's first row points towards -x1, so a line from x1 > 0.1
    crosses into the identity region, where the field is exactly zero.
    """

    def jet_fn(x, order):
        j = np.zeros(x.shape[:-1] + (2, 2))
        j[..., 0, 0] = 1.0
        j[..., 1, 1] = np.where(x[..., 0] > 0.1, 2.0, 1.0)
        return (x, j) if order == 1 else (x, j, np.zeros(x.shape[:-1] + (2, 2, 2)))

    return SmoothMap(n=2, jet_fn=jet_fn)


def _assert_walks_alike(m, x0, ds, max_len, domain=None):
    """trace_flowline against the array walk of tests/oracles.py, byte for byte.

    Returns the trajectory, or the error both raised with the same class
    and message.
    """
    try:
        want = trace_flowline_arrays(m, x0, ds, max_len, domain)
    except (QcflowError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            trace_flowline(m, x0, ds=ds, max_len=max_len, domain=domain)
        return exc
    got = trace_flowline(m, x0, ds=ds, max_len=max_len, domain=domain)
    assert got.terminated == want.terminated
    for name in ("s", "x", "K", "row", "speed", "sign"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    return got


@st.composite
def _walks(draw):
    """A registry map, a start point, a step, a length cap and a domain."""
    n = draw(st.sampled_from([2, 3, 4]))
    map_id = "polynomial" if n == 4 else draw(st.sampled_from(sorted(_MAP_PARAMS)))
    m = make_map(map_id, **_MAP_PARAMS[map_id](n))
    x0 = draw(st.lists(st.floats(-0.35, 0.35), min_size=n, max_size=n))
    ds = draw(st.sampled_from([1e-3, 1e-2, 3e-2]))
    max_len = ds * draw(st.floats(0.5, 60.0))
    # the unit ball, the box, or a ball whose boundary lies just past the start
    domain = draw(st.sampled_from([None, _box, ball_domain(
        math.sqrt(sum(v * v for v in x0)) + draw(st.floats(0.005, 0.1)))]))
    return m, x0, ds, max_len, domain


class TestArrayWalkOracle:
    """The walk on Python floats keeps every bit of the same walk on numpy arrays."""

    def test_every_registry_map_is_drawn(self):
        assert sorted(_MAP_PARAMS) == map_ids()

    @settings(max_examples=150, deadline=None)
    @given(case=_walks())
    def test_matches_the_array_walk(self, case):
        _assert_walks_alike(*case)

    @pytest.mark.parametrize("name", ["max_length", "boundary", "degenerate_at_start",
                                      "degenerate_midway", "row_switch", "custom_domain",
                                      "polynomial_n4"])
    def test_named_line_matches_the_array_walk(self, name):
        m, x0, ds, max_len, domain, ends = {
            "max_length": (make_teichmuller(3), [0.1, -0.2, 0.05], 1e-3, 0.05, None,
                           "maxLength"),
            "boundary": (make_teichmuller(2), [0.7, 0.0], 1e-2, 5.0, ball_domain(0.8),
                         "boundary"),
            "degenerate_at_start": (moebius("inversion", {"n": 3}), [0.3, 0.1, -0.2], 1e-3,
                                    1.0, None, "degenerate"),
            "degenerate_midway": (_step_map(), [0.3, 0.05], 1e-2, 1.0, None, "degenerate"),
            "row_switch": (make_map("wedge", alpha=2.0, n=3), [0.004, 0.304, 0.497], 2e-2, 2.0,
                           None, "maxLength"),
            "custom_domain": (make_teichmuller(2), [0.1, -0.2], 1e-2, 5.0, _box, "boundary"),
            "polynomial_n4": (make_map("polynomial", n=4, seed=1), [0.1, 0.2, 0.1, -0.1], 1e-3,
                              0.05, None, "maxLength"),
        }[name]
        traj = _assert_walks_alike(m, x0, ds, max_len, domain)
        assert traj.terminated == ends
        if name == "degenerate_midway":
            assert len(traj) > 2
        if name == "row_switch":
            assert np.any(traj.row[1:] != traj.row[:-1])

    def test_stage_guard_fails_as_the_array_walk(self):
        # the midpoint stage lands outside the map's disk: StepFailure on both
        x0 = np.array([0.1, 0.05])
        m = _guarded_map(x0, 0.01)
        speed = float(np.max(np.linalg.norm(flow_field(m, x0), axis=1)))
        exc = _assert_walks_alike(m, x0, 0.04 / speed, 1.0)
        assert isinstance(exc, StepFailure)


class TestWalkReadsTheKernel:
    @settings(max_examples=60, deadline=None)
    @given(case=_walks())
    def test_sample_k_is_trace_dilation_bitwise(self, case):
        # a sample's K comes from the field's |J|^2 and det: the same
        # kernel, on the same entries, as trace_dilation of the accessor's J
        m, x0, ds, max_len, domain = case
        try:
            traj = trace_flowline(m, x0, ds=ds, max_len=max_len, domain=domain)
        except (QcflowError, ValueError):
            return
        for x, k in zip(traj.x, traj.K):
            assert k.tobytes() == trace_dilation(m.jacobian(x)).tobytes()


class TestRk4Order:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_endpoint_differences_shrink_at_fourth_order(self, n, seed):
        # one row, traced to L = 0.2 at ds = 2e-2, 1e-2 and 5e-3: each halving
        # divides the endpoint difference by about 2^4. Over 8 seeds and 3
        # starts at this amplitude the order read 3.95 to 4.11; the walk with
        # its four stages averaged (weights step / 4) reads 2.0
        m = polynomial_map(n, seed=seed, amplitude=0.2)
        lines = [trace_flowline(m, [0.2, 0.1, -0.1][:n], ds=ds, max_len=0.2)
                 for ds in (2e-2, 1e-2, 5e-3)]
        assert all(t.terminated == "maxLength" for t in lines)
        assert len({int(r) for t in lines for r in t.row}) == 1
        ends = [t.x[-1] for t in lines]
        order = math.log2(np.linalg.norm(ends[0] - ends[1]) / np.linalg.norm(ends[1] - ends[2]))
        assert 3.7 < order < 4.3


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

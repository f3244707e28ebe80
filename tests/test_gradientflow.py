"""Grid sampling, energy quadrature, stable stepping, and flow runs."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import recompute_flow
from qcflow import (
    DeterminantCollapse,
    NonFiniteValue,
    NonPositiveDeterminant,
    OriginExcluded,
    gradientflow,
    tensor,
)
from qcflow.gradientflow import (
    DEFAULT_SAFETY,
    ENERGY_TOL_SCALE,
    compatibility_check,
    dtmax,
    energy,
    explicit_step,
    interior_operator,
    make_grid,
    read_snapshot,
    run_flow,
    write_snapshot,
)
from qcflow.maps import SmoothMap, affine_map, bump_map, identity_map, make_map, radial_stretch
from qcflow.operators import flux_linearization, lp_nondiv


def identity_grid(shape=(33, 33), h=1.0 / 32.0):
    return make_grid(identity_map(2), shape, h)


def bump_grid(shape=(33, 33), h=1.0 / 32.0, amp=0.05):
    return make_grid(bump_map(2, amp), shape, h)


def affine_bump_grid(shape=(17, 17), h=1.0 / 16.0):
    return make_grid(make_map("affine_bump", n=2, amplitude=0.05), shape, h)


class TestMakeGrid:
    def test_identity_values_are_coordinates(self):
        g = identity_grid((9, 9), 0.125)
        np.testing.assert_array_equal(g.values, g.node_coordinates())

    def test_node_coordinates_are_origin_plus_h_index(self):
        g = make_grid(identity_map(3), (5, 4, 6), 0.3, origin=[-0.7, 0.1, 1.3])
        coords = g.node_coordinates()
        for idx in np.ndindex(g.shape):
            assert coords[idx].tobytes() == (g.origin + g.h * np.asarray(idx, float)).tobytes()

    def test_one_value_call_samples_every_node(self):
        bump = bump_map(2)
        shapes = []

        def jet_fn(x, order):
            shapes.append(x.shape)
            return bump.jet_fn(x, order)

        g = make_grid(SmoothMap(n=2, jet_fn=jet_fn), (9, 7), 0.125)
        assert shapes == [(9, 7, 2)]
        coords = g.node_coordinates()
        for idx in np.ndindex(g.shape):
            assert g.values[idx].tobytes() == bump.value(coords[idx]).tobytes()

    @pytest.mark.parametrize("shape", [(6, 5), (4, 5, 6)], ids=["6x5", "4x5x6"])
    def test_boundary_mask_is_box_edge(self, shape):
        g = make_grid(identity_map(len(shape)), shape, 0.1)
        idx = np.indices(shape)
        faces = np.zeros(shape, dtype=bool)
        for a, m in enumerate(shape):
            faces |= (idx[a] == 0) | (idx[a] == m - 1)
        np.testing.assert_array_equal(g.boundary_mask, faces)

    def test_record_holds_no_mask(self):
        # the boundary is derived from shape, so no grid can carry another
        g = identity_grid((6, 5), 0.1)
        assert [f.name for f in dataclasses.fields(g)] == ["values", "h", "origin", "det_cache"]
        with pytest.raises(AttributeError):
            g.boundary_mask = np.zeros(g.shape, dtype=bool)

    def test_det_cache_positive(self):
        g = bump_grid((17, 17), 1.0 / 16.0)
        assert np.min(g.det_cache) > 0.0

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_grid(identity_map(2), (9, 9, 9), 0.1)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            make_grid(identity_map(2), (3, 9), 0.1)

    @pytest.mark.parametrize("shape", [(17.9, 17), (9, "9"), (9, math.nan), (math.inf, 9),
                                       (9, None)])
    def test_fractional_node_count_rejected(self, shape):
        # (17.9, 17) used to build a 17x17 grid
        with pytest.raises(ValueError, match="grid node counts must be integral numbers"):
            make_grid(identity_map(2), shape, 0.1)

    def test_integral_float_node_count_accepted(self):
        grid = make_grid(identity_map(2), (9.0, np.int64(9)), 0.1)
        assert grid.values.shape == (9, 9, 2)

    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
    def test_bad_spacing_rejected(self, h):
        with pytest.raises(ValueError, match="h must be a positive finite number"):
            make_grid(identity_map(2), (9, 9), h)

    @pytest.mark.parametrize("origin", [[0.5], 0.5, [0.0, 0.0, 0.0], [math.nan, 0.0],
                                        [0.0, math.inf]])
    def test_bad_origin_rejected(self, origin):
        # [0.5] used to broadcast to (0.5, 0.5) and [nan, 0] to build a NaN grid
        with pytest.raises(ValueError, match="origin must be 2 finite numbers"):
            make_grid(identity_map(2), (9, 9), 0.1, origin=origin)


class TestEnergy:
    def test_identity_value(self):
        # K^2 = 2 at every node, so the p=2 mean is exactly 4
        assert energy(identity_grid(), 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_affine_value(self):
        g = make_grid(affine_map([[2.0, 0.0], [0.0, 0.5]]), (17, 17), 1.0 / 16.0)
        assert energy(g, 1.0) == pytest.approx(4.25, abs=1e-12)

    def test_quadrature_second_order(self):
        vals = [
            energy(bump_grid(shape, h), 2.0)
            for shape, h in (((17, 17), 1 / 16), ((33, 33), 1 / 32), ((65, 65), 1 / 64))
        ]
        ratio = (vals[1] - vals[0]) / (vals[2] - vals[1])
        assert 3.2 <= ratio <= 4.8


class TestCompatibility:
    def test_affine_zero(self):
        g = make_grid(affine_map([[2.0, 0.0], [0.3, 0.5]]), (17, 17), 1.0 / 16.0)
        assert compatibility_check(g, 2.0) <= 1e-10

    def test_bump_vanishes_second_order_at_edge(self):
        # the bump profile is cubic at its ends, so boundary Hessians are
        # analytically zero and the discrete residual decays like h^2
        coarse = compatibility_check(bump_grid((33, 33), 1 / 32), 2.0)
        fine = compatibility_check(bump_grid((65, 65), 1 / 64), 2.0)
        assert 3.0 <= coarse / fine <= 5.0

    def test_radial_matches_pointwise_operator(self):
        # on a box away from the origin the boundary residual converges
        # to the analytic operator norm along the edge
        m = radial_stretch(2.0, 2)
        g = make_grid(m, (17, 17), 1.0 / 16.0, origin=[1.0, 1.0])
        compat = compatibility_check(g, 2.0)
        coords = g.node_coordinates()
        oracle = 0.0
        for idx in np.ndindex(g.shape):
            if g.boundary_mask[idx]:
                oracle = max(oracle, np.max(np.abs(lp_nondiv(m.jet(coords[idx]), 2.0))))
        assert compat == pytest.approx(oracle, rel=1e-2)


class TestDtmax:
    def test_identity_hand_value(self):
        # safety 0.2 times h^2 over the coefficient mass 32 at q = I
        assert dtmax(identity_grid(), 2.0) == pytest.approx(6.103515625e-06, rel=1e-12)

    def test_doubling_h_quadruples(self):
        fine = dtmax(identity_grid((33, 33), 1.0 / 32.0), 2.0)
        coarse = dtmax(identity_grid((17, 17), 1.0 / 16.0), 2.0)
        assert coarse == pytest.approx(4.0 * fine, rel=1e-12)

    def test_monotone_decreasing_in_p(self):
        g = bump_grid((17, 17), 1.0 / 16.0)
        d1, d2, d5 = (dtmax(g, p) for p in (1.0, 2.0, 5.0))
        assert d1 > d2 > d5 > 0.0

    def test_identity_step_sequence_stable(self):
        g = identity_grid((17, 17), 1.0 / 16.0)
        dt = dtmax(g, 2.0)
        e0 = energy(g, 2.0)
        for _ in range(200):
            g = explicit_step(g, 2.0, dt)
        assert energy(g, 2.0) == pytest.approx(e0, abs=1e-12)


def random_smooth_grid(rng, m=8, h=1.0 / 7.0):
    """n=3 grid of a random smooth near-identity map, sampled directly."""
    base = make_grid(identity_map(3), (m, m, m), h)
    coords = base.node_coordinates()
    freq = rng.uniform(0.5, 2.0, (3, 3))
    phase = rng.uniform(0.0, 2.0 * np.pi, 3)
    values = coords + 0.05 * np.sin(coords @ freq + phase)
    return dataclasses.replace(base, values=values)


class TestInteriorOperator:
    def test_matches_per_node_full_contraction(self):
        # node by node: centred-difference J and H, then the n^4 tensor
        rng = np.random.default_rng(31)
        g = random_smooth_grid(rng)
        u, h, p = g.values, g.h, 3.0
        out = interior_operator(g, p)
        assert out.shape == (6, 6, 6, 3)
        unit = np.eye(3, dtype=int)
        for idx in np.ndindex(out.shape[:-1]):
            c = np.array(idx) + 1
            at = lambda off: u[tuple(c + off)]
            jac = np.stack([(at(unit[a]) - at(-unit[a])) / (2 * h) for a in range(3)], -1)
            hess = np.empty((3, 3, 3))
            for a in range(3):
                for b in range(3):
                    if a == b:
                        hess[:, a, a] = (at(unit[a]) - 2 * u[tuple(c)] + at(-unit[a])) / h**2
                    else:
                        hess[:, a, b] = (at(unit[a] + unit[b]) - at(unit[a] - unit[b])
                                         - at(unit[b] - unit[a]) + at(-unit[a] - unit[b])) / (4 * h**2)
            oracle = np.einsum("ikjl,kjl->i", flux_linearization(jac, p), hess)
            np.testing.assert_allclose(out[idx], oracle, rtol=0,
                                       atol=1e-11 * np.max(np.abs(oracle)))


class TestGridChecks:
    def test_folded_grid_rejected(self):
        g = bump_grid((9, 9), 1.0 / 8.0)
        folded = dataclasses.replace(g, values=g.values * np.array([-1.0, 1.0]))
        for fn in (interior_operator, energy, compatibility_check):
            with pytest.raises(NonPositiveDeterminant, match="determinant must be positive"):
                fn(folded, 2.0)
        with pytest.raises(NonPositiveDeterminant, match="determinant must be positive"):
            explicit_step(folded, 2.0, 1e-6)

    def test_nan_value_rejected(self):
        g = bump_grid((9, 9), 1.0 / 8.0)
        values = g.values.copy()
        values[4, 4, 0] = np.nan
        broken = dataclasses.replace(g, values=values)
        for fn in (interior_operator, energy, compatibility_check):
            with pytest.raises(NonFiniteValue):
                fn(broken, 2.0)
        with pytest.raises(NonFiniteValue):
            explicit_step(broken, 2.0, 1e-6)

    def test_fields_refuse_a_fold_and_a_nan(self):
        # the operator's coefficient checks live where the fields are made:
        # J = diag(-1, 1) at every node is a fold, a NaN node a non-finite J
        nodes = identity_grid((5, 5), 0.25).node_coordinates()
        with pytest.raises(NonPositiveDeterminant, match="determinant must be positive"):
            gradientflow._checked_fields(nodes * np.array([-1.0, 1.0]), 0.25)
        nodes[2, 2, 0] = np.nan
        with pytest.raises(NonFiniteValue):
            gradientflow._fields(gradientflow._entry_first(nodes), 0.25)
        with pytest.raises(NonFiniteValue):
            gradientflow._checked_fields(nodes, 0.25)

    def test_make_grid_refuses_a_fold(self):
        # the node values are read unchecked; the grid's difference Jacobian is checked
        with pytest.raises(NonPositiveDeterminant, match="determinant must be positive"):
            make_grid(affine_map(np.diag([1.0, -1.0])), (9, 9), 1.0 / 8.0)

    def test_make_grid_refuses_a_node_outside_the_domain(self):
        # node (4, 4) is the origin, where the radial stretch has no jet
        with pytest.raises(OriginExcluded, match="^radial stretch sampled at the origin$"):
            make_grid(radial_stretch(2, 2), (9, 9), 1.0 / 8.0, origin=[-0.5, -0.5])

    def test_make_grid_refuses_unstacked_values(self):
        # a sampler that ignores the stack must not be broadcast over the grid
        def jet_fn(x, order):
            return np.zeros(2), np.eye(2), np.zeros((2, 2, 2))

        with pytest.raises(ValueError, match=r"map values have shape \(2,\), expected \(9, 9, 2\)"):
            make_grid(SmoothMap(n=2, jet_fn=jet_fn), (9, 9), 1.0 / 8.0)

    def test_make_grid_refuses_a_nan_value(self):
        def jet_fn(x, order):
            u = x.copy()
            u[np.all(x == 0.5, axis=-1), 0] = np.nan
            stack = x.shape[:-1]
            return u, np.broadcast_to(np.eye(2), stack + (2, 2)), np.zeros(stack + (2, 2, 2))

        with pytest.raises(NonFiniteValue):
            make_grid(SmoothMap(n=2, jet_fn=jet_fn), (9, 9), 1.0 / 8.0)


class TestExplicitStep:
    def test_affine_stationary(self):
        g = make_grid(affine_map([[2.0, 0.0], [0.0, 0.5]]), (17, 17), 1.0 / 16.0)
        update = interior_operator(g, 1.0)
        assert np.max(np.abs(update)) <= 1e-10

    def test_single_step_reduces_bump_energy(self):
        g = bump_grid()
        dt = dtmax(g, 2.0)
        stepped = explicit_step(g, 2.0, dt)
        assert energy(stepped, 2.0) < energy(g, 2.0)

    def test_boundary_nodes_never_move(self):
        g = bump_grid((17, 17), 1.0 / 16.0)
        stepped = explicit_step(g, 2.0, dtmax(g, 2.0))
        np.testing.assert_array_equal(
            stepped.values[g.boundary_mask], g.values[g.boundary_mask]
        )

    def test_oversized_step_caught(self):
        # far above the stability bound the move either collapses the
        # determinant or raises the energy for the monitor to catch
        g = bump_grid((17, 17), 1.0 / 16.0)
        dt = 2000.0 * dtmax(g, 2.0)
        try:
            stepped = explicit_step(g, 2.0, dt)
        except DeterminantCollapse:
            return
        assert energy(stepped, 2.0) > energy(g, 2.0)


class TestRunFlow:
    def test_affine_energy_constant(self):
        g = make_grid(affine_map([[2.0, 0.0], [0.0, 0.5]]), (17, 17), 1.0 / 16.0)
        stats = run_flow(g, 1.0, t_final=1e-4)
        assert stats.halt_reason is None
        np.testing.assert_allclose(stats.energy, stats.energy[0], atol=1e-11)
        np.testing.assert_array_equal(stats.final_grid.values, g.values)

    def test_bump_energy_decreases(self):
        g = bump_grid()
        stats = run_flow(g, 2.0, t_final=5e-4)
        assert stats.halt_reason is None
        e0 = stats.energy[0]
        tol = 1e-12 * (1.0 + e0)
        assert np.all(np.diff(stats.energy) <= tol)
        assert stats.energy[-1] < e0
        assert stats.times[-1] == pytest.approx(5e-4, rel=1e-12)

    def test_min_det_floor_maintained(self):
        g = bump_grid()
        floor = 0.5 * float(np.min(g.det_cache))
        stats = run_flow(g, 2.0, t_final=5e-4)
        assert np.all(stats.min_det >= floor)

    def test_boundary_frozen_through_run(self):
        g = bump_grid((17, 17), 1.0 / 16.0)
        stats = run_flow(g, 2.0, t_final=2e-4)
        np.testing.assert_array_equal(
            stats.final_grid.values[g.boundary_mask], g.values[g.boundary_mask]
        )

    def test_lp_norm_monotone(self):
        # energy is the p-th power of the discrete norm, so the norm
        # series inherits monotonicity
        g = bump_grid()
        stats = run_flow(g, 2.0, t_final=3e-4)
        norms = stats.energy ** (1.0 / 2.0)
        assert np.all(np.diff(norms) <= 1e-12 * (1.0 + norms[0]))

    def test_picard_mode_runs(self):
        g = bump_grid((17, 17), 1.0 / 16.0)
        stats = run_flow(g, 2.0, t_final=2e-4, mode="picard", outer=3)
        assert stats.halt_reason is None
        assert stats.energy[-1] <= stats.energy[0]

    def test_tiny_horizon_reached(self):
        # at p=50 the stable step is about 1e-22, far below any absolute
        # horizon tolerance
        g = bump_grid((17, 17), 1.0 / 16.0)
        t_final = 20.0 * dtmax(g, 50.0)
        stats = run_flow(g, 50.0, t_final)
        assert stats.times.size - 1 == 20
        assert stats.times[-1] == pytest.approx(t_final, rel=1e-12)
        assert stats.halt_reason is None

    def test_picard_stops_on_its_step_lattice(self, monkeypatch):
        # 38,032 additions of this dt fall short of 38,032 * dt by more than
        # 1e-12 relative, so a stop test on the running sum would ask for a
        # step past the last lattice step. The kernels are stubbed so that
        # the stop rule alone runs at that length; the state never moves,
        # so its fields are the fixed ones of the identity grid, and the
        # second pass reads the saved Jacobians as they are.
        dt, n_steps = 0.0009572206494414425, 38032
        t = 0.0
        for _ in range(n_steps):
            t += dt
        assert t < n_steps * dt * (1.0 - 1e-12)

        grid = identity_grid((4, 4), 1.0 / 3.0)
        fields = gradientflow._checked_fields(grid.values, grid.h)

        def advance(v, update, step_dt, h, det_floor):
            assert step_dt > 0.0
            return fields

        monkeypatch.setattr(gradientflow, "_dtmax", lambda jac, h, p, safety: dt)
        monkeypatch.setattr(gradientflow, "_interior_update", lambda *args: None)
        monkeypatch.setattr(gradientflow, "_advance", advance)
        monkeypatch.setattr(gradientflow, "_energy", lambda *args: 0.0)
        monkeypatch.setattr(gradientflow, "_fields", lambda v, h: fields)
        monkeypatch.setattr(gradientflow, "_saved_coefficients", lambda saved, p: iter(saved))
        stats = run_flow(grid, 2.0, n_steps * dt, mode="picard", outer=2)
        assert stats.halt_reason is None
        assert stats.times.size - 1 == n_steps

    @pytest.mark.parametrize("mode, rows", [("explicit", 1), ("picard", 5)])
    def test_rising_energy_halts_unstable(self, monkeypatch, mode, rows):
        # explicit mode rejects all five rises; picard keeps four steps
        grid = affine_bump_grid()
        t_final = 10.0 * dtmax(grid, 2.0)
        rising = itertools.count()
        monkeypatch.setattr(gradientflow, "_energy", lambda *args: float(next(rising)))
        stats = run_flow(grid, 2.0, t_final, mode=mode)
        assert stats.halt_reason == "unstable"
        assert stats.violations == 5
        assert stats.times.size == stats.energy.size == stats.dt_history.size == rows

    @pytest.mark.parametrize("mode", ["explicit", "picard"])
    def test_infinite_update_halts_non_finite(self, monkeypatch, mode):
        grid = affine_bump_grid()
        monkeypatch.setattr(gradientflow, "_interior_update",
                            lambda *args: np.full((2, 15, 15), np.inf))
        stats = run_flow(grid, 2.0, 1e-3, mode=mode)
        assert stats.halt_reason == "non_finite"
        assert stats.times.size == 1 and stats.violations == 0
        np.testing.assert_array_equal(stats.final_grid.values, grid.values)

    @pytest.mark.parametrize("mode", ["explicit", "picard"])
    def test_non_finite_stepped_jacobian_halts_non_finite(self, monkeypatch, mode):
        # one inf in a stepped state's difference Jacobian used to pass the
        # floor, put a NaN in the energy (a RuntimeWarning) and escape as a
        # bare NonFiniteValue at the next step; it is checked where it is made
        grid = affine_bump_grid()
        first = gradientflow._entry_first(grid.values)
        jacobian = gradientflow._jacobian_field

        def poisoned(v, h):
            jac = jacobian(v, h)
            if not np.array_equal(v, first):
                jac[0, 0, 8, 8] = np.inf
            return jac

        monkeypatch.setattr(gradientflow, "_jacobian_field", poisoned)
        stats = run_flow(grid, 2.0, 1e-3, mode=mode)
        assert stats.halt_reason == "non_finite"
        assert stats.times.size == 1 and stats.violations == 0
        np.testing.assert_array_equal(stats.final_grid.values, grid.values)

    def test_explicit_rejects_energy_rise_and_halves_dt(self):
        stats = run_flow(affine_bump_grid(), 2.0, t_final=1e-2, safety=3.0)
        assert stats.violations == 1
        assert stats.halt_reason is None
        dts = stats.dt_history[1:]
        assert any(dts[j] == 0.5 * dts[i] for i in range(dts.size) for j in range(i + 1, dts.size))
        tol = ENERGY_TOL_SCALE * (1.0 + abs(stats.energy[0]))
        assert np.all(np.diff(stats.energy) <= tol)

    def test_rejected_step_reuses_its_update(self, monkeypatch):
        calls = []
        update = gradientflow._interior_update

        def counted(*args):
            calls.append(1)
            return update(*args)

        monkeypatch.setattr(gradientflow, "_interior_update", counted)
        stats = run_flow(affine_bump_grid(), 2.0, t_final=1e-2, safety=3.0)
        assert stats.violations == 1
        assert len(calls) == stats.times.size - 1

    def test_steps_build_no_four_index_tensor(self, monkeypatch):
        # dtmax needs the coefficient mass sum |a4|; nothing else may
        # build flux_linearization on the grid
        calls = []
        full = gradientflow.flux_linearization

        def counted(q, p):
            calls.append(1)
            return full(q, p)

        monkeypatch.setattr(gradientflow, "flux_linearization", counted)
        stats = run_flow(affine_bump_grid(), 2.0, t_final=1e-3)
        assert stats.times.size - 1 > 1
        assert len(calls) == 1

    def test_picard_keeps_energy_rise_at_fixed_dt(self):
        stats = run_flow(affine_bump_grid(), 2.0, t_final=1e-2, mode="picard", safety=3.0, outer=2)
        assert stats.violations == 1
        tol = ENERGY_TOL_SCALE * (1.0 + abs(stats.energy[0]))
        assert np.count_nonzero(np.diff(stats.energy) > tol) == 1
        assert np.unique(stats.dt_history[1:]).size == 1
        assert stats.halt_reason == "determinant_collapse"
        assert stats.times.size - 1 == 7

    @pytest.mark.parametrize("safety", [0.0, -1.0, math.nan])
    def test_bad_safety_rejected(self, safety):
        # safety = 0 made dtmax return 0 and the loop take zero-length steps
        grid = affine_bump_grid()
        with pytest.raises(ValueError, match="safety must be a positive finite number"):
            dtmax(grid, 2.0, safety)
        for mode in ("explicit", "picard"):
            with pytest.raises(ValueError, match="safety must be a positive finite number"):
                run_flow(grid, 2.0, 1e-3, mode=mode, safety=safety)

    @pytest.mark.parametrize("arg, bad", [
        ("p", 0.0), ("p", -1.0), ("p", math.nan), ("p", math.inf),
        ("t_final", 0.0), ("t_final", -1.0), ("t_final", math.nan), ("t_final", math.inf),
    ])
    def test_bad_power_or_horizon_rejected(self, arg, bad):
        # p = 0 divided by zero in dtmax, p = -1 ran, and a t_final that is
        # not positive took no step yet reported reaching its horizon
        grid = affine_bump_grid()
        kwargs = {"p": 2.0, "t_final": 1e-3, arg: bad}
        with pytest.raises(ValueError, match=f"{arg} must be a positive finite number"):
            run_flow(grid, **kwargs)
        if arg == "p":
            with pytest.raises(ValueError, match="p must be a positive finite number"):
                dtmax(grid, bad)

    @pytest.mark.parametrize("outer", [0, -2, 1.5, True])
    def test_bad_pass_count_rejected(self, outer):
        # outer = 0 or -2 used to run one pass silently
        with pytest.raises(ValueError, match="outer must be an integer >= 1"):
            run_flow(affine_bump_grid(), 2.0, 1e-3, mode="picard", outer=outer)

    def test_explicit_differences_each_state_once(self, monkeypatch):
        # _advance's Jacobian of the stepped state is the next step's
        # coefficient Jacobian; set-up differences the initial data
        calls = []
        jacobian = gradientflow._jacobian_field

        def counted(*args):
            calls.append(1)
            return jacobian(*args)

        grid = affine_bump_grid()
        monkeypatch.setattr(gradientflow, "_jacobian_field", counted)
        stats = run_flow(grid, 2.0, t_final=1e-3)
        steps = stats.times.size - 1
        assert steps > 1 and stats.halt_reason is None
        assert len(calls) <= steps + 4

    def test_picard_first_pass_reuses_initial_jacobian(self, monkeypatch):
        # pass one freezes its coefficients at u0, and each later pass reads
        # the Jacobians the previous pass made: set-up differences u0 and
        # every step the state it makes, nothing else
        calls = []
        jacobian = gradientflow._jacobian_field

        def counted(*args):
            calls.append(1)
            return jacobian(*args)

        grid = affine_bump_grid()
        monkeypatch.setattr(gradientflow, "_jacobian_field", counted)
        for outer in (1, 2, 3):
            calls.clear()
            stats = run_flow(grid, 2.0, t_final=1e-3, mode="picard", outer=outer)
            steps = stats.times.size - 1
            assert steps > 1 and stats.halt_reason is None
            assert len(calls) == 1 + outer * steps, outer

    @pytest.mark.parametrize("mode, t_final, safety", [
        ("explicit", 1e-2, 3.0), ("picard", 1e-3, DEFAULT_SAFETY)])
    def test_adjugates_only_where_coefficients_are_prepared(self, monkeypatch, mode, t_final,
                                                            safety):
        # no stepped state makes an adjugate. The boundary residual makes
        # the full grid's once at set-up; explicit mode then makes one over
        # the interior per accepted state it steps from (a rejected step
        # reuses its update), picard one for u0 and one for each saved
        # state a later pass reads (its step 0 reads u0's again)
        shapes, in_advance = [], []
        adjugate, advance = gradientflow._adjugate, gradientflow._advance

        def counted_adjugate(a):
            shapes.append(a.shape[2:])
            return adjugate(a)

        def counted_advance(*args):
            before = len(shapes)
            fields = advance(*args)
            in_advance.append(len(shapes) - before)
            return fields

        monkeypatch.setattr(gradientflow, "_adjugate", counted_adjugate)
        monkeypatch.setattr(gradientflow, "_advance", counted_advance)
        grid, outer = affine_bump_grid(), 3
        stats = run_flow(grid, 2.0, t_final, mode=mode, safety=safety, outer=outer)
        steps = stats.times.size - 1
        assert steps > 1 and stats.halt_reason is None
        interior = tuple(m - 2 for m in grid.shape)
        if mode == "explicit":
            assert stats.violations == 1 and len(in_advance) == steps + 1
            made = steps
        else:
            assert len(in_advance) == outer * steps
            made = 1 + (outer - 1) * (steps - 1)
        assert not any(in_advance)
        assert shapes == [grid.shape] + [interior] * made

    def test_picard_last_pass_saves_nothing(self):
        # the last pass keeps no state for a pass after it, and a later pass
        # frees each saved Jacobian as it reads it, so one pass peaks far
        # below two
        grid = make_grid(make_map("affine_bump", n=2, amplitude=0.05), (33, 33), 1.0 / 32.0)
        peaks = []
        for outer in (1, 2):
            tracemalloc.start()
            try:
                stats = run_flow(grid, 2.0, t_final=5e-4, mode="picard", outer=outer)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert stats.halt_reason is None and stats.times.size - 1 > 100
        assert peaks[0] < 0.5 * peaks[1]

    def test_later_pass_starts_with_one_saved_state_per_step_it_reads(self, monkeypatch):
        # step k of a later pass reads state k of the pass before: u0 for
        # k = 0, then saved states 1 .. steps - 1; the last state is not kept
        counts, saved_coefficients = [], gradientflow._saved_coefficients

        def counted(saved, p):
            counts.append(len(saved))
            return saved_coefficients(saved, p)

        monkeypatch.setattr(gradientflow, "_saved_coefficients", counted)
        stats = run_flow(affine_bump_grid(), 2.0, 1e-3, mode="picard", outer=3)
        steps = stats.times.size - 1
        assert steps > 1 and stats.halt_reason is None
        assert counts == [steps - 1] * 2

    def test_picard_converges_to_the_explicit_flow(self):
        # with no rejected step, explicit mode runs on picard's dt lattice,
        # so picard's fixed point is the explicit flow: the fifth pass
        # lies within its last correction of it. A pass that reads the
        # previous pass's states one step late still contracts, but to
        # another flow, about 1e-5 away
        grid = affine_bump_grid()
        explicit = run_flow(grid, 2.0, 1e-3)
        assert explicit.violations == 0 and explicit.halt_reason is None
        u4, u5 = (run_flow(grid, 2.0, 1e-3, mode="picard", outer=outer) for outer in (4, 5))
        assert u5.halt_reason is None and u5.times.size == explicit.times.size
        d5 = float(np.max(np.abs(u5.final_grid.values - u4.final_grid.values)))
        assert 0.0 < d5 < 1e-6
        assert np.max(np.abs(u5.final_grid.values - explicit.final_grid.values)) <= d5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_flow(identity_grid((17, 17), 1.0 / 16.0), 2.0, 1e-4, mode="verlet")

    def test_stats_csv(self, tmp_path):
        g = bump_grid((17, 17), 1.0 / 16.0)
        stats = run_flow(g, 2.0, t_final=1e-4)
        path = tmp_path / "series.csv"
        stats.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,time,energy,min_det,dt"
        assert len(lines) == stats.times.size + 1


FLOW_CONFIGS = {
    # name: (n, nodes per axis, t_final, run_flow keywords)
    "explicit_rejects_a_step": (2, 17, 1e-2, dict(safety=3.0)),
    "picard_two_passes": (2, 17, 1e-3, dict(mode="picard", outer=2)),
    "explicit_n3": (3, 9, 2e-4, dict()),
    "picard_n3_two_passes": (3, 9, 2e-4, dict(mode="picard", outer=2)),
}


class TestRecomputeOracle:
    @pytest.mark.parametrize("config", sorted(FLOW_CONFIGS))
    def test_run_flow_matches_recompute_everything(self, config):
        # each state differenced and factored once must give the bits of the
        # loop that differences and factors it wherever it is read
        n, m, t_final, kwargs = FLOW_CONFIGS[config]
        grid = make_grid(make_map("affine_bump", n=n, amplitude=0.05), (m,) * n, 1.0 / (m - 1))
        stats = run_flow(grid, 2.0, t_final, **kwargs)
        oracle = recompute_flow(grid, 2.0, t_final, **kwargs)
        assert stats.times.size > 5
        for name in ("times", "energy", "min_det", "dt_history"):
            assert getattr(stats, name).tobytes() == getattr(oracle, name).tobytes(), name
        assert (stats.halt_reason, stats.violations) == (oracle.halt_reason, oracle.violations)
        assert stats.compat_residual.hex() == oracle.compat_residual.hex()
        assert stats.final_grid.values.tobytes() == oracle.final_grid.values.tobytes()
        assert stats.final_grid.det_cache.tobytes() == oracle.final_grid.det_cache.tobytes()
        if "safety" in kwargs:
            assert stats.violations == 1


PICARD_GRIDS = {
    # name: (n, nodes per axis, steps per pass)
    "n2_17": (2, 17, 24),
    "n3_9": (3, 9, 12),
}


class TestPicardOracle:
    @pytest.mark.parametrize("outer", [1, 2, 3])
    @pytest.mark.parametrize("p", [2.0, 5.0])
    @pytest.mark.parametrize("config", sorted(PICARD_GRIDS))
    def test_run_flow_matches_the_loop_that_differences_again(self, config, p, outer):
        # coefficients prepared once per pass, and later passes read the
        # Jacobians the previous pass made, keep every bit of the loop
        # that differences each saved state again and prepares every step
        # by the plain arithmetic, stepping values-last
        n, m, steps = PICARD_GRIDS[config]
        grid = make_grid(make_map("affine_bump", n=n, amplitude=0.05), (m,) * n, 1.0 / (m - 1))
        t_final = steps * dtmax(grid, p)
        stats = run_flow(grid, p, t_final, mode="picard", outer=outer)
        oracle = recompute_flow(grid, p, t_final, mode="picard", outer=outer)
        assert stats.halt_reason is None and stats.times.size - 1 == steps
        for name in ("times", "energy", "min_det", "dt_history"):
            assert getattr(stats, name).tobytes() == getattr(oracle, name).tobytes(), name
        assert (stats.halt_reason, stats.violations) == (oracle.halt_reason, oracle.violations)
        assert stats.final_grid.values.tobytes() == oracle.final_grid.values.tobytes()


@st.composite
def _grid_arrays(draw):
    """An entry-first stack of n components over n axes, n = 2..4, of 4 to 7 nodes (5 at n = 4)."""
    n = draw(st.integers(2, 4))
    shape = (n,) + tuple(draw(st.integers(4, 7 if n < 4 else 5)) for _ in range(n))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return scale * np.random.default_rng(seed).standard_normal(shape)


class TestFirstDifference:
    @settings(max_examples=60, deadline=None)
    @given(v=_grid_arrays(), h=st.floats(1e-3, 10.0), data=st.data())
    def test_equals_numpy_gradient_bit_for_bit(self, v, h, data):
        axis = data.draw(st.integers(1, v.ndim - 1))
        out = gradientflow._first_difference(v, h, axis, np.empty_like(v))
        assert out.tobytes() == np.gradient(v, h, axis=axis, edge_order=2).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(v=_grid_arrays(), h=st.floats(1e-3, 10.0))
    def test_jacobian_field_equals_numpy_gradient(self, v, h):
        jac = gradientflow._jacobian_field(v, h)
        ref = np.stack([np.gradient(v, h, axis=1 + a, edge_order=2)
                        for a in range(v.shape[0])], axis=1)
        assert jac.tobytes() == ref.tobytes()


class TestFieldsArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(v=_grid_arrays(), h=st.floats(1e-3, 10.0))
    def test_det_equals_the_adjugate_kernels(self, v, h):
        # _fields takes det from the first row's cofactors alone; it keeps
        # the bits of the first row against the first column of the
        # adjugate, which the coefficients make beside it
        fields = gradientflow._fields(v, h)
        n = v.shape[0]
        adj = gradientflow._adjugate(fields.jac)
        want = tensor._det([fields.jac[0, j] for j in range(n)], adj[:, 0], n)
        assert fields.det.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(v=_grid_arrays(), h=st.floats(1e-3, 10.0), p=st.sampled_from([1.0, 2.0, 5.0]))
    def test_energy_equals_numpy_trapezoid(self, v, h, p):
        # the inline quadrature is np.trapezoid's formula, axis by axis
        n = v.shape[0]
        det, nsq = 0.5 + np.abs(v[0]), 1.0 + v[-1] ** 2
        fields = gradientflow._Fields(v, np.empty((n, n)), det, nsq)
        total = (nsq / det ** (2.0 / n)) ** (n * p / 2.0)
        for _ in range(n):
            total = np.trapezoid(total, dx=h, axis=-1)
        volume = gradientflow._volume(v.shape[1:], h)
        assert gradientflow._energy(fields, h, p, volume).hex() == (float(total) / volume).hex()


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        g = bump_grid((9, 9), 0.125)
        path = tmp_path / "grid.bin"
        write_snapshot(g, path)
        values, h = read_snapshot(path)
        np.testing.assert_array_equal(values, g.values)
        assert h == g.h

    def test_binary_layout(self, tmp_path):
        g = identity_grid((5, 4), 0.25)
        path = tmp_path / "grid.bin"
        write_snapshot(g, path)
        raw = path.read_bytes()
        assert np.frombuffer(raw, dtype="<i8", count=1)[0] == 2
        assert tuple(np.frombuffer(raw, dtype="<i8", count=2, offset=8)) == (5, 4)
        assert np.frombuffer(raw, dtype="<f8", count=1, offset=24)[0] == 0.25
        assert len(raw) == 8 * (1 + 2 + 1) + 8 * 5 * 4 * 2

    @pytest.mark.parametrize("shape, h", [((9, 9), 0.125), ((5, 4, 6), 0.3)])
    def test_write_then_read_keeps_every_bit(self, tmp_path, shape, h):
        g = make_grid(make_map("affine_bump", n=len(shape), amplitude=0.05), shape, h)
        path = tmp_path / "grid.bin"
        write_snapshot(g, path)
        values, h_read = read_snapshot(path)
        assert values.shape == g.values.shape
        assert values.tobytes() == g.values.tobytes() and h_read == h


def _snapshot_bytes(n, counts, h, payload):
    """A snapshot file's bytes from a header of our choosing and payload float64s."""
    return (np.array([n] + list(counts), dtype="<i8").tobytes()
            + np.array([h], dtype="<f8").tobytes() + np.zeros(payload, dtype="<f8").tobytes())


class TestReadSnapshotHeader:
    # the reader used to trust its header: counts (-1, 5) read a 30-value
    # payload as a (3, 5, 2) grid, a NaN h came back as is, and a wrong n
    # failed inside reshape with a count made of the h and value bits
    @pytest.mark.parametrize("raw, field", [
        (b"", "snapshot n"),
        (_snapshot_bytes(0, [], 0.25, 0), "snapshot n must be >= 1"),
        (_snapshot_bytes(-1, [], 0.25, 0), "snapshot n must be >= 1"),
        (_snapshot_bytes(2, [5, 5], 0.25, 50)[:24], "snapshot node counts and h"),
        (_snapshot_bytes(2, [-1, 5], 0.25, 30), "snapshot node counts must be >= 1"),
        (_snapshot_bytes(2, [5, 0], 0.25, 0), "snapshot node counts must be >= 1"),
        (_snapshot_bytes(2, [5, 5], math.nan, 50), "snapshot h must be a positive finite"),
        (_snapshot_bytes(2, [5, 5], math.inf, 50), "snapshot h must be a positive finite"),
        (_snapshot_bytes(2, [5, 5], 0.0, 50), "snapshot h must be a positive finite"),
        (_snapshot_bytes(2, [5, 5], -0.25, 50), "snapshot h must be a positive finite"),
        (_snapshot_bytes(2, [5, 5], 0.25, 49), "snapshot values"),
        (_snapshot_bytes(2, [5, 5], 0.25, 51), "snapshot values"),
        (_snapshot_bytes(2, [5, 5], 0.25, 50) + b"\0", "snapshot values"),
    ], ids=["empty", "n_zero", "n_negative", "header_cut", "count_negative", "count_zero",
            "h_nan", "h_inf", "h_zero", "h_negative", "payload_short", "payload_long",
            "payload_ragged"])
    def test_bad_header_or_payload_names_its_field(self, tmp_path, raw, field):
        path = tmp_path / "grid.bin"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=field):
            read_snapshot(path)

    def test_wrong_dimension_names_the_payload(self, tmp_path):
        # a 5x5 grid of 2-vectors written, its n rewritten as 3: the third
        # count is h's bits and h the first value, so the payload cannot match
        g = make_grid(identity_map(2), (5, 5), 0.25, origin=[1.0, 2.0])
        path = tmp_path / "grid.bin"
        write_snapshot(g, path)
        raw = bytearray(path.read_bytes())
        raw[:8] = np.array([3], dtype="<i8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="snapshot values: n = 3"):
            read_snapshot(path)

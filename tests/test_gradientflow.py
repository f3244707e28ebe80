"""Grid sampling, energy quadrature, stable stepping, and flow runs."""

import dataclasses

import numpy as np
import pytest

from qcflow import DeterminantCollapse, NonFiniteValue, NonPositiveDeterminant, gradientflow
from qcflow.gradientflow import (
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
from qcflow.maps import affine_map, bump_map, identity_map, make_map, radial_stretch
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

    def test_boundary_mask_is_box_edge(self):
        g = identity_grid((6, 5), 0.1)
        assert g.boundary_mask[0].all() and g.boundary_mask[-1].all()
        assert g.boundary_mask[:, 0].all() and g.boundary_mask[:, -1].all()
        assert not g.boundary_mask[1:-1, 1:-1].any()

    def test_det_cache_positive(self):
        g = bump_grid((17, 17), 1.0 / 16.0)
        assert np.min(g.det_cache) > 0.0

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_grid(identity_map(2), (9, 9, 9), 0.1)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            make_grid(identity_map(2), (3, 9), 0.1)


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

    def test_nan_value_rejected(self):
        g = bump_grid((9, 9), 1.0 / 8.0)
        values = g.values.copy()
        values[4, 4, 0] = np.nan
        broken = dataclasses.replace(g, values=values)
        for fn in (interior_operator, energy, compatibility_check):
            with pytest.raises(NonFiniteValue):
                fn(broken, 2.0)


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
        # the stop rule alone runs at that length.
        dt, n_steps = 0.0009572206494414425, 38032
        t = 0.0
        for _ in range(n_steps):
            t += dt
        assert t < n_steps * dt * (1.0 - 1e-12)

        def advance(grid, update, step_dt, det_floor):
            assert step_dt > 0.0
            return grid, None

        monkeypatch.setattr(gradientflow, "dtmax", lambda grid, p, safety: dt)
        monkeypatch.setattr(gradientflow, "_interior_update", lambda *args: None)
        monkeypatch.setattr(gradientflow, "_advance", advance)
        monkeypatch.setattr(gradientflow, "_energy", lambda *args: 0.0)
        stats = run_flow(identity_grid((4, 4), 1.0 / 3.0), 2.0, n_steps * dt,
                         mode="picard", outer=2)
        assert stats.halt_reason is None
        assert stats.times.size - 1 == n_steps

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

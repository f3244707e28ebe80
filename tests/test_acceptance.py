"""End-to-end acceptance gates.

One test per shipped guarantee. Each prints a single pass or fail line
with its measured margins and wall time, then asserts the stated
tolerances and the runtime budget.
"""

import math
import time

import numpy as np
from oracles import pathwise_derivative_pairs

from qcflow import flowlines, gradientflow, maps, operators, tensor, traces
from qcflow.errors import GuardViolation, NonPositiveDeterminant
from qcflow.verify import (
    invariance_sample,
    random_jet,
    run_suite,
    suite_names,
)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


class TestAcceptance:
    def test_01_radial_stretch_exactness(self):
        start = time.perf_counter()
        n = 3
        rng = np.random.default_rng(101)
        worst_ksq = worst_inf = worst_lp = 0.0
        for alpha in (0.5, 2.0, 3.0):
            mapping = maps.radial_stretch(alpha, n)
            expected_ksq = (n + alpha**2 - 1.0) / alpha ** (2.0 / n)
            for _ in range(100):
                x = rng.standard_normal(n)
                x *= float(rng.uniform(0.5, 2.0)) / np.linalg.norm(x)
                jet = mapping.jet(x)
                ksq = float(tensor.trace_dilation(jet.J)) ** 2
                worst_ksq = max(worst_ksq, abs(ksq - expected_ksq) / expected_ksq)
                worst_inf = max(worst_inf, float(np.max(np.abs(operators.linfty_factored(jet)))))
                lp = operators.lp_nondiv(jet, 2.0)
                ref = maps.radial_lp(alpha, n, 2.0, x)
                worst_lp = max(
                    worst_lp,
                    float(np.linalg.norm(lp - ref)) / float(np.linalg.norm(ref)),
                )
        elapsed = time.perf_counter() - start
        ok = worst_ksq <= 1e-12 and worst_inf <= 1e-8 and worst_lp <= 1e-8 and elapsed < 1.0
        report(1, "radial stretch exactness", ok,
               f"Ksq rel {worst_ksq:.1e}, Linf {worst_inf:.1e}, Lp rel {worst_lp:.1e}, {elapsed:.2f}s")
        assert worst_ksq <= 1e-12
        assert worst_inf <= 1e-8
        assert worst_lp <= 1e-8
        assert elapsed < 1.0

    def test_02_wedge_map_exactness(self):
        start = time.perf_counter()
        alpha = math.pi / 2.0
        mapping = maps.wedge_map(alpha, 3)
        rng = np.random.default_rng(102)
        worst_det = worst_nsq = worst_inf = 0.0
        sectors = (
            (math.pi / alpha, (0.05, alpha - 0.05)),
            (math.pi / (2.0 * math.pi - alpha), (alpha + 0.05, 2.0 * math.pi - 0.05)),
        )
        for stretch, (lo, hi) in sectors:
            expected_nsq = 2.0 + stretch**2
            for _ in range(50):
                r = float(rng.uniform(0.3, 2.0))
                th = float(rng.uniform(lo, hi))
                z = float(rng.uniform(-1.0, 1.0))
                jet = mapping.jet(np.array([r * math.cos(th), r * math.sin(th), z]))
                worst_det = max(worst_det, abs(float(np.linalg.det(jet.J)) - stretch))
                worst_nsq = max(worst_nsq, abs(float(np.sum(jet.J**2)) - expected_nsq))
                worst_inf = max(worst_inf, float(np.max(np.abs(operators.linfty_factored(jet)))))
        elapsed = time.perf_counter() - start
        ok = worst_det <= 1e-12 and worst_nsq <= 1e-12 and worst_inf <= 1e-8 and elapsed < 1.0
        report(2, "wedge map exactness", ok,
               f"det {worst_det:.1e}, normSq {worst_nsq:.1e}, Linf {worst_inf:.1e}, {elapsed:.2f}s")
        assert worst_det <= 1e-12
        assert worst_nsq <= 1e-12
        assert worst_inf <= 1e-8
        assert elapsed < 1.0

    def test_03_conformal_invariance(self):
        start = time.perf_counter()
        rng = np.random.default_rng(103)
        worst_post = worst_pre = worst_sg = 0.0
        done = 0
        while done < 200:
            u, f, x, y = invariance_sample(rng)
            try:
                ku = float(tensor.trace_dilation(u.jet(x).J))
                post = maps.compose(f, u)
                worst_post = max(
                    worst_post, abs(float(tensor.trace_dilation(post.jet(x).J)) - ku)
                )
                xb = f.inverse().value(y)
                pre = maps.compose(u, f)
                ku_at = float(tensor.trace_dilation(u.jet(f.value(xb)).J))
                worst_pre = max(
                    worst_pre, abs(float(tensor.trace_dilation(pre.jet(xb).J)) - ku_at)
                )
                sg_post = tensor.ahlfors(tensor.distortion_tensor(post.jet(x).J))
                image = u.value(x)
                df = f.jacobian(image)
                lam = f.conformal_factor(image)
                sg_u = tensor.ahlfors(tensor.distortion_tensor(u.jet(x).J))
                worst_sg = max(
                    worst_sg, float(np.max(np.abs(sg_post - (df @ sg_u @ df.T) / lam)))
                )
            except (NonPositiveDeterminant, GuardViolation):
                continue
            done += 1
        elapsed = time.perf_counter() - start
        ok = worst_post <= 1e-9 and worst_pre <= 1e-9 and worst_sg <= 1e-8 and elapsed < 5.0
        report(3, "conformal invariance", ok,
               f"post {worst_post:.1e}, pre {worst_pre:.1e}, Sg conj {worst_sg:.1e}, {elapsed:.2f}s")
        assert worst_post <= 1e-9
        assert worst_pre <= 1e-9
        assert worst_sg <= 1e-8
        assert elapsed < 5.0

    def test_04_operator_consistency(self):
        start = time.perf_counter()
        rng = np.random.default_rng(104)
        worst = 0.0
        for _ in range(500):
            jet = random_jet(int(rng.integers(2, 5)), rng)
            a = operators.linfty_factored(jet)
            b = operators.linfty_flowform(jet)
            worst = max(worst, float(np.linalg.norm(a - b)) / (1.0 + float(np.linalg.norm(b))))

        mapping = maps.radial_stretch(2.0, 3)
        x = np.array([0.7, -0.4, 0.5])
        ref = operators.lp_nondiv(mapping.jet(x), 2.0)
        errs = [
            float(np.linalg.norm(operators.lp_divergence(mapping, x, 2.0, h=h) - ref))
            for h in (1e-3, 5e-4)
        ]
        div_ratio = errs[0] / errs[1]

        jet = random_jet(3, np.random.default_rng(7))
        ref_inf = operators.linfty_factored(jet)
        perr = [
            float(np.linalg.norm(operators.lp_asymptotic_ratio(jet, p) - ref_inf))
            for p in (10.0, 100.0, 1000.0)
        ]
        p_ratios = (perr[0] / perr[1], perr[1] / perr[2])
        elapsed = time.perf_counter() - start
        ok = (worst <= 1e-8 and 3.2 <= div_ratio <= 4.8
              and all(7.0 <= r <= 13.0 for r in p_ratios) and elapsed < 10.0)
        report(4, "operator consistency", ok,
               f"factored/flowform {worst:.1e}, div ratio {div_ratio:.2f}, "
               f"1/p ratios {p_ratios[0]:.1f} {p_ratios[1]:.1f}, {elapsed:.2f}s")
        assert worst <= 1e-8
        assert 3.2 <= div_ratio <= 4.8
        for r in p_ratios:
            assert 7.0 <= r <= 13.0
        assert elapsed < 10.0

    def test_05_rank_one_ellipticity_sandwich(self):
        start = time.perf_counter()
        rng = np.random.default_rng(105)
        violations = 0
        regimes = ((2, 2.0), (2, 5.0), (3, 1.0), (3, 2.0), (3, 5.0))
        for n, p in regimes:
            for _ in range(1000):
                q = random_jet(n, rng).J
                xi = rng.standard_normal(n)
                eta = rng.standard_normal(n)
                w = operators.lh_witness(q, xi, eta, p)
                if not (w.lower <= w.quadForm <= w.upper):
                    violations += 1
        elapsed = time.perf_counter() - start
        ok = violations == 0 and elapsed < 2.0
        report(5, "rank-one ellipticity sandwich", ok,
               f"{violations} violations in {len(regimes) * 1000} draws, {elapsed:.2f}s")
        assert violations == 0
        assert elapsed < 2.0

    def test_06_flow_line_constancy(self):
        start = time.perf_counter()
        mapping = maps.teichmuller_example(2)
        rng = np.random.default_rng(106)
        drift = 0.0
        samples = 0
        for _ in range(20):
            x0 = rng.standard_normal(2)
            x0 *= float(rng.uniform(0.1, 0.7)) / np.linalg.norm(x0)
            traj = flowlines.trace_flowline(mapping, x0, ds=1e-3, max_len=1.0)
            drift = max(drift, float(np.max(np.abs(traj.K - traj.K[0]))))
            samples += len(traj)
        lines_s = time.perf_counter() - start

        # the pathwise derivative identity needs a map the flow does NOT solve
        poly = maps.polynomial_map(2, seed=9, amplitude=0.06)
        traj = flowlines.trace_flowline(poly, [0.2, -0.1], ds=2e-4, max_len=0.3)
        samples += len(traj)
        pairs = pathwise_derivative_pairs(poly, traj)
        fd = np.array([a for a, _ in pairs])
        formula = np.array([b for _, b in pairs])
        floor = max(0.05 * float(np.max(np.abs(formula))), 1e-12)
        worst = float(np.max(np.abs(fd - formula) / np.maximum(np.abs(formula), floor)))
        elapsed = time.perf_counter() - start
        ok = drift <= 1e-6 and worst <= 1e-5 and len(pairs) > 100 and elapsed < 5.0
        report(6, "flow line constancy", ok,
               f"K drift {drift:.1e}, pathwise {worst:.1e} over {len(pairs)} samples, "
               f"teichmuller lines {lines_s:.2f}s, pathwise part {elapsed - lines_s:.2f}s, "
               f"{samples} RK4 samples, {elapsed:.2f}s")
        assert drift <= 1e-6
        assert worst <= 1e-5
        assert len(pairs) > 100
        assert elapsed < 5.0

    def test_07_trace_relations(self):
        start = time.perf_counter()
        rng = np.random.default_rng(107)
        sphere = traces.Sphere(center=(0.0, 0.0, 0.0), radius=1.0)
        worst_slack = np.inf
        worst_block = 0.0
        for _ in range(500):
            j = random_jet(3, rng).J
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            rec = traces.trace_inequality_check(maps.affine_map(j), sphere, x)
            worst_slack = min(worst_slack, rec.slack)
            worst_block = max(worst_block, rec.block_norm_residual, rec.block_det_residual)

        worst_crit = 0.0
        for k in range(100):
            rng_k = np.random.default_rng((1007, k))
            normal = rng_k.standard_normal(3)
            normal /= np.linalg.norm(normal)
            stretches = np.exp(rng_k.uniform(-0.5, 0.5, size=2))
            j = traces.eigen_aligned_linear(normal, stretches, seed=k)
            rec = traces.critical_equality_check(j, normal)
            worst_crit = max(worst_crit, abs(rec.lhs - rec.rhs) / abs(rec.rhs))

        hand = traces.critical_equality_check(
            np.diag([math.sqrt(2.0), 1.0, math.sqrt(3.0)]), np.array([1.0, 0.0, 0.0])
        )
        hand_err = max(abs(hand.lhs - 4.0 / math.sqrt(3.0)),
                       abs(hand.rhs - 4.0 / math.sqrt(3.0)))
        elapsed = time.perf_counter() - start
        ok = (worst_slack >= -1e-10 and worst_block <= 1e-10
              and worst_crit <= 1e-9 and hand_err <= 1e-9 and elapsed < 2.0)
        report(7, "trace relations", ok,
               f"min slack {worst_slack:.2f}, blocks {worst_block:.1e}, "
               f"critical {worst_crit:.1e}, hand case {hand_err:.1e}, {elapsed:.2f}s")
        assert worst_slack >= -1e-10
        assert worst_block <= 1e-10
        assert worst_crit <= 1e-9
        assert hand_err <= 1e-9
        assert elapsed < 2.0

    def test_08_gradient_flow_desk_run(self):
        start = time.perf_counter()
        shape = (33, 33)
        h = 1.0 / 32.0
        grid = gradientflow.make_grid(maps.bump_map(2), shape, h)
        stats = gradientflow.run_flow(grid, 2.0, 0.002)
        baseline = gradientflow.energy(
            gradientflow.make_grid(maps.identity_map(2), shape, h), 2.0
        )
        steps = len(stats.times) - 1
        tol = 1e-12 * (1.0 + stats.energy[0])
        monotone = all(b <= a + tol for a, b in zip(stats.energy, stats.energy[1:]))
        det_ok = min(stats.min_det) >= 0.5 * stats.min_det[0]
        elapsed = time.perf_counter() - start
        ok = (stats.halt_reason is None and monotone and det_ok and steps >= 200
              and stats.energy[-1] <= 1.01 * baseline and elapsed < 60.0)
        report(8, "gradient flow desk run", ok,
               f"{steps} steps, energy {stats.energy[0]:.4f} to {stats.energy[-1]:.4f}, "
               f"baseline {baseline:.4f}, {elapsed:.2f}s")
        assert stats.halt_reason is None
        assert monotone
        assert det_ok
        assert steps >= 200
        assert stats.energy[-1] <= 1.01 * baseline
        assert elapsed < 60.0

    def test_09_flow_scaling_equivariance(self):
        # v(x, t) = 2 u(2x, t/4) solves the same flow; the discrete
        # scheme shares the property, so matched runs agree to round-off
        start = time.perf_counter()
        horizon = 2e-4
        bump = maps.bump_map(2)
        double = maps.affine_map(2.0 * np.eye(2))
        rescaled = maps.compose(double, maps.compose(bump, double))

        base_grid = gradientflow.make_grid(bump, (33, 33), 1.0 / 32.0)
        v_grid = gradientflow.make_grid(rescaled, (33, 33), 1.0 / 64.0)
        assert float(np.max(np.abs(v_grid.values - 2.0 * base_grid.values))) == 0.0

        base_stats = gradientflow.run_flow(base_grid, 2.0, horizon)
        v_stats = gradientflow.run_flow(v_grid, 2.0, 4.0 * horizon)
        steps_match = len(v_stats.times) == len(base_stats.times)
        energy_gap = float(
            np.max(np.abs(np.array(v_stats.energy) - np.array(base_stats.energy)))
        )
        mismatch = float(
            np.max(np.abs(v_stats.final_grid.values - 2.0 * base_stats.final_grid.values))
        )

        fine = gradientflow.make_grid(bump, (65, 65), 1.0 / 64.0)
        fine_stats = gradientflow.run_flow(fine, 2.0, horizon)
        disc = float(
            np.max(np.abs(fine_stats.final_grid.values[::2, ::2] - base_stats.final_grid.values))
        )
        elapsed = time.perf_counter() - start
        ok = (steps_match and energy_gap <= 1e-11 and disc > 0.0
              and mismatch <= 2.0 * disc and elapsed < 120.0)
        report(9, "flow scaling equivariance", ok,
               f"mismatch {mismatch:.1e} vs 2x grid-halving error {2.0 * disc:.1e}, "
               f"energy gap {energy_gap:.1e}, {elapsed:.2f}s")
        assert steps_match
        assert energy_gap <= 1e-11
        assert disc > 0.0
        assert mismatch <= 2.0 * disc
        assert elapsed < 120.0

    def test_10_suite_determinism(self):
        start = time.perf_counter()
        stable = []
        for suite in suite_names():
            first = run_suite(suite, seed=11).to_json()
            second = run_suite(suite, seed=11).to_json()
            stable.append(first == second)
        elapsed = time.perf_counter() - start
        ok = all(stable)
        report(10, "suite determinism", ok,
               f"{sum(stable)}/{len(stable)} suites byte-identical, {elapsed:.2f}s")
        assert all(stable)

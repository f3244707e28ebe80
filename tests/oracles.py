"""Test-only oracles: finite-difference jets, a plain chain fold, the polynomial map's
einsum jets, a flow-line walk on numpy arrays, a path-integral drift check, the derivative form of the pathwise dilation identity,
verify's random draws one at a time, a plain cofactor expansion, and a recompute-everything
grid flow, whose picard mode differences each saved state again.

None is part of the package; the tests check the exact jets, the folded
composites, the polynomial map's entry-first sums, trace_flowline, the differential-drift identity, the pathwise
identity, verify's block reader, tensor's cofactors and run_flow (both modes) against them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from qcflow.errors import (DeterminantCollapse, GuardViolation, NonFiniteValue, RowSwitched,
                           StepFailure)
from qcflow.flowlines import (DEGENERACY_TOL, FlowTrajectory, _pick_row, _row_norms,
                              ball_domain, flow_field)
from qcflow.gradientflow import ENERGY_TOL_SCALE, FlowRunStats, GridField
from qcflow.maps import SmoothMap, _polynomial_coefficients
from qcflow.operators import (Jet2Sample, _contracted_operator, _operator_coefficients,
                              flux_linearization, linfty_factored)
from qcflow.tensor import _dilation_field, _positive


def fd_map(value_fn: Callable[[np.ndarray], np.ndarray], n: int, h: float) -> SmoothMap:
    """Map defined by a value function with centered-difference jets.

    value_fn takes a stack of points (..., n), as the samplers do. h is
    the difference step, fixed for every point. First and second
    derivatives both converge at order two; the mixed second derivatives
    are symmetrized.
    """

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        u = np.asarray(value_fn(x), dtype=float)
        j = np.zeros(x.shape[:-1] + (n, n))
        hess = np.zeros(x.shape[:-1] + (n, n, n))
        shifts = h * np.eye(n)
        plus = [np.asarray(value_fn(x + shifts[a]), dtype=float) for a in range(n)]
        minus = [np.asarray(value_fn(x - shifts[a]), dtype=float) for a in range(n)]
        for a in range(n):
            j[..., :, a] = (plus[a] - minus[a]) / (2.0 * h)
            hess[..., :, a, a] = (plus[a] - 2.0 * u + minus[a]) / h**2
        for a in range(n):
            for b in range(a + 1, n):
                pp = np.asarray(value_fn(x + shifts[a] + shifts[b]), dtype=float)
                pm = np.asarray(value_fn(x + shifts[a] - shifts[b]), dtype=float)
                mp = np.asarray(value_fn(x - shifts[a] + shifts[b]), dtype=float)
                mm = np.asarray(value_fn(x - shifts[a] - shifts[b]), dtype=float)
                mixed = (pp - pm - mp + mm) / (4.0 * h**2)
                hess[..., :, a, b] = mixed
                hess[..., :, b, a] = mixed
        return u, j, hess

    return SmoothMap(n=n, jet_fn=jet_fn)


def _product_rule(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, each sum from +0.0 and left to right."""
    prod = a[..., :, None, :] * np.swapaxes(b, -1, -2)[..., None, :, :]
    total = 0.0 + prod[..., 0]
    for m in range(1, prod.shape[-1]):
        total = total + prod[..., m]
    return total


def chain(outer: tuple, inner: tuple) -> tuple:
    """Chain rule on raw (u, J) or (u, J, H) jets, outer's taken at inner's u.

    J is the product rule's product, H outer J . inner H plus
    outer H : (inner J, inner J) by einsum.
    """
    j = _product_rule(outer[1], inner[1])
    if len(inner) == 2:
        return outer[0], j
    h = (np.einsum("...km,...mab->...kab", outer[1], inner[2])
         + np.einsum("...kms,...ma,...sb->...kab", outer[2], inner[1], inner[1]))
    return outer[0], j, h


def chained_map(composite) -> SmoothMap:
    """The composite's factors folded by a plain chain, one factor after another.

    No product is precomputed and no factor is sign-checked: each factor's
    own sampler is taken at the previous factor's value, innermost first,
    and chained onto the jet so far.
    """

    def jet_fn(x: np.ndarray, order: int) -> tuple:
        jet = (x,)
        for factor in composite.factors:
            raw = factor.jet_fn(jet[0], order)[: order + 1]
            jet = raw if len(jet) == 1 else chain(raw, jet)
        return jet

    return SmoothMap(n=composite.n, jet_fn=jet_fn)


def polynomial_einsum(n: int, seed: int, amplitude: float, x: np.ndarray) -> tuple:
    """polynomial_map's (u, J) at a point or a stack by einsum, in einsum's own sum order."""
    c2, c3 = _polynomial_coefficients(n, seed)
    u = x + amplitude * (
        np.einsum("kab,...a,...b->...k", c2, x, x)
        + np.einsum("kabc,...a,...b,...c->...k", c3, x, x, x)
    )
    j = np.eye(n) + amplitude * (
        2.0 * np.einsum("kab,...b->...ka", c2, x)
        + 3.0 * np.einsum("kabc,...b,...c->...ka", c3, x, x)
    )
    return u, j


def trace_flowline_arrays(mapping, x0, ds: float, max_len: float, domain=None) -> FlowTrajectory:
    """trace_flowline's walk with the position, velocity and stages as numpy arrays.

    Each sample reads J through mapping.jacobian and takes K and the
    field from tensor._dilation_field, each RK4 stage the field from
    flow_field; the RK4 combinations are array expressions, and the row
    norms are flowlines._row_norms of the field's entries. Takes valid
    arguments only: the start point, step and cap are not checked.
    """
    x = np.asarray(x0, dtype=float).copy()
    if domain is None:
        domain = ball_domain()
    if domain(x) >= 0.0:
        raise ValueError("flow line must start strictly inside the domain")

    samples = []  # one (s, x, K, row, speed, sign) per sample; x is never mutated

    def finish(reason: str) -> FlowTrajectory:
        s, x, k, row, speed, sign = (np.array(c) for c in zip(*samples))
        return FlowTrajectory(s=s, x=x, K=k, row=row, speed=speed, sign=sign,
                              terminated=reason)

    def stage_velocity(y: np.ndarray) -> np.ndarray:
        try:
            f = flow_field(mapping, y)
        except GuardViolation as exc:
            raise StepFailure(f"integrator stage left the map's domain: {exc}") from exc
        return sign * f[row - 1]

    s, row, sign = 0.0, None, 1.0
    while True:
        k_val, field = _dilation_field(mapping.jacobian(x))
        norms, total = _row_norms(field.ravel().tolist(), field.shape[1])
        if total <= DEGENERACY_TOL * (1.0 + k_val**2):
            if row is None:
                row = int(np.argmax(norms)) + 1
            samples.append((s, x, k_val, row, norms[row - 1], sign))
            return finish("degenerate")

        new_row = _pick_row(norms, row)
        if row is not None and new_row != row:
            sign = 1.0 if float(np.dot(field[new_row - 1], velocity)) >= 0.0 else -1.0
        row = new_row
        velocity = sign * field[row - 1]
        samples.append((s, x, k_val, row, norms[row - 1], sign))
        if not s < max_len - 1e-14:
            return finish("maxLength")

        step = min(ds, max_len - s)
        k1 = velocity
        k2 = stage_velocity(x + 0.5 * step * k1)
        k3 = stage_velocity(x + 0.5 * step * k2)
        k4 = stage_velocity(x + step * k3)
        x_new = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        if domain(x_new) >= 0.0:
            lo, hi = 0.0, 1.0
            chord = float(np.linalg.norm(x_new - x))
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if domain(x + mid * (x_new - x)) < 0.0:
                    lo = mid
                else:
                    hi = mid
                if (hi - lo) * chord < 1e-10:
                    break
            x_hit = x + lo * (x_new - x)
            k_val, field = _dilation_field(mapping.jacobian(x_hit))
            samples.append((s + lo * step, x_hit, k_val, row,
                            _row_norms(field.ravel().tolist(), field.shape[1])[0][row - 1], sign))
            return finish("boundary")
        s += step
        x = x_new


def path_integral_residual(mapping, trajectory: FlowTrajectory, row_index: int) -> float:
    """Fundamental-theorem check of the row-i differential drift.

    Integrates the chain-rule derivative of Jacobian row i along the
    recorded velocity and compares with the endpoint drift; the residual
    shrinks at second order in the step. Diagnostic companion to
    du_recovery_check with an integrand valid for every smooth map.
    """
    if not np.all(trajectory.row == row_index):
        raise RowSwitched("trajectory changed active row")
    i = int(row_index) - 1
    jets = [mapping.jet(x) for x in trajectory.x]
    integrand = np.array([np.einsum("lj,l->j", j.H[i], sign * _dilation_field(j.J)[1][i])
                          for j, sign in zip(jets, trajectory.sign)])
    integral = np.trapezoid(integrand, trajectory.s, axis=0)
    drift = jets[-1].J[i] - jets[0].J[i]
    return float(np.max(np.abs(drift - integral)))


def pathwise_derivative_pairs(mapping, traj) -> list:
    """Centered dilation derivative vs the row-field formula along a curve.

    Samples adjacent to a row or sign switch are dropped; each kept entry
    is (finite difference, formula value). The kept samples' jets come
    from one sampler call and one stacked linfty_factored. The difference
    carries a rounding of about eps K / ds, so the curve needs a fine step.
    """
    n = mapping.n
    row, sign = traj.row, traj.sign
    keep = np.flatnonzero((row[:-2] == row[1:-1]) & (row[1:-1] == row[2:])
                          & (sign[:-2] == sign[1:-1]) & (sign[1:-1] == sign[2:])) + 1
    if keep.size == 0:
        return []
    dk_fd = (traj.K[keep + 1] - traj.K[keep - 1]) / (traj.s[keep + 1] - traj.s[keep - 1])
    x = traj.x[keep]
    jets = Jet2Sample(x, *mapping.jet_fn(x, 2))
    nsq = (jets.J * jets.J).sum(axis=(-2, -1))
    lim = linfty_factored(jets)[np.arange(keep.size), row[keep] - 1]
    # powers are the C library's pow, as a single float's ** takes them
    kval = traj.K[keep]
    dk_formula = sign[keep] * np.float_power(kval, 3) / (n**2 * np.float_power(nsq, 2)) * lim
    return list(zip(dk_fd.tolist(), dk_formula.tolist()))


# ---------------------------------------------------------------------------
# verify's random draws, one rng call at a time


def jet_draws_one_at_a_time(n: int, rng: np.random.Generator, count: int, scale: float,
                            min_det: float, extra: int = 0) -> tuple:
    """verify._jet_draws as a loop: per draw, J = I + scale Z redrawn until LAPACK's det
    is above min_det, then H, x, u and extra normals, each its own rng call."""
    draws = []
    for _ in range(count):
        while True:
            j = np.eye(n) + scale * rng.standard_normal((n, n))
            if np.linalg.det(j) > min_det:
                break
        h = scale * rng.standard_normal((n, n, n))
        h = 0.5 * (h + np.swapaxes(h, 1, 2))
        draws.append((j, h, rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(extra)))
    return tuple(np.array(slot) for slot in zip(*draws))


def skipped_draws_one_at_a_time(n: int, rng: np.random.Generator, tries: int, tail: int,
                                scale: float, min_det: float) -> tuple:
    """verify._read_draws with skip as a loop: tries candidates J = I + scale Z; one whose
    det is not above min_det is dropped, and a kept one is followed by tail normals."""
    js, tails = [np.empty((0, n, n))], [np.empty((0, tail))]
    for _ in range(tries):
        j = np.eye(n) + scale * rng.standard_normal((n, n))
        if np.linalg.det(j) <= min_det:
            continue
        js.append(j[None])
        tails.append(rng.standard_normal(tail)[None])
    return np.concatenate(js), np.concatenate(tails)


# ---------------------------------------------------------------------------
# the grid flow with every field recomputed where it is read


def _gradient_jacobian(values: np.ndarray, h: float) -> np.ndarray:
    """J[i, a, *nodes] by np.gradient, second order at the edges."""
    v = np.ascontiguousarray(np.moveaxis(values, -1, 0))
    return np.stack([np.gradient(v, h, axis=1 + a, edge_order=2)
                     for a in range(v.shape[0])], axis=1)


def _expand_det(rows: list) -> np.ndarray:
    """Determinant of a nested list of entries by first-row cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0.0
    for j, entry in enumerate(rows[0]):
        term = entry * _expand_det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total - term if j % 2 else total + term
    return total


def _expansion_det_adj(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det and adjugate of an entry-first stack, every cofactor expanded anew on its first row.

    The plain form of tensor._cofactors at every n, whose 2x2 and 3x3
    cofactors are written out and whose 4x4 branch takes each shared 2x2
    minor once instead.
    """
    n = a.shape[0]
    rows = [[a[i, j] for j in range(n)] for i in range(n)]
    adj = np.empty_like(a)
    for i in range(n):
        for j in range(n):
            cof = _expand_det([r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i])
            adj[j, i] = -cof if (i + j) % 2 else cof
    return sum(rows[0][j] * adj[j, 0] for j in range(n)), adj


def _checked_det_adj(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det and adjugate of an entry-first stack with finite entries and positive det."""
    if not np.all(np.isfinite(a)):
        raise NonFiniteValue("matrix entries must be finite")
    det, adj = _expansion_det_adj(a)
    return _positive(det), adj


def _operator(q: np.ndarray, hess: np.ndarray, p: float) -> np.ndarray:
    """_contracted_operator with q's det, adjugate and |q|^2 taken and checked anew."""
    coeff = _operator_coefficients(q, *_checked_det_adj(q), np.sum(q * q, axis=(0, 1)), p)
    return _contracted_operator(coeff, hess)


def _shift(v: np.ndarray, offsets) -> np.ndarray:
    """Entry-first values at interior nodes displaced by an offset vector."""
    return v[(slice(None),) + tuple(slice(1 + o, m - 1 + o)
                                    for o, m in zip(offsets, v.shape[1:]))]


def _interior_hessian(v: np.ndarray, h: float) -> np.ndarray:
    """H[i, a, b, *interior] from unit offset vectors, not per-axis slices."""
    n = v.shape[0]
    unit = np.eye(n, dtype=int)
    center = _shift(v, [0] * n)
    hess = np.empty((n, n, n) + center.shape[1:])
    for a in range(n):
        hess[:, a, a] = (_shift(v, unit[a]) - 2.0 * center + _shift(v, -unit[a])) / h**2
        for b in range(a + 1, n):
            ea, eb = unit[a], unit[b]
            hess[:, a, b] = hess[:, b, a] = (
                _shift(v, ea + eb) - _shift(v, ea - eb) - _shift(v, eb - ea)
                + _shift(v, -ea - eb)
            ) / (4.0 * h**2)
    return hess


def _full_hessian(values: np.ndarray, h: float) -> np.ndarray:
    """H[i, a, b, *nodes] with the mixed derivatives through np.gradient."""
    v = np.ascontiguousarray(np.moveaxis(values, -1, 0))
    n = v.shape[0]
    hess = np.empty((n, n) + v.shape)
    for a in range(n):
        grad = np.gradient(v, h, axis=1 + a, edge_order=2)
        for b in range(n):
            if a == b:
                d2 = np.moveaxis(hess[:, a, a], 1 + a, 0)
                w = np.moveaxis(v, 1 + a, 0)
                d2[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h**2
                d2[0] = (2.0 * w[0] - 5.0 * w[1] + 4.0 * w[2] - w[3]) / h**2
                d2[-1] = (2.0 * w[-1] - 5.0 * w[-2] + 4.0 * w[-3] - w[-4]) / h**2
            else:
                hess[:, a, b] = np.gradient(grad, h, axis=1 + b, edge_order=2)
    return 0.5 * (hess + np.swapaxes(hess, 1, 2))


def _energy(jac: np.ndarray, det: np.ndarray, h: float, p: float) -> float:
    """Trapezoidal mean of K^{np}, |J|^2 taken from jac."""
    n = jac.shape[0]
    ksq = np.sum(jac * jac, axis=(0, 1)) / det ** (2.0 / n)
    total = ksq ** (n * p / 2.0)
    for _ in range(n):
        total = np.trapezoid(total, dx=h, axis=-1)
    return float(total) / float(np.prod([(m - 1) * h for m in det.shape]))


def _update(coeff_jac: np.ndarray, values: np.ndarray, h: float, p: float) -> np.ndarray:
    """Interior operator from the interior of a full-grid coefficient Jacobian."""
    interior = (slice(None),) * 2 + (slice(1, -1),) * (values.ndim - 1)
    v = np.ascontiguousarray(np.moveaxis(values, -1, 0))
    return _operator(coeff_jac[interior], _interior_hessian(v, h), p)


def _advance(grid: GridField, update: np.ndarray, dt: float, det_floor: float):
    """Stepped grid and its Jacobian, stepped values-last; the determinant is taken and floored here."""
    values = grid.values.copy()
    interior = (slice(None),) + tuple(slice(1, -1) for _ in grid.shape)
    np.moveaxis(values, -1, 0)[interior] += dt * update
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue("explicit step produced non-finite values")
    jac = _gradient_jacobian(values, grid.h)
    det = _expansion_det_adj(jac)[0]
    if not float(np.min(det)) >= det_floor:
        raise DeterminantCollapse("step drove min det below the floor")
    return GridField(values=values, h=grid.h, origin=grid.origin, det_cache=det), jac


def recompute_flow(grid: GridField, p: float, t_final: float, mode: str = "explicit",
                   safety: float = 0.2, outer: int = 3) -> FlowRunStats:
    """run_flow as a loop that differences and factors a state wherever it is read.

    Jacobians come from np.gradient, each step's coefficients are
    factored and checked anew on the interior by the plain cofactor
    expansion, states are stepped values-last, the energy takes |J|^2
    again and integrates by np.trapezoid, and the set-up differences u0
    once per consumer. Picard mode keeps every pass's states and
    differences each again where a later pass reads it. Arguments are
    taken as valid; the stats must equal run_flow's bit for bit.
    """
    explicit = mode == "explicit"
    h = grid.h
    jac0 = _gradient_jacobian(grid.values, h)
    a4 = flux_linearization(np.moveaxis(jac0, (0, 1), (-2, -1)), p)
    dt0 = safety * h**2 / float(np.max(np.sum(np.abs(a4), axis=(-3, -2, -1))))
    resid = _operator(jac0, _full_hessian(grid.values, h), p)
    compat = float(np.max(np.abs(resid[:, grid.boundary_mask])))
    det_floor = 0.5 * float(np.min(grid.det_cache))
    e0 = _energy(jac0, _checked_det_adj(jac0)[0], h, p)
    tol = ENERGY_TOL_SCALE * (1.0 + abs(e0))

    violations = 0
    frozen = None  # the previous pass's states; the first pass freezes at u0
    for _ in range(1 if explicit else outer):
        current, jac, t, dt, e_prev, consecutive, halt = grid, jac0, 0.0, dt0, e0, 0, None
        times, energies, min_dets, dts = [0.0], [e0], [float(np.min(grid.det_cache))], [0.0]
        states = [grid.values]
        update = None
        while True:
            k = len(times) - 1
            remaining = t_final - (t if explicit else k * dt)
            if not remaining > 1e-12 * t_final:
                break
            step_dt = min(dt, remaining)
            if update is None:
                if explicit:
                    coeff = jac
                elif frozen is None:
                    coeff = jac0
                else:
                    coeff = _gradient_jacobian(frozen[k], h)
                update = _update(coeff, current.values, h, p)
            try:
                candidate, candidate_jac = _advance(current, update, step_dt, det_floor)
            except DeterminantCollapse:
                halt = "determinant_collapse"
                break
            except NonFiniteValue:
                halt = "non_finite"
                break
            e_new = _energy(candidate_jac, candidate.det_cache, h, p)
            if e_new > e_prev + tol:
                violations += 1
                consecutive += 1
                if consecutive >= 5:
                    halt = "unstable"
                    break
                if explicit:
                    dt *= 0.5
                    continue
            else:
                consecutive = 0
            current, jac, t, e_prev, update = candidate, candidate_jac, t + step_dt, e_new, None
            times.append(t)
            energies.append(e_new)
            min_dets.append(float(np.min(current.det_cache)))
            dts.append(step_dt)
            states.append(current.values)
        if halt is not None:
            break
        frozen = states

    return FlowRunStats(times=np.array(times), energy=np.array(energies),
                        min_det=np.array(min_dets), dt_history=np.array(dts),
                        halt_reason=halt, compat_residual=compat, violations=violations,
                        final_grid=current)

"""Finite-difference gradient flow of the dilation energy.

Discretizes maps on uniform rectangular grids with Dirichlet boundary
data and advances interior nodes by forward Euler on the non-divergence
form of the finite-p operator. One stepping loop serves both modes; they
differ only in where a step takes its coefficients and in how it treats
an energy rise. explicit mode reads the coefficients off the current
state, rejects a step that raises the energy and halves dt. picard mode
re-integrates the horizon at fixed dt against the previous pass's saved
states (the first pass freezes them at the initial data), keeps a step
that raises the energy and counts it as a violation. In both modes five
consecutive violations, a determinant below half the initial minimum,
or a non-finite value halt the run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DeterminantCollapse, NonFiniteValue
from .operators import flux_linearization
from .tensor import _positive_det

DEFAULT_SAFETY = 0.2
ENERGY_TOL_SCALE = 1e-12
MAX_CONSECUTIVE_VIOLATIONS = 5


@dataclass
class GridField:
    """Uniform-grid samples of a map with fixed boundary nodes.

    values has one length-n vector per node, shape (*shape, n); the
    boundary mask marks nodes held fixed by the stepper; det_cache holds
    the per-node determinant of the current difference Jacobian.
    """

    values: np.ndarray
    h: float
    origin: np.ndarray
    boundary_mask: np.ndarray
    det_cache: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    @property
    def shape(self) -> tuple:
        return self.values.shape[:-1]

    def node_coordinates(self) -> np.ndarray:
        axes = [self.origin[a] + self.h * np.arange(m) for a, m in enumerate(self.shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)


def _jacobian_field(values: np.ndarray, h: float) -> np.ndarray:
    """J[..., i, a] = d_a u^i by central differences, one-sided at edges."""
    n = values.shape[-1]
    grads = [np.gradient(values, h, axis=a, edge_order=2) for a in range(n)]
    return np.stack(grads, axis=-1)


def make_grid(mapping, shape, h: float, origin=None) -> GridField:
    """Sample a map's values on a uniform grid with the given node counts."""
    shape = tuple(int(m) for m in shape)
    n = mapping.n
    if len(shape) != n:
        raise ValueError("grid rank must match the map dimension")
    if min(shape) < 4:
        raise ValueError("need at least 4 nodes per axis")
    origin = np.zeros(n) if origin is None else np.asarray(origin, dtype=float)
    values = np.empty(shape + (n,))
    for idx in np.ndindex(shape):
        x = origin + h * np.asarray(idx, dtype=float)
        values[idx] = mapping.value(x)
    mask = np.zeros(shape, dtype=bool)
    for a in range(n):
        sl_lo = [slice(None)] * n
        sl_lo[a] = 0
        mask[tuple(sl_lo)] = True
        sl_hi = [slice(None)] * n
        sl_hi[a] = shape[a] - 1
        mask[tuple(sl_hi)] = True
    return GridField(
        values=values,
        h=h,
        origin=origin,
        boundary_mask=mask,
        det_cache=np.linalg.det(_jacobian_field(values, h)),
    )


def _interior_view(values: np.ndarray, offsets) -> np.ndarray:
    """Values at interior nodes displaced by the given per-axis offsets."""
    shape = values.shape[:-1]
    sl = tuple(slice(1 + o, m - 1 + o) for o, m in zip(offsets, shape))
    return values[sl]


def _interior_jacobian(values: np.ndarray, h: float) -> np.ndarray:
    n = values.shape[-1]
    cols = []
    for a in range(n):
        off_p = [0] * n
        off_p[a] = 1
        off_m = [0] * n
        off_m[a] = -1
        cols.append((_interior_view(values, off_p) - _interior_view(values, off_m)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _interior_hessian(values: np.ndarray, h: float) -> np.ndarray:
    n = values.shape[-1]
    inner_shape = tuple(m - 2 for m in values.shape[:-1])
    hess = np.empty(inner_shape + (n, n, n))
    center = _interior_view(values, [0] * n)
    for a in range(n):
        for b in range(a, n):
            if a == b:
                off = [0] * n
                off[a] = 1
                plus = _interior_view(values, off)
                off[a] = -1
                minus = _interior_view(values, off)
                arr = (plus - 2.0 * center + minus) / h**2
            else:
                off = [0] * n
                off[a], off[b] = 1, 1
                pp = _interior_view(values, off)
                off[a], off[b] = 1, -1
                pm = _interior_view(values, off)
                off[a], off[b] = -1, 1
                mp = _interior_view(values, off)
                off[a], off[b] = -1, -1
                mm = _interior_view(values, off)
                arr = (pp - pm - mp + mm) / (4.0 * h**2)
            hess[..., :, a, b] = arr
            if b != a:
                hess[..., :, b, a] = arr
    return hess


def _full_hessian(values: np.ndarray, h: float) -> np.ndarray:
    """Hessian at every node; one-sided second-order stencils on the edges."""
    n = values.shape[-1]
    shape = values.shape[:-1]
    grads = [np.gradient(values, h, axis=a, edge_order=2) for a in range(n)]
    hess = np.empty(shape + (n, n, n))
    for a in range(n):
        for b in range(n):
            if a == b:
                v = np.moveaxis(values, a, 0)
                d2 = np.empty_like(v)
                d2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
                d2[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
                d2[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
                hess[..., :, a, a] = np.moveaxis(d2, 0, a)
            else:
                hess[..., :, a, b] = np.gradient(grads[a], h, axis=b, edge_order=2)
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def _energy(jac: np.ndarray, det: np.ndarray, h: float, p: float) -> float:
    """Trapezoidal mean of K^{np} from a full-grid Jacobian and its determinant."""
    n = jac.shape[-1]
    nsq = np.sum(jac * jac, axis=(-2, -1))
    ksq = nsq / det ** (2.0 / n)
    total = ksq ** (n * p / 2.0)
    for _ in range(n):
        total = np.trapezoid(total, dx=h, axis=-1)
    volume = float(np.prod([(m - 1) * h for m in det.shape]))
    return float(total) / volume


def energy(grid: GridField, p: float) -> float:
    """Mean of K^{np} over the box by trapezoidal quadrature."""
    jac = _jacobian_field(grid.values, grid.h)
    return _energy(jac, _positive_det(jac), grid.h, p)


def compatibility_check(grid: GridField, p: float) -> float:
    """Largest boundary-node magnitude of the non-divergence operator.

    Initial data compatible with its own Dirichlet values makes this
    small; the value converges to the pointwise operator norm on the
    boundary at second order in h.
    """
    a4 = flux_linearization(_jacobian_field(grid.values, grid.h), p)
    hess = _full_hessian(grid.values, grid.h)
    resid = np.einsum("...ikjl,...kjl->...i", a4, hess)
    return float(np.max(np.abs(resid[grid.boundary_mask])))


def _interior_update(coeff_values: np.ndarray, values: np.ndarray, h: float,
                     p: float) -> np.ndarray:
    """Operator at interior nodes: coefficients from coeff_values, Hessian from values."""
    a4 = flux_linearization(_interior_jacobian(coeff_values, h), p)
    return np.einsum("...ikjl,...kjl->...i", a4, _interior_hessian(values, h))


def interior_operator(grid: GridField, p: float) -> np.ndarray:
    """Non-divergence operator at interior nodes, shape (*interior, n)."""
    return _interior_update(grid.values, grid.values, grid.h, p)


def dtmax(grid: GridField, p: float, safety: float = DEFAULT_SAFETY) -> float:
    """Stable explicit step estimate safety * h^2 / Lambda.

    Lambda is the grid maximum over nodes and output components of the
    absolute coefficient mass of the linearized flux, an upper bound of
    the same h^-2 scaling the ellipticity sandwich provides. Doubling h
    quadruples the bound; raising p shrinks it through the coefficient
    growth.
    """
    a4 = flux_linearization(_jacobian_field(grid.values, grid.h), p)
    lam = float(np.max(np.sum(np.abs(a4), axis=(-3, -2, -1))))
    return safety * grid.h**2 / lam


def _advance(grid: GridField, update: np.ndarray, dt: float,
             det_floor: float) -> tuple[GridField, np.ndarray]:
    """Forward-Euler move of the interior nodes by dt * update.

    Returns the stepped grid and its full-grid Jacobian, whose
    determinant is the stepped det_cache.
    """
    values = grid.values.copy()
    values[tuple(slice(1, -1) for _ in grid.shape)] += dt * update
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue("explicit step produced non-finite values")
    jac = _jacobian_field(values, grid.h)
    det = np.linalg.det(jac)
    min_det = float(np.min(det))
    if not min_det >= det_floor:  # a NaN determinant fails too
        raise DeterminantCollapse(
            f"step drove min det to {min_det:.6e} < floor {det_floor:.6e}"
        )
    return GridField(
        values=values,
        h=grid.h,
        origin=grid.origin,
        boundary_mask=grid.boundary_mask,
        det_cache=det,
    ), jac


def explicit_step(grid: GridField, p: float, dt: float,
                  det_floor: float | None = None) -> GridField:
    """One forward-Euler update of the interior nodes.

    Boundary nodes never move. If the stepped field's determinant drops
    below det_floor anywhere (default: half the current minimum), the
    step is rejected by raising DeterminantCollapse.
    """
    if det_floor is None:
        det_floor = 0.5 * float(np.min(grid.det_cache))
    return _advance(grid, interior_operator(grid, p), dt, det_floor)[0]


@dataclass
class FlowRunStats:
    """Per-step monitor series of one flow run.

    Arrays share indexing: row k describes the state after k accepted
    steps (row 0 is the initial state, with dt 0). halt_reason is None
    for a run that reached its horizon.
    """

    times: np.ndarray
    energy: np.ndarray
    min_det: np.ndarray
    dt_history: np.ndarray
    halt_reason: str | None
    compat_residual: float
    violations: int
    final_grid: GridField = field(repr=False)

    def write_csv(self, path) -> None:
        lines = ["step,time,energy,min_det,dt"]
        for k in range(self.times.size):
            lines.append(
                f"{k},{float(self.times[k])!r},{float(self.energy[k])!r},"
                f"{float(self.min_det[k])!r},{float(self.dt_history[k])!r}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def run_flow(grid: GridField, p: float, t_final: float, mode: str = "explicit",
             safety: float = DEFAULT_SAFETY, outer: int = 3) -> FlowRunStats:
    """Integrate the flow to the horizon with monitors.

    One stepping loop, run once in explicit mode and `outer` times in
    picard mode. A step takes its coefficients from the current state
    (explicit) or from the state the previous pass saved at the same
    step (picard; the first pass uses the initial data). An energy rise
    is a violation: explicit mode rejects the step and halves dt, picard
    mode keeps the step at its fixed dt. Five consecutive violations
    halt the run, as do determinant collapse and non-finite values. The
    stats describe the final pass; violations count over all passes.
    """
    if mode not in ("explicit", "picard"):
        raise ValueError(f"unknown mode {mode!r}")
    explicit = mode == "explicit"
    compat = compatibility_check(grid, p)
    det_floor = 0.5 * float(np.min(grid.det_cache))
    e0 = energy(grid, p)
    tol = ENERGY_TOL_SCALE * (1.0 + abs(e0))
    dt0 = dtmax(grid, p, safety)

    violations = 0
    frozen = itertools.repeat(grid.values)  # picard's first pass freezes at u0
    for _ in range(1 if explicit else max(1, int(outer))):
        current, t, dt, e_prev, consecutive, halt = grid, 0.0, dt0, e0, 0, None
        times, energies, min_dets, dts = [0.0], [e0], [float(np.min(grid.det_cache))], [0.0]
        states = [grid.values]
        while True:
            # picard steps and stops on the lattice k * dt that indexes the
            # saved states; relative, so tiny horizons are still integrated
            remaining = t_final - (t if explicit else (len(times) - 1) * dt)
            if not remaining > 1e-12 * t_final:
                break
            step_dt = min(dt, remaining)
            coeff = current.values if explicit else next(frozen)
            try:
                candidate, jac = _advance(
                    current, _interior_update(coeff, current.values, grid.h, p),
                    step_dt, det_floor)
            except DeterminantCollapse:
                halt = "determinant_collapse"
                break
            except NonFiniteValue:
                halt = "non_finite"
                break
            e_new = _energy(jac, candidate.det_cache, grid.h, p)
            if e_new > e_prev + tol:
                violations += 1
                consecutive += 1
                if consecutive >= MAX_CONSECUTIVE_VIOLATIONS:
                    halt = "unstable"
                    break
                if explicit:
                    dt *= 0.5
                    continue
            else:
                consecutive = 0
            current, t, e_prev = candidate, t + step_dt, e_new
            times.append(t)
            energies.append(e_new)
            min_dets.append(float(np.min(current.det_cache)))
            dts.append(step_dt)
            if not explicit:
                states.append(current.values)
        if halt is not None:
            break
        frozen = iter(states)

    return FlowRunStats(
        times=np.array(times),
        energy=np.array(energies),
        min_det=np.array(min_dets),
        dt_history=np.array(dts),
        halt_reason=halt,
        compat_residual=compat,
        violations=violations,
        final_grid=current,
    )


# ---------------------------------------------------------------------------
# snapshot io

def write_snapshot(grid: GridField, path) -> None:
    """Flat binary dump: int64 n, int64 node counts, float64 h, node values.

    All fields little-endian; values row-major with the component axis
    last.
    """
    with open(path, "wb") as fh:
        fh.write(np.array([grid.n], dtype="<i8").tobytes())
        fh.write(np.array(grid.shape, dtype="<i8").tobytes())
        fh.write(np.array([grid.h], dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def read_snapshot(path) -> tuple[np.ndarray, float]:
    """Inverse of write_snapshot: returns (values, h)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    n = int(np.frombuffer(raw, dtype="<i8", count=1)[0])
    shape = tuple(int(m) for m in np.frombuffer(raw, dtype="<i8", count=n, offset=8))
    h = float(np.frombuffer(raw, dtype="<f8", count=1, offset=8 * (1 + n))[0])
    values = np.frombuffer(raw, dtype="<f8", offset=8 * (2 + n)).reshape(shape + (n,))
    return values.copy(), h

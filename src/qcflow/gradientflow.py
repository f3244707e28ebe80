"""Finite-difference gradient flow of the dilation energy.

Discretizes maps on uniform rectangular grids with Dirichlet boundary
data and advances interior nodes by forward Euler on the non-divergence
form of the finite-p operator. Stencils work entry-first: a state is
v[i, *nodes], its Jacobian J[i, a, *nodes] and its Hessian
H[i, a, b, *nodes], so each matrix entry is a contiguous vector over the
nodes. A stack of states takes a pass axis right after the entries,
v[i, k, *nodes] and J[i, a, k, *nodes]: every helper reads the last n
axes as the nodes (n the entry count) and any axes between the entries
and the nodes as a stack, so one state and a stack go through the same
code. _fields (and _advance, pass by pass) differences a stack once: its
Jacobian (checked finite where it is made), its det from the first
row's cofactors, and |J|^2.
_Fields.coefficients prepares the operator's coefficients (the inverse
and the power weight) for the passes and nodes asked for, and
_interior_update contracts them with an interior Hessian in O(n^3) per
node.

run_flow is one driver, _run_pass, and two steppers. The driver steps a
stack of passes from u0 to the horizon, every pass's step j in the same
numpy calls, and owns time, the energy-rise policy, the halts and the
monitors; _advance makes each stepped stack's fields and checks each
pass's values, Jacobian and det floor. A stepper turns an accepted
stack's fields into the update from it. The explicit stepper
(_explicit_update, also behind interior_operator and explicit_step)
prepares each state's own interior coefficients, on a stack of one. The
picard stepper runs the passes of the fixed-point iteration in lockstep
(pipelined waveform relaxation): pass k steps its state j with the
coefficients of pass k - 1's state j, which is that pass's current
state, so no history is kept and no state is differenced twice. Only
the step bound builds the n^4 flux_linearization, once per run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DeterminantCollapse, NonFiniteValue
from .operators import _contracted_operator, _operator_coefficients, flux_linearization
from .tensor import _adjugate, _entries_det, _positive

DEFAULT_SAFETY = 0.2
DEFAULT_OUTER = 3
ENERGY_TOL_SCALE = 1e-12
MAX_CONSECUTIVE_VIOLATIONS = 5
_NON_FINITE_JACOBIAN = "difference Jacobian has non-finite entries"


@dataclass
class GridField:
    """Uniform-grid samples of a map with fixed boundary nodes.

    values has one length-n vector per node, shape (*shape, n); det_cache
    holds the per-node determinant of the current difference Jacobian.
    The Dirichlet boundary, the nodes the stepper holds fixed, is the box
    edge of shape; boundary_mask derives it and cannot be set.
    """

    values: np.ndarray
    h: float
    origin: np.ndarray
    det_cache: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    @property
    def shape(self) -> tuple:
        return self.values.shape[:-1]

    @property
    def boundary_mask(self) -> np.ndarray:
        """True on the box edge of shape, the nodes the stepper never moves."""
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * len(self.shape)] = False
        return mask

    def node_coordinates(self) -> np.ndarray:
        return _nodes(self.origin, self.h, self.shape)


def _nodes(origin: np.ndarray, h: float, shape: tuple) -> np.ndarray:
    """Node coordinates origin + h * index, shape (*shape, n)."""
    axes = [origin[a] + h * np.arange(m) for a, m in enumerate(shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _entry_first(values: np.ndarray) -> np.ndarray:
    """Component axis first, contiguous: v[i, *nodes] = values[*nodes, i]."""
    return np.ascontiguousarray(np.moveaxis(values, -1, 0))


def _first_difference(f: np.ndarray, h: float, axis: int, out: np.ndarray) -> np.ndarray:
    """d f / d x_axis written into out: centred inside, one-sided 3-point at the ends.

    np.gradient(f, h, axis=axis, edge_order=2) by plain slicing, with its
    formulas and its order of operations, so the two agree bit for bit.
    """
    def at(s):
        return (slice(None),) * axis + (s,)

    out[at(slice(1, -1))] = (f[at(slice(2, None))] - f[at(slice(None, -2))]) / (2.0 * h)
    out[at(0)] = -1.5 / h * f[at(0)] + 2.0 / h * f[at(1)] + -0.5 / h * f[at(2)]
    out[at(-1)] = 0.5 / h * f[at(-3)] + -2.0 / h * f[at(-2)] + 1.5 / h * f[at(-1)]
    return out


def _jacobian_field(v: np.ndarray, h: float) -> np.ndarray:
    """J[i, a, ..., *nodes] = d_a v[i, ..., *nodes] by central differences, one-sided at edges.

    v is entry-first values, v[i, *nodes] for one state or v[i, k, *nodes]
    for a stack.
    """
    n = v.shape[0]
    jac = np.empty((n, n) + v.shape[1:])
    for a in range(n):
        _first_difference(v, h, v.ndim - n + a, jac[:, a])
    return jac


def _first_failing(ok: np.ndarray, n: int) -> int | None:
    """The first pass k where ok[..., k, *nodes] (n node axes) is false somewhere, or None."""
    if ok.all():
        return None
    passes = ok.shape[ok.ndim - n - 1]
    return int(np.argmin(ok.reshape(-1, passes, math.prod(ok.shape[ok.ndim - n:])).all(axis=(0, 2))))


class _Fields(NamedTuple):
    """The stencil fields of a grid state or a stack of them over every node, entry-first.

    v[i, ..., *nodes] holds the values, which the Hessians difference;
    jac[i, a, ..., *nodes] is the difference Jacobian, det its determinant
    and nsq = |J|^2, the stack axes (if any) between the entries and the
    nodes. The adjugate is not kept: coefficients makes it for the passes
    and nodes it prepares.
    """

    v: np.ndarray
    jac: np.ndarray
    det: np.ndarray
    nsq: np.ndarray

    def coefficients(self, p: float, index=Ellipsis) -> tuple:
        """The operator's coefficients at index, from jac, det and nsq there and jac's adjugate."""
        jac = self.jac[index]
        return _operator_coefficients(jac, self.det[index], _adjugate(jac), self.nsq[index], p)

    def passes(self, stop: int) -> _Fields:
        """The fields of the stack's first stop passes."""
        index = (Ellipsis, slice(None, stop)) + (slice(None),) * self.v.shape[0]
        return _Fields(*(a[index] for a in self))


def _repeat(fields: _Fields, passes: int) -> _Fields:
    """A stack of one state's fields repeated to the given number of passes."""
    axis = -1 - fields.v.shape[0]
    return _Fields(*(np.repeat(a, passes, axis=axis) for a in fields))


def _det_field(jac: np.ndarray) -> np.ndarray:
    """det of an entry-first Jacobian jac[i, a, *nodes] at every node, by tensor._entries_det."""
    n = jac.shape[0]
    return _entries_det([jac[i, a] for i in range(n) for a in range(n)], n)


def _interior(ndim: int) -> tuple:
    """Index of the interior nodes of an array whose last ndim axes are the nodes."""
    return (Ellipsis,) + (slice(1, -1),) * ndim


def _fields(v: np.ndarray, h: float) -> _Fields:
    """Difference the entry-first values v[i, ..., *nodes] once and take the fields every consumer reads.

    A non-finite Jacobian entry raises NonFiniteValue here, where it is
    made. det comes from the first row's cofactors alone (_det_field),
    and the coefficients read it. It is not sign-checked:
    _checked_fields holds a given grid to det > 0, _advance a stepped one
    to the collapse floor.
    """
    jac = _jacobian_field(v, h)
    if not np.isfinite(jac).all():
        raise NonFiniteValue(_NON_FINITE_JACOBIAN)
    return _with_jacobian(v, jac)


def _with_jacobian(v: np.ndarray, jac: np.ndarray) -> _Fields:
    """The fields of the values v from their difference Jacobian jac, checked finite."""
    return _Fields(v, jac, _det_field(jac), np.sum(jac * jac, axis=(0, 1)))


def _checked_fields(values: np.ndarray, h: float) -> _Fields:
    """_fields of a given grid state as a stack of one, whose det must be positive at every node."""
    fields = _fields(_entry_first(values)[:, None], h)
    _positive(fields.det)
    return fields


def make_grid(mapping, shape, h: float, origin=None) -> GridField:
    """Sample a map's values on a uniform grid with the given node counts.

    Each count must be an integral number, so 17 and 17.0 both give 17.
    h, the node spacing, must be a positive finite number, and origin, the
    first node (the zero vector when omitted), n finite numbers. One
    mapping.value call samples all nodes, so a node outside the map's
    domain raises its GuardViolation, and values of another shape than
    the nodes' raise ValueError; the grid is checked once, on the
    difference Jacobian behind det_cache, so a non-finite value raises
    NonFiniteValue and a fold NonPositiveDeterminant.
    """
    if not 0.0 < h < np.inf:  # NaN fails too
        raise ValueError(f"grid spacing h must be a positive finite number, got {h!r}")
    shape = tuple(shape)
    try:
        counts = tuple(int(m) for m in shape)
    except (TypeError, ValueError, OverflowError):  # NaN, inf and non-numbers
        counts = None
    if counts != shape:
        raise ValueError(f"grid node counts must be integral numbers, got {list(shape)!r}")
    shape, n = counts, mapping.n
    if len(shape) != n:
        raise ValueError("grid rank must match the map dimension")
    if min(shape) < 4:
        raise ValueError("need at least 4 nodes per axis")
    origin = np.zeros(n) if origin is None else np.asarray(origin, dtype=float)
    if origin.shape != (n,) or not np.all(np.isfinite(origin)):
        raise ValueError(f"grid origin must be {n} finite numbers, got {origin.tolist()!r}")
    nodes = _nodes(origin, h, shape)
    values = np.array(mapping.value(nodes), dtype=float)
    if values.shape != nodes.shape:
        raise ValueError(f"map values have shape {values.shape}, expected {nodes.shape}")
    return GridField(values=values, h=h, origin=origin,
                     det_cache=_checked_fields(values, h).det[0])


def _interior_hessian(v: np.ndarray, h: float) -> np.ndarray:
    """H[i, a, b, ..., *interior] by the 3-point and 4-point centred stencils."""
    n = v.shape[0]
    down, mid, up = slice(None, -2), slice(1, -1), slice(2, None)

    def shift(*moves):
        """v at the interior nodes, each (axis, slice) in moves one node off."""
        index = [Ellipsis] + [mid] * n
        for a, s in moves:
            index[1 + a] = s
        return v[tuple(index)]

    center = shift()
    twice = 2.0 * center
    hess = np.empty((n, n, n) + center.shape[1:])
    for a in range(n):
        hess[:, a, a] = (shift((a, up)) - twice + shift((a, down))) / h**2
        for b in range(a + 1, n):
            hess[:, a, b] = hess[:, b, a] = (
                shift((a, up), (b, up)) - shift((a, up), (b, down))
                - shift((a, down), (b, up)) + shift((a, down), (b, down))
            ) / (4.0 * h**2)
    return hess


def _full_hessian(v: np.ndarray, h: float) -> np.ndarray:
    """H[i, a, b, ..., *nodes] at every node of the entry-first values v.

    One-sided second-order stencils on the edges.
    """
    n = v.shape[0]
    node = v.ndim - n  # the first node axis
    hess = np.empty((n, n) + v.shape)
    for a in range(n):
        grad = _first_difference(v, h, node + a, np.empty_like(v))
        for b in range(n):
            if a == b:
                d2 = np.moveaxis(hess[:, a, a], node + a, 0)
                w = np.moveaxis(v, node + a, 0)
                d2[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h**2
                d2[0] = (2.0 * w[0] - 5.0 * w[1] + 4.0 * w[2] - w[3]) / h**2
                d2[-1] = (2.0 * w[-1] - 5.0 * w[-2] + 4.0 * w[-3] - w[-4]) / h**2
            else:
                _first_difference(grad, h, node + b, hess[:, a, b])
    return 0.5 * (hess + np.swapaxes(hess, 1, 2))


def _volume(shape: tuple, h: float) -> float:
    """Volume of the box spanned by a grid of the given node counts."""
    return float(np.prod([(m - 1) * h for m in shape]))


def _energy(fields: _Fields, h: float, p: float, volume: float):
    """Trapezoidal mean of K^{np} from |J|^2 and the determinant: a float, or one per pass of a stack.

    Each axis takes np.trapezoid's formula, written inline.
    """
    n = fields.jac.shape[0]
    y = (fields.nsq / fields.det ** (2.0 / n)) ** (n * p / 2.0)
    for _ in range(n):
        y = (h * (y[..., 1:] + y[..., :-1]) / 2.0).sum(-1)
    return y / volume


def energy(grid: GridField, p: float) -> float:
    """Mean of K^{np} over the box by trapezoidal quadrature."""
    fields = _checked_fields(grid.values, grid.h)
    return float(_energy(fields, grid.h, p, _volume(grid.shape, grid.h))[0])


def compatibility_check(grid: GridField, p: float) -> float:
    """Largest boundary-node magnitude of the non-divergence operator.

    Initial data compatible with its own Dirichlet values makes this
    small; the value converges to the pointwise operator norm on the
    boundary at second order in h.
    """
    return _compatibility(grid, _checked_fields(grid.values, grid.h), p)


def _compatibility(grid: GridField, fields: _Fields, p: float) -> float:
    """compatibility_check of grid from its fields."""
    resid = _contracted_operator(fields.coefficients(p), _full_hessian(fields.v, grid.h))
    return float(np.max(np.abs(resid[..., grid.boundary_mask])))


def _interior_update(coeff: tuple, v: np.ndarray, h: float) -> np.ndarray:
    """Operator at interior nodes, entry-first as out[i, *interior].

    coeff holds the coefficients prepared from the interior of the
    coefficient state's Jacobian, where it is the centred difference; the
    Hessian comes from v, the stepped state's entry-first values (its
    _Fields.v).
    """
    return _contracted_operator(coeff, _interior_hessian(v, h))


def _explicit_update(fields: _Fields, p: float, h: float) -> np.ndarray:
    """The explicit stepper: each state's update from its own interior coefficients and Hessian."""
    return _interior_update(fields.coefficients(p, _interior(fields.v.shape[0])), fields.v, h)


def interior_operator(grid: GridField, p: float) -> np.ndarray:
    """Non-divergence operator at interior nodes, shape (*interior, n)."""
    update = _explicit_update(_checked_fields(grid.values, grid.h), p, grid.h)
    return np.moveaxis(update[:, 0], 0, -1)


def _check_flow_args(**args) -> None:
    """Raise ValueError on a bad flow argument; checks only those given.

    p, safety and t_final must be positive finite numbers, outer an
    integer >= 1, and mode explicit or picard.
    """
    if args.get("mode", "explicit") not in ("explicit", "picard"):
        raise ValueError(f"unknown mode {args['mode']!r}")
    for name in ("p", "safety", "t_final"):
        if name in args and not 0.0 < args[name] < np.inf:  # NaN fails too
            raise ValueError(f"{name} must be a positive finite number, got {args[name]!r}")
    outer = args.get("outer", 1)
    if isinstance(outer, bool) or not isinstance(outer, numbers.Integral) or outer < 1:
        raise ValueError(f"outer must be an integer >= 1, got {outer!r}")


def dtmax(grid: GridField, p: float, safety: float = DEFAULT_SAFETY) -> float:
    """Stable explicit step estimate safety * h^2 / Lambda.

    Lambda is the grid maximum over nodes and output components of the
    absolute coefficient mass of the linearized flux, an upper bound of
    the same h^-2 scaling the ellipticity sandwich provides. Doubling h
    quadruples the bound; raising p shrinks it through the coefficient
    growth. p and safety must be positive finite numbers.
    """
    _check_flow_args(p=p, safety=safety)
    return _dtmax(_jacobian_field(_entry_first(grid.values), grid.h), grid.h, p, safety)


def _dtmax(jac: np.ndarray, h: float, p: float, safety: float) -> float:
    """dtmax from a state's difference Jacobian jac[i, a, *nodes], as _Fields.jac holds it."""
    a4 = flux_linearization(np.moveaxis(jac, (0, 1), (-2, -1)), p)
    lam = float(np.max(np.sum(np.abs(a4), axis=(-3, -2, -1))))
    return safety * h**2 / lam


def _advance(v: np.ndarray, update: np.ndarray, dt: float, h: float, det_floor: float) -> tuple:
    """Forward-Euler move of the interior nodes of each pass of v[i, k, *nodes] by dt * update.

    Returns (fields, min_det, failed). fields are the stepped _fields of
    the passes before the first that fails a check, and min_det their
    per-pass minimum det. failed is that first failure as (pass,
    exception), or None: a non-finite value or Jacobian entry is a
    NonFiniteValue, a determinant below det_floor a DeterminantCollapse.
    Each check drops the failing pass and every later one before the
    next check runs.
    """
    n = v.shape[0]
    v = v.copy()
    v[_interior(n)] += dt * update
    failed = None
    k = _first_failing(np.isfinite(v), n)
    if k is not None:
        v, failed = v[:, :k], (k, NonFiniteValue("explicit step produced non-finite values"))
    jac = _jacobian_field(v, h)
    k = _first_failing(np.isfinite(jac), n)
    if k is not None:
        v, jac, failed = v[:, :k], jac[:, :, :k], (k, NonFiniteValue(_NON_FINITE_JACOBIAN))
    fields = _with_jacobian(v, jac)
    min_det = np.min(fields.det, axis=tuple(range(1, fields.det.ndim)))
    k = _first_failing(min_det >= det_floor, 0)  # a NaN determinant fails too
    if k is not None:
        failed = (k, DeterminantCollapse(
            f"step drove min det to {min_det[k]:.6e} < floor {det_floor:.6e}"))
        fields, min_det = fields.passes(k), min_det[:k]
    return fields, min_det, failed


def _grid(grid: GridField, v: np.ndarray, det: np.ndarray) -> GridField:
    """The GridField of a state stepped from grid, from its entry-first values and det."""
    return GridField(values=np.ascontiguousarray(np.moveaxis(v, 0, -1)), h=grid.h,
                     origin=grid.origin, det_cache=det)


def explicit_step(grid: GridField, p: float, dt: float) -> GridField:
    """One forward-Euler update of the interior nodes.

    Boundary nodes never move. If the stepped field's determinant drops
    below half the current minimum anywhere, the step is rejected by
    raising DeterminantCollapse.
    """
    fields = _checked_fields(grid.values, grid.h)
    update = _explicit_update(fields, p, grid.h)
    stepped, _, failed = _advance(fields.v, update, dt, grid.h,
                                  0.5 * float(np.min(grid.det_cache)))
    if failed is not None:
        raise failed[1]
    return _grid(grid, stepped.v[:, 0], stepped.det[0])


@dataclass
class FlowRunStats:
    """Per-step monitor series of one flow run.

    Arrays share indexing: row k describes the state after k accepted
    steps (row 0 is the initial state, with dt 0). halt_reason is None
    for a run that reached its horizon. In picard mode the stats are
    those of the lowest pass that halted, or of the last pass if none
    halted, and violations sums over the passes up to and including that
    one: a halted pass drops every later pass, as if it had never run.
    pass_changes holds max |u_k - u_{k-1}| of the final values of
    consecutive passes that reached the horizon (k = 2..outer when none
    halted), so it is empty in explicit mode and for a single pass.
    """

    times: np.ndarray
    energy: np.ndarray
    min_det: np.ndarray
    dt_history: np.ndarray
    halt_reason: str | None
    compat_residual: float
    violations: int
    final_grid: GridField = field(repr=False)
    pass_changes: tuple = ()

    def write_csv(self, path) -> None:
        lines = ["step,time,energy,min_det,dt"]
        for k in range(self.times.size):
            lines.append(
                f"{k},{float(self.times[k])!r},{float(self.energy[k])!r},"
                f"{float(self.min_det[k])!r},{float(self.dt_history[k])!r}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


class _Run(NamedTuple):
    """The constants of a flow run that each pass reads; grid, e0 and compat are u0's."""

    grid: GridField
    p: float
    t_final: float
    volume: float
    e0: float
    compat: float


class _Halt(NamedTuple):
    """The lowest pass that halted so far: its halt, rows kept, final state and violations."""

    reason: str | None
    rows: int
    index: int
    v: np.ndarray
    det: np.ndarray
    violations: int


def _halt_reason(exc: Exception | None) -> str:
    """A pass's halt_reason from its _advance failure; None stands for five energy rises in a row."""
    if exc is None:
        return "unstable"
    return "determinant_collapse" if isinstance(exc, DeterminantCollapse) else "non_finite"


def _run_pass(run: _Run, fields: _Fields, step, dt: float, fixed: bool) -> FlowRunStats:
    """The flow driver: a stack of passes from u0, whose stacked fields are given, to the horizon.

    Every pass takes step j in the same numpy calls. step, the stepper,
    turns each accepted stack's fields into the update from it; they are
    dropped before _advance builds the next stack's. A fixed-dt run stops
    on its lattice k * dt and keeps a step that raises a pass's energy;
    an adaptive one, a stack of one, stops on its running t and halves dt
    to retry it. Either counts the rise as a violation of that pass, and
    five in a row, a determinant collapse or a non-finite value halt the
    pass. A pass that halts stops there and every later pass is dropped,
    as run one after another it would never have run; the earlier passes
    run on. Overflow is not warned of, since a dropped pass must not
    raise: each check refuses what it makes.
    """
    h, min_det0 = run.grid.h, float(np.min(run.grid.det_cache))
    det_floor, tol = 0.5 * min_det0, ENERGY_TOL_SCALE * (1.0 + abs(run.e0))
    passes = fields.v.shape[1]
    v, det, t, e_prev = fields.v, fields.det, 0.0, np.full(passes, run.e0)
    consecutive, violations = np.zeros(passes, dtype=int), np.zeros(passes, dtype=int)
    halt = update = None
    rows = [(0.0, e_prev, np.full(passes, min_det0), 0.0)]  # time, energies, min dets, dt
    with np.errstate(over="ignore", invalid="ignore"):
        while passes:
            # relative, so tiny horizons are still integrated
            remaining = run.t_final - ((len(rows) - 1) * dt if fixed else t)
            if not remaining > 1e-12 * run.t_final:
                break
            step_dt = min(dt, remaining)
            if update is None:
                update, fields = step(fields), None
            stepped, min_det, failed = _advance(v, update, step_dt, h, det_floor)
            e_new = _energy(stepped, h, run.p, run.volume)
            rise = e_new > e_prev[:e_new.size] + tol
            if rise.any():
                violations[:rise.size] += rise
                consecutive[:rise.size] = np.where(rise, consecutive[:rise.size] + 1, 0)
                k = _first_failing(consecutive[:rise.size] < MAX_CONSECUTIVE_VIOLATIONS, 0)
                if k is not None:
                    failed = (k, None)
                elif not fixed:
                    dt *= 0.5
                    continue
            else:
                consecutive[:] = 0
            if failed is not None:  # pass k halts, and the passes after it are dropped
                k, exc = failed
                halt = _Halt(_halt_reason(exc), len(rows), k, v[:, k], det[k], int(violations[k]))
                stepped, min_det, e_new = stepped.passes(k), min_det[:k], e_new[:k]
                consecutive, violations, passes = consecutive[:k], violations[:k], k
            fields, stepped, update = stepped, None, None
            v, det, t, e_prev = fields.v, fields.det, t + step_dt, e_new
            rows.append((t, e_new, min_det, step_dt))
    return _stats(run, rows, halt, v, det, violations)


def _stats(run: _Run, rows: list, halt: _Halt | None, v: np.ndarray, det: np.ndarray,
           violations: np.ndarray) -> FlowRunStats:
    """The run's stats: those of halt's pass, or of the last pass of the stack v reaching the horizon."""
    passes = violations.size
    if halt is None:
        halt = _Halt(None, len(rows), passes - 1, v[:, -1], det[-1], 0)
    k = halt.index
    series = zip(*((t, e[k], m[k], dt) for t, e, m, dt in rows[:halt.rows]))
    times, energies, min_dets, dts = map(np.array, series)
    changes = tuple(float(np.max(np.abs(v[:, j] - v[:, j - 1]))) for j in range(1, passes))
    return FlowRunStats(times, energies, min_dets, dts, halt.reason, run.compat,
                        int(violations.sum()) + halt.violations,
                        _grid(run.grid, halt.v, halt.det), changes)


def _joined(parts: list) -> tuple:
    """Coefficient tuples of consecutive runs of passes joined into one on the pass axis."""
    axis = -1 - parts[0][0].shape[0]
    return tuple(np.concatenate(c, axis=axis) if isinstance(c[0], np.ndarray) else c[0]
                 for c in zip(*parts))


def _picard_stepper(coeff0: tuple, p: float, h: float):
    """The picard stepper: pass k steps its state j with the coefficients of pass k - 1's state j.

    coeff0 holds u0's interior coefficients, prepared once. Pass 0 reads
    them at every step, and every pass at step 0. From step 1 passes
    1..K-1 read those of passes 0..K-2's current states, prepared in one
    call over that slice of the stack.
    """
    started = False

    def step(fields: _Fields) -> np.ndarray:
        nonlocal started
        n, passes = fields.v.shape[:2]
        if passes == 1:
            coeff = coeff0
        elif started:
            index = (Ellipsis, slice(None, -1)) + (slice(1, -1),) * n
            coeff = _joined([coeff0, fields.coefficients(p, index)])
        else:
            coeff = _joined([coeff0] * passes)
        started = True
        return _interior_update(coeff, fields.v, h)
    return step


def run_flow(grid: GridField, p: float, t_final: float, mode: str = "explicit",
             safety: float = DEFAULT_SAFETY, outer: int = DEFAULT_OUTER) -> FlowRunStats:
    """Integrate the flow to the horizon with monitors.

    explicit mode is the driver on a stack of one with the explicit
    stepper and adaptive dt. picard mode runs its `outer` fixed-dt passes
    in lockstep, one stack through the same driver with the picard
    stepper, and returns what running them one after another up to the
    first that halts would: the same bits, without keeping any pass's
    history. Each starts from u0 at dt = dtmax. p, safety and t_final
    must be positive finite numbers and outer an integer >= 1; anything
    else raises ValueError before any work.
    """
    _check_flow_args(mode=mode, p=p, safety=safety, t_final=t_final, outer=outer)
    fields0 = _checked_fields(grid.values, grid.h)  # u0, differenced once, a stack of one
    dt0 = _dtmax(fields0.jac[:, :, 0], grid.h, p, safety)
    compat = _compatibility(grid, fields0, p)
    volume = _volume(grid.shape, grid.h)
    run = _Run(grid, p, t_final, volume, float(_energy(fields0, grid.h, p, volume)[0]), compat)
    if mode == "explicit":
        return _run_pass(run, fields0, lambda fields: _explicit_update(fields, p, grid.h), dt0,
                         fixed=False)
    step = _picard_stepper(fields0.coefficients(p, _interior(grid.n)), p, grid.h)
    return _run_pass(run, _repeat(fields0, outer), step, dt0, fixed=True)


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
    """Inverse of write_snapshot: returns (values, h).

    The header must hold n >= 1, n node counts each >= 1 and a positive
    finite h, and the payload exactly n * prod(counts) float64 values;
    anything else raises ValueError naming the field.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"snapshot n: the file has {len(raw)} bytes, n needs 8")
    n = int(np.frombuffer(raw, dtype="<i8", count=1)[0])
    if n < 1:
        raise ValueError(f"snapshot n must be >= 1, got {n}")
    head = 8 * (2 + n)
    if len(raw) < head:
        raise ValueError(f"snapshot node counts and h: n = {n} needs a {head}-byte header, "
                         f"the file has {len(raw)} bytes")
    shape = tuple(int(m) for m in np.frombuffer(raw, dtype="<i8", count=n, offset=8))
    if min(shape) < 1:
        raise ValueError(f"snapshot node counts must be >= 1, got {list(shape)}")
    h = float(np.frombuffer(raw, dtype="<f8", count=1, offset=8 * (1 + n))[0])
    if not 0.0 < h < np.inf:  # NaN fails too
        raise ValueError(f"snapshot h must be a positive finite number, got {h!r}")
    size = n * math.prod(shape)
    if len(raw) - head != 8 * size:
        raise ValueError(f"snapshot values: n = {n} and node counts {list(shape)} need "
                         f"{8 * size} payload bytes, the file has {len(raw) - head}")
    values = np.frombuffer(raw, dtype="<f8", offset=head).reshape(shape + (n,))
    return values.copy(), h

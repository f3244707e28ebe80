"""Finite-difference gradient flow of the dilation energy.

Discretizes maps on uniform rectangular grids with Dirichlet boundary
data and advances interior nodes by forward Euler on the non-divergence
form of the finite-p operator. Stencils work entry-first: a state is
v[i, *nodes], its Jacobian J[i, a, *nodes] and its Hessian
H[i, a, b, *nodes], so each matrix entry is a contiguous vector over the
nodes. _fields differences a state once: its Jacobian (checked finite
where it is made), its det from the first row's cofactors, and |J|^2.
_Fields.coefficients prepares the operator's coefficients (the inverse
and the power weight) for the nodes asked for, and _interior_update
contracts them with an interior Hessian in O(n^3) per node.

run_flow is one driver, _run_pass, and two steppers. The driver runs a
pass from u0 to the horizon and owns time, the energy-rise policy, the
halts and the monitors; _advance makes each stepped state's fields and
holds its det to the collapse floor. A stepper turns an accepted
state's fields into the update from it. The explicit stepper
(_explicit_update, also behind interior_operator and explicit_step)
prepares the state's own interior coefficients; the picard stepper
reads those of the previous pass's state at the same step (u0's
throughout the first pass), prepared from the Jacobian interior that
pass saved, each freed as it is read, so no state is differenced twice.
Only the step bound builds the n^4 flux_linearization, once per run.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DeterminantCollapse, NonFiniteValue
from .operators import _contracted_operator, _operator_coefficients, flux_linearization
from .tensor import _adjugate, _entries_det, _positive

DEFAULT_SAFETY = 0.2
ENERGY_TOL_SCALE = 1e-12
MAX_CONSECUTIVE_VIOLATIONS = 5


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
    """J[i, a, *nodes] = d_a v[i] by central differences, one-sided at edges.

    v is a state's entry-first values, v[i, *nodes].
    """
    n = v.shape[0]
    jac = np.empty((n, n) + v.shape[1:])
    for a in range(n):
        _first_difference(v, h, 1 + a, jac[:, a])
    return jac


class _Fields(NamedTuple):
    """One grid state's stencil fields over every node, entry-first.

    v[i, *nodes] holds the values, which the Hessians difference;
    jac[i, a, *nodes] is the difference Jacobian, det its determinant and
    nsq = |J|^2. The adjugate is not kept: coefficients makes it for the
    nodes it prepares.
    """

    v: np.ndarray
    jac: np.ndarray
    det: np.ndarray
    nsq: np.ndarray

    def coefficients(self, p: float, index=Ellipsis) -> tuple:
        """The operator's coefficients at index, from jac, det and nsq there and jac's adjugate."""
        jac = self.jac[index]
        return _operator_coefficients(jac, self.det[index], _adjugate(jac), self.nsq[index], p)


def _det_field(jac: np.ndarray) -> np.ndarray:
    """det of an entry-first Jacobian jac[i, a, *nodes] at every node, by tensor._entries_det."""
    n = jac.shape[0]
    return _entries_det([jac[i, a] for i in range(n) for a in range(n)], n)


def _interior(ndim: int) -> tuple:
    """Index of the interior nodes of an array whose last ndim axes are the nodes."""
    return (Ellipsis,) + (slice(1, -1),) * ndim


def _saved_coefficients(saved: list, p: float):
    """The operator's coefficients from each saved Jacobian interior in turn.

    Each entry of saved is dropped as it is read. _advance checked every
    Jacobian finite and its det above the floor, so det and |J|^2 are
    taken here unchecked, by the operations _fields takes them with.
    """
    for k in range(len(saved)):
        jac, saved[k] = saved[k], None
        nsq = np.sum(jac * jac, axis=(0, 1))
        yield _operator_coefficients(jac, _det_field(jac), _adjugate(jac), nsq, p)


def _fields(v: np.ndarray, h: float) -> _Fields:
    """Difference the entry-first values v[i, *nodes] once and take the fields every consumer reads.

    A non-finite Jacobian entry raises NonFiniteValue here, where it is
    made. det comes from the first row's cofactors alone (_det_field),
    and the coefficients read it. It is not sign-checked:
    _checked_fields holds a given grid to det > 0, _advance a stepped one
    to the collapse floor.
    """
    jac = _jacobian_field(v, h)
    if not np.isfinite(jac).all():
        raise NonFiniteValue("difference Jacobian has non-finite entries")
    return _Fields(v, jac, _det_field(jac), np.sum(jac * jac, axis=(0, 1)))


def _checked_fields(values: np.ndarray, h: float) -> _Fields:
    """_fields of a given grid state, whose det must be positive at every node."""
    fields = _fields(_entry_first(values), h)
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
                     det_cache=_checked_fields(values, h).det)


def _interior_hessian(v: np.ndarray, h: float) -> np.ndarray:
    """H[i, a, b, *interior] by the 3-point and 4-point centred stencils."""
    n = v.shape[0]
    down, mid, up = slice(None, -2), slice(1, -1), slice(2, None)

    def shift(*moves):
        """v at the interior nodes, each (axis, slice) in moves one node off."""
        index = [slice(None)] + [mid] * n
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
    """H[i, a, b, *nodes] at every node of the entry-first values v.

    One-sided second-order stencils on the edges.
    """
    n = v.shape[0]
    hess = np.empty((n, n) + v.shape)
    for a in range(n):
        grad = _first_difference(v, h, 1 + a, np.empty_like(v))
        for b in range(n):
            if a == b:
                d2 = np.moveaxis(hess[:, a, a], 1 + a, 0)
                w = np.moveaxis(v, 1 + a, 0)
                d2[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h**2
                d2[0] = (2.0 * w[0] - 5.0 * w[1] + 4.0 * w[2] - w[3]) / h**2
                d2[-1] = (2.0 * w[-1] - 5.0 * w[-2] + 4.0 * w[-3] - w[-4]) / h**2
            else:
                _first_difference(grad, h, 1 + b, hess[:, a, b])
    return 0.5 * (hess + np.swapaxes(hess, 1, 2))


def _volume(shape: tuple, h: float) -> float:
    """Volume of the box spanned by a grid of the given node counts."""
    return float(np.prod([(m - 1) * h for m in shape]))


def _energy(fields: _Fields, h: float, p: float, volume: float) -> float:
    """Trapezoidal mean of K^{np} from a state's |J|^2 and determinant.

    Each axis takes np.trapezoid's formula, written inline.
    """
    n = fields.jac.shape[0]
    y = (fields.nsq / fields.det ** (2.0 / n)) ** (n * p / 2.0)
    for _ in range(n):
        y = (h * (y[..., 1:] + y[..., :-1]) / 2.0).sum(-1)
    return float(y) / volume


def energy(grid: GridField, p: float) -> float:
    """Mean of K^{np} over the box by trapezoidal quadrature."""
    return _energy(_checked_fields(grid.values, grid.h), grid.h, p, _volume(grid.shape, grid.h))


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
    return float(np.max(np.abs(resid[:, grid.boundary_mask])))


def _interior_update(coeff: tuple, v: np.ndarray, h: float) -> np.ndarray:
    """Operator at interior nodes, entry-first as out[i, *interior].

    coeff holds the coefficients prepared from the interior of the
    coefficient state's Jacobian, where it is the centred difference; the
    Hessian comes from v, the stepped state's entry-first values (its
    _Fields.v).
    """
    return _contracted_operator(coeff, _interior_hessian(v, h))


def _explicit_update(fields: _Fields, p: float, h: float) -> np.ndarray:
    """The explicit stepper: a state's update from its own interior coefficients and Hessian."""
    return _interior_update(fields.coefficients(p, _interior(fields.v.ndim - 1)), fields.v, h)


def interior_operator(grid: GridField, p: float) -> np.ndarray:
    """Non-divergence operator at interior nodes, shape (*interior, n)."""
    return np.moveaxis(_explicit_update(_checked_fields(grid.values, grid.h), p, grid.h), 0, -1)


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


def _advance(v: np.ndarray, update: np.ndarray, dt: float, h: float,
             det_floor: float) -> _Fields:
    """Forward-Euler move of the interior nodes of v[i, *nodes] by dt * update.

    Returns the stepped state's _fields, whose v holds its entry-first
    values and whose det is its det_cache. A non-finite value or
    Jacobian entry raises NonFiniteValue, a determinant below det_floor
    DeterminantCollapse.
    """
    v = v.copy()
    v[_interior(v.ndim - 1)] += dt * update
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue("explicit step produced non-finite values")
    fields = _fields(v, h)
    min_det = float(np.min(fields.det))
    if not min_det >= det_floor:  # a NaN determinant fails too
        raise DeterminantCollapse(
            f"step drove min det to {min_det:.6e} < floor {det_floor:.6e}"
        )
    return fields


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
    stepped = _advance(fields.v, update, dt, grid.h, 0.5 * float(np.min(grid.det_cache)))
    return _grid(grid, stepped.v, stepped.det)


@dataclass
class FlowRunStats:
    """Per-step monitor series of one flow run.

    Arrays share indexing: row k describes the state after k accepted
    steps (row 0 is the initial state, with dt 0). halt_reason is None
    for a run that reached its horizon. In picard mode the stats are
    those of the last pass run (the halting pass, if one halted), and
    violations sums over every pass run.
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


class _Run(NamedTuple):
    """The constants of a flow run that each pass reads; grid, e0 and compat are u0's."""

    grid: GridField
    p: float
    t_final: float
    volume: float
    e0: float
    compat: float


def _run_pass(run: _Run, fields: _Fields, step, dt: float, fixed: bool) -> FlowRunStats:
    """The flow driver: one pass from u0, whose fields are given, to the horizon.

    step, the stepper, turns each accepted state's fields into the update
    from it; they are dropped before _advance builds the next state's,
    which keeps picard's peak memory down. A fixed-dt pass stops on its
    lattice k * dt and keeps a step that raises the energy; an adaptive
    one stops on its running t and halves dt to retry it. Either counts
    the rise as a violation, and five in a row, a determinant collapse
    or a non-finite value halt the pass.
    """
    h, min_det0 = run.grid.h, float(np.min(run.grid.det_cache))
    det_floor, tol = 0.5 * min_det0, ENERGY_TOL_SCALE * (1.0 + abs(run.e0))
    v, det, t, e_prev, consecutive, violations = fields.v, fields.det, 0.0, run.e0, 0, 0
    halt = update = None
    rows = [(0.0, run.e0, min_det0, 0.0)]  # the monitors: time, energy, min det, dt
    while True:
        # relative, so tiny horizons are still integrated
        remaining = run.t_final - ((len(rows) - 1) * dt if fixed else t)
        if not remaining > 1e-12 * run.t_final:
            break
        step_dt = min(dt, remaining)
        if update is None:
            update, fields = step(fields), None
        try:
            stepped = _advance(v, update, step_dt, h, det_floor)
        except (DeterminantCollapse, NonFiniteValue) as exc:
            halt = "determinant_collapse" if isinstance(exc, DeterminantCollapse) else "non_finite"
            break
        e_new = _energy(stepped, h, run.p, run.volume)
        if e_new > e_prev + tol:
            violations += 1
            consecutive += 1
            if consecutive >= MAX_CONSECUTIVE_VIOLATIONS:
                halt = "unstable"
                break
            if not fixed:
                dt *= 0.5
                continue
        else:
            consecutive = 0
        fields, stepped, update = stepped, None, None
        v, det, t, e_prev = fields.v, fields.det, t + step_dt, e_new
        rows.append((t, e_new, float(np.min(det)), step_dt))
    times, energies, min_dets, dts = map(np.array, zip(*rows))
    return FlowRunStats(times, energies, min_dets, dts, halt, run.compat, violations,
                        _grid(run.grid, v, det))


def _picard_stepper(coeff0: tuple, previous, saved, p: float, h: float):
    """The picard stepper: state k's Hessian against the previous pass's state k coefficients.

    Those are u0's, coeff0, at k = 0 and throughout the first pass
    (previous None); later, _saved_coefficients of previous's Jacobian
    interiors. A saved list collects the interior of each state stepped
    from after u0, for the next pass; the last state is not stepped from.
    """
    coeffs = (itertools.repeat(coeff0) if previous is None
              else itertools.chain([coeff0], _saved_coefficients(previous, p)))
    reads = itertools.count()

    def step(fields: _Fields) -> np.ndarray:
        if next(reads) and saved is not None:
            saved.append(fields.jac[_interior(fields.v.ndim - 1)].copy())
        return _interior_update(next(coeffs), fields.v, h)
    return step


def run_flow(grid: GridField, p: float, t_final: float, mode: str = "explicit",
             safety: float = DEFAULT_SAFETY, outer: int = 3) -> FlowRunStats:
    """Integrate the flow to the horizon with monitors.

    explicit mode is one adaptive-dt pass of the driver with the explicit
    stepper, picard mode `outer` fixed-dt passes with the picard stepper
    up to the first that halts; each starts from u0 at dt = dtmax. p,
    safety and t_final must be positive finite numbers and outer an
    integer >= 1; anything else raises ValueError before any work.
    """
    _check_flow_args(mode=mode, p=p, safety=safety, t_final=t_final, outer=outer)
    fields0 = _checked_fields(grid.values, grid.h)  # u0, differenced once
    dt0 = _dtmax(fields0.jac, grid.h, p, safety)
    compat = _compatibility(grid, fields0, p)
    volume = _volume(grid.shape, grid.h)
    run = _Run(grid, p, t_final, volume, _energy(fields0, grid.h, p, volume), compat)
    if mode == "explicit":
        return _run_pass(run, fields0, lambda fields: _explicit_update(fields, p, grid.h), dt0,
                         fixed=False)
    coeff0, previous, violations = fields0.coefficients(p, _interior(grid.n)), None, 0
    for pass_no in range(outer):
        saved = [] if pass_no + 1 < outer else None
        stats = _run_pass(run, fields0, _picard_stepper(coeff0, previous, saved, p, grid.h), dt0,
                          fixed=True)
        violations += stats.violations
        if stats.halt_reason is not None:
            break
        previous = saved
    stats.violations = violations
    return stats


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

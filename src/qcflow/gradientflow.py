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

Grid stencils work entry-first: the stepped state is held as
v[i, *nodes], component axis first, from u0 to the horizon, so the
Jacobian is J[i, a, *nodes], the Hessian H[i, a, b, *nodes], and every
matrix entry is a contiguous vector over the nodes; run_flow turns the
final state back into a values-last GridField once. Each state is
differenced once, by _fields: its entry-first values, which the next
step's Hessian reads, its Jacobian (the np.gradient stencils, taken by
slicing in _first_difference), its determinant from the first row's
cofactors (the operations of tensor._det_adj), and |J|^2, over every
node, with the Jacobian's entries checked finite where they are made.
_advance steps v and builds them for the stepped state, holding its det
to the collapse floor; the energy reads their |J|^2 and det, and the
next step prepares their interior once as the coefficients
(operators._operator_coefficients: the inverse and the power weight)
that _interior_update contracts with the interior Hessian in O(n^3) per
node (operators._contracted_operator). The adjugate is made only where
coefficients are prepared (_Fields.coefficients), for the nodes they
cover: the interior at each explicit step, the full grid once for the
boundary residual. The public energy, interior_operator, explicit_step
and compatibility_check, and run_flow's set-up, take a given grid's
fields from _checked_fields, which also holds det > 0; run_flow's step
bound and residual read its u0 fields. Picard's first pass prepares the
initial coefficients once and reads them at every step. A pass that
another follows keeps the interior of the Jacobian _advance made for
each state it accepts but its last, which no step reads; the next pass
prepares each step's coefficients from it by the same path, dropping it
as it reads it, so no state is differenced twice. Only the step bound
builds the n^4 flux_linearization, once per run, for its mass.
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
from .tensor import _cofactor_row, _det, _det_adj, _positive

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
        """The operator's coefficients at index, prepared from jac and nsq there."""
        return _coefficients(self.jac[index], self.nsq[index], p)


def _coefficients(jac: np.ndarray, nsq: np.ndarray, p: float) -> tuple:
    """The operator's coefficients from a checked Jacobian and its |J|^2, making det and adjugate."""
    return _operator_coefficients(jac, *_det_adj(jac), nsq, p)


def _interior(ndim: int) -> tuple:
    """Index of the interior nodes of an array whose last ndim axes are the nodes."""
    return (Ellipsis,) + (slice(1, -1),) * ndim


def _saved_coefficients(saved: list, p: float):
    """The operator's coefficients from each saved Jacobian interior in turn.

    Each entry of saved is dropped as it is read. _advance checked every
    Jacobian finite and its det above the floor, so |J|^2 is taken here
    unchecked, by the operation _fields takes it with.
    """
    for k in range(len(saved)):
        jac, saved[k] = saved[k], None
        yield _coefficients(jac, np.sum(jac * jac, axis=(0, 1)), p)


def _fields(v: np.ndarray, h: float) -> _Fields:
    """Difference the entry-first values v[i, *nodes] once and take the fields every consumer reads.

    A non-finite Jacobian entry raises NonFiniteValue here, where it is
    made. det comes from the first row's cofactors alone, by the
    operations tensor._det_adj takes it with (at n = 4 from _det_adj
    itself, whose det shares the adjugate's minors). It is not
    sign-checked: _checked_fields holds a given grid to det > 0,
    _advance a stepped one to the collapse floor.
    """
    jac = _jacobian_field(v, h)
    if not np.isfinite(jac).all():
        raise NonFiniteValue("difference Jacobian has non-finite entries")
    n = v.shape[0]
    if n == 4:
        det = _det_adj(jac)[0]
    else:
        e = [jac[i, j] for i in range(n) for j in range(n)]
        det = _det(e, _cofactor_row(e, n, 0), n)
    return _Fields(v, jac, det, np.sum(jac * jac, axis=(0, 1)))


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


def interior_operator(grid: GridField, p: float) -> np.ndarray:
    """Non-divergence operator at interior nodes, shape (*interior, n)."""
    fields = _checked_fields(grid.values, grid.h)
    coeff = fields.coefficients(p, _interior(grid.n))
    return np.moveaxis(_interior_update(coeff, fields.v, grid.h), 0, -1)


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
    update = _interior_update(fields.coefficients(p, _interior(grid.n)), fields.v, grid.h)
    stepped = _advance(fields.v, update, dt, grid.h, 0.5 * float(np.min(grid.det_cache)))
    return _grid(grid, stepped.v, stepped.det)


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
    p, safety and t_final must be positive finite numbers and outer an
    integer >= 1; anything else raises ValueError before any work.
    """
    _check_flow_args(mode=mode, p=p, safety=safety, t_final=t_final, outer=outer)
    explicit = mode == "explicit"
    passes = 1 if explicit else outer
    interior = _interior(grid.n)
    fields0 = _checked_fields(grid.values, grid.h)  # u0, differenced once
    dt0 = _dtmax(fields0.jac, grid.h, p, safety)
    compat = _compatibility(grid, fields0, p)
    det_floor = 0.5 * float(np.min(grid.det_cache))
    volume = _volume(grid.shape, grid.h)
    e0 = _energy(fields0, grid.h, p, volume)
    tol = ENERGY_TOL_SCALE * (1.0 + abs(e0))

    violations = 0
    if not explicit:
        # picard's coefficients: the first pass freezes them at u0, prepared once
        coeff0 = fields0.coefficients(p, interior)
        frozen = itertools.repeat(coeff0)
    for pass_no in range(passes):
        # the stepped state, entry-first, and its det
        v, det, fields = fields0.v, fields0.det, fields0
        t, dt, e_prev, consecutive, halt = 0.0, dt0, e0, 0, None
        times, energies, min_dets, dts = [0.0], [e0], [float(np.min(grid.det_cache))], [0.0]
        # a pass that another follows saves the interior of each accepted
        # state's Jacobian, from which the next pass prepares its coefficients
        saved = [] if pass_no + 1 < passes else None
        # computed once per accepted state, a retry reuses it; until then,
        # fields are v's, explicit mode's coefficients
        update = None
        while True:
            # picard steps and stops on the lattice k * dt that indexes the
            # saved states; relative, so tiny horizons are still integrated
            remaining = t_final - (t if explicit else (len(times) - 1) * dt)
            if not remaining > 1e-12 * t_final:
                break
            step_dt = min(dt, remaining)
            if update is None:
                coeff = fields.coefficients(p, interior) if explicit else next(frozen)
                update = _interior_update(coeff, v, grid.h)
                # dead once the update is made; freed before the step builds
                # the next state's, which keeps picard's peak memory down
                fields = coeff = candidate = None
            try:
                candidate = _advance(v, update, step_dt, grid.h, det_floor)
            except DeterminantCollapse:
                halt = "determinant_collapse"
                break
            except NonFiniteValue:
                halt = "non_finite"
                break
            e_new = _energy(candidate, grid.h, p, volume)
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
            fields = candidate
            v, det, t, e_prev, update = fields.v, fields.det, t + step_dt, e_new, None
            times.append(t)
            energies.append(e_new)
            min_dets.append(float(np.min(det)))
            dts.append(step_dt)
            if saved is not None:
                saved.append(fields.jac[interior].copy())
        if halt is not None:
            break
        if saved is not None:
            saved.pop()  # step k reads state k: u0, then each saved state but the last
            frozen = itertools.chain([coeff0], _saved_coefficients(saved, p))

    return FlowRunStats(
        times=np.array(times),
        energy=np.array(energies),
        min_det=np.array(min_dets),
        dt_history=np.array(dts),
        halt_reason=halt,
        compat_residual=compat,
        violations=violations,
        final_grid=_grid(grid, v, det),
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

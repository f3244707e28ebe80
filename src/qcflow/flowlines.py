"""Flow lines: trajectories along rows of the distortion field S(g) J^{-T}.

A flow line follows one row of the field at a time, switching rows only
when the active row's speed decays under a hysteresis threshold, and
stops at the domain boundary, at a length cap, or when the whole field
degenerates (the near-conformal case). Along such paths the trace
dilation obeys a pathwise derivative identity against the infinite-p
operator, and for solution maps it stays constant.

trace_flowline is a driver over module-level helpers: _start checks its
arguments and makes the NaN-checked domain predicate, _sample takes K,
the field and its row norms at an accepted point, _pick_row chooses the
row, _rk4 takes one RK4 step along the active row and sign, and
_boundary_fraction bisects the last step's chord for the boundary. The
walk runs on Python floats through one field entry, _sample_field:
tensor's one kernel (_sg_one) on the row-major J entries of the map's
single-point accessor (SmoothMap._jacobian_entries), the whole field at
a sample and, at each later RK4 stage, the active row alone, bit-equal
to that row of the whole field. A stack of samples (du_recovery_check)
runs the same kernel on node arrays. The public flow_field reads
jacobian and returns the field as an array. tensor.factoring_residual
and operators.linfty_flowform keep the S(g) route and are their oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllRowsDegenerate, GuardViolation, RowSwitched, StepFailure
from .operators import Jet2Sample
from .tensor import _as_matrix, _dilation, _sg_field, _sg_one, _sum_sq

DEFAULT_STEP = 1e-3
SWITCH_THRESHOLD = 0.5
DEGENERACY_TOL = 1e-12


@dataclass
class FlowTrajectory:
    """Sampled integral curve of an active field row.

    Arrays are aligned: entry k holds the arc parameter, position,
    dilation, active row (1-based), and active-row speed of sample k.
    The sign array records the orientation the integrator applied to the
    active row at each sample.
    """

    s: np.ndarray
    x: np.ndarray
    K: np.ndarray
    row: np.ndarray
    speed: np.ndarray
    sign: np.ndarray
    terminated: str

    def __len__(self) -> int:
        return self.s.size

    def to_csv_text(self) -> str:
        n = self.x.shape[1]
        header = "s," + ",".join(f"x{j + 1}" for j in range(n)) + ",K,row,speed"
        lines = [header]
        for k in range(len(self)):
            coords = ",".join(repr(float(v)) for v in self.x[k])
            lines.append(
                f"{float(self.s[k])!r},{coords},{float(self.K[k])!r},"
                f"{int(self.row[k])},{float(self.speed[k])!r}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv_text())


def ball_domain(radius: float = 1.0):
    """Signed predicate of the ball about the origin: negative inside,
    positive outside. radius must be a positive finite number."""
    if not 0.0 < radius < np.inf:  # NaN fails too
        raise ValueError(f"radius must be a positive finite number, got {radius!r}")

    def predicate(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float).ravel()
        return math.sqrt(x.dot(x)) - radius  # np.linalg.norm's own sum, without its wrapper

    return predicate


def flow_field(mapping, x) -> np.ndarray:
    """Matrix S(g) J^{-T} at x; its i-th row drives the i-th flow line.

    Reads J through the public mapping.jacobian, which builds no Hessian
    for a map with a first-order path, and computes the field alone, not
    K, in closed form from one determinant, which must be positive.
    """
    return _sg_field(mapping.jacobian(x))[0]


def _row_norms(field: list, n: int) -> tuple[list, float]:
    """Norms of the rows of length n of a field's entries, and of the field; n = 2 and 3 written out.

    Each row's square is summed from +0.0 left to right, as _sum_sq sums it.
    """
    if len(field) == 4 and n == 2:
        a0, a1, b0, b1 = field
        sq = [(0.0 + a0 * a0) + a1 * a1, (0.0 + b0 * b0) + b1 * b1]
    elif len(field) == 9 and n == 3:
        a0, a1, a2, b0, b1, b2, c0, c1, c2 = field
        sq = [((0.0 + a0 * a0) + a1 * a1) + a2 * a2, ((0.0 + b0 * b0) + b1 * b1) + b2 * b2,
              ((0.0 + c0 * c0) + c1 * c1) + c2 * c2]
    else:
        sq = [_sum_sq(field[i:i + n]) for i in range(0, len(field), n)]
    return [math.sqrt(v) for v in sq], math.sqrt(sum(sq))


def _times(c: float, v: list) -> list:
    """c times each entry of v, written out at n = 2 and 3."""
    if len(v) == 2:
        return [c * v[0], c * v[1]]
    if len(v) == 3:
        return [c * v[0], c * v[1], c * v[2]]
    return [c * a for a in v]


def _rk4(mapping, x: list, k1: list, step: float, row: int, sign: float) -> list:
    """One classical RK4 step of length step from x along sign times the field's row (from 1).

    k1 is x's velocity; each later stage's is read through _sample_field,
    and a guard violation there is a StepFailure. Each entry is taken as
    the array expressions take it: the stage points x + (step / 2) k and
    x + step k, then x + (step / 6) (((k1 + 2 k2) + 2 k3) + k4). n = 2 and
    3 are written out.
    """
    def stage(y: list) -> list:
        try:
            return _times(sign, _sample_field(mapping, y, row - 1)[0])
        except GuardViolation as exc:
            raise StepFailure(f"integrator stage left the map's domain: {exc}") from exc

    half, sixth = 0.5 * step, step / 6.0
    if len(x) == 2:
        (a0, a1), (p0, p1) = x, k1
        q0, q1 = stage([a0 + half * p0, a1 + half * p1])
        r0, r1 = stage([a0 + half * q0, a1 + half * q1])
        t0, t1 = stage([a0 + step * r0, a1 + step * r1])
        return [a0 + sixth * (((p0 + 2.0 * q0) + 2.0 * r0) + t0),
                a1 + sixth * (((p1 + 2.0 * q1) + 2.0 * r1) + t1)]
    if len(x) == 3:
        (a0, a1, a2), (p0, p1, p2) = x, k1
        q0, q1, q2 = stage([a0 + half * p0, a1 + half * p1, a2 + half * p2])
        r0, r1, r2 = stage([a0 + half * q0, a1 + half * q1, a2 + half * q2])
        t0, t1, t2 = stage([a0 + step * r0, a1 + step * r1, a2 + step * r2])
        return [a0 + sixth * (((p0 + 2.0 * q0) + 2.0 * r0) + t0),
                a1 + sixth * (((p1 + 2.0 * q1) + 2.0 * r1) + t1),
                a2 + sixth * (((p2 + 2.0 * q2) + 2.0 * r2) + t2)]
    k2 = stage([a + half * b for a, b in zip(x, k1)])
    k3 = stage([a + half * b for a, b in zip(x, k2)])
    k4 = stage([a + step * b for a, b in zip(x, k3)])
    return [a + sixth * (((p + 2.0 * q) + 2.0 * r) + t) for a, p, q, r, t in zip(x, k1, k2, k3, k4)]


def _pick_row(norms: list, current: int | None) -> int:
    """select_row's hysteresis choice, from the rows' norms."""
    best = norms.index(max(norms))
    if current is not None:
        cur = int(current) - 1
        if not (0 <= cur < len(norms)):
            raise ValueError(f"row index {current} out of range")
        if norms[cur] >= SWITCH_THRESHOLD * norms[best]:
            return cur + 1
    return best + 1


def select_row(field, current: int | None = None) -> int:
    """Active-row choice with hysteresis; rows are numbered from 1.

    Keeps the current row while its norm stays at least SWITCH_THRESHOLD
    times the strongest row's norm, otherwise switches to the strongest
    row. A field whose norm is at most DEGENERACY_TOL raises
    AllRowsDegenerate, and one that is not a matrix ValueError. The
    returned row always carries norm >= |field| / n^2.
    """
    f = np.asarray(field, dtype=float)
    if f.ndim != 2 or not f.size:
        raise ValueError(f"field must be a matrix, got shape {f.shape}")
    norms, total = _row_norms(f.ravel().tolist(), f.shape[1])
    if total <= DEGENERACY_TOL:
        raise AllRowsDegenerate(f"field norm {total:.3e} below degeneracy tolerance")
    return _pick_row(norms, current)


def _sample_field(mapping, y: list, row: int | None = None) -> tuple[list, float, float]:
    """The field's row-major entries at the point y of Python floats, with |J|^2 and det J.

    The one field entry of trace_flowline's samples and RK4 stages:
    tensor._sg_one on mapping._jacobian_entries, 4, 9 or 16 of them
    (n = 2..4); tensor._as_matrix refuses any other n. Given a row index
    (from 0), the entries are that row's alone, bit-equal to the same
    entries of the full field.
    """
    entries = mapping._jacobian_entries(y)
    if len(entries) not in (4, 9, 16):
        _as_matrix(np.reshape(entries, (len(y), len(y))))
    return _sg_one(entries, row)


def _start(mapping, x0, ds: float, max_len: float, domain) -> tuple[list, object]:
    """trace_flowline's argument checks: the start point as Python floats, and inside(y).

    inside calls domain (the unit ball when None) with an array, is True
    where it is negative, and raises ValueError naming y where it is NaN.
    """
    for name, value in (("ds", ds), ("max_len", max_len)):
        if not 0.0 < value < np.inf:  # NaN fails too
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    start = np.array(x0, dtype=float)
    if start.shape != (mapping.n,) or not all(map(math.isfinite, start.tolist())):
        raise ValueError(f"x0 must be a finite point of shape ({mapping.n},), got {start.tolist()!r}")
    domain = ball_domain() if domain is None else domain

    def inside(y: np.ndarray) -> bool:
        value = domain(y)
        if value != value:  # NaN
            raise ValueError(f"domain predicate is NaN at {y.tolist()!r}")
        return value < 0.0

    if not inside(start):
        raise ValueError("flow line must start strictly inside the domain")
    return start.tolist(), inside


def _sample(mapping, y: list, n: int) -> tuple[float, list, list, float]:
    """K, the whole field's entries, its row norms and its norm at the accepted point y."""
    field, nsq, d = _sample_field(mapping, y)
    return (_dilation(nsq, d, n), field, *_row_norms(field, n))


def _boundary_fraction(inside, here: np.ndarray, end: np.ndarray) -> float:
    """The fraction lo of the chord from here (inside) to end (not) at which it leaves the domain.

    Bisection: at most 60 halvings, stopping once (hi - lo) times the
    chord's length is under 1e-10; here + lo (end - here) is inside.
    """
    lo, hi = 0.0, 1.0
    chord = float(np.linalg.norm(end - here))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if inside(here + mid * (end - here)):
            lo = mid
        else:
            hi = mid
        if (hi - lo) * chord < 1e-10:
            break
    return lo


def _trajectory(samples: list, reason: str) -> FlowTrajectory:
    """The trajectory of (s, x, K, row, speed, sign) samples, in FlowTrajectory's field order."""
    return FlowTrajectory(*(np.array(c) for c in zip(*samples)), terminated=reason)


def trace_flowline(mapping, x0, ds: float = DEFAULT_STEP, max_len: float = 1.0,
                   domain=None) -> FlowTrajectory:
    """Integrate a flow line from x0 with classical RK4 at fixed step.

    Each pass of the loop samples the field at the accepted point, stops
    if it is degenerate, picks the row and sign, records the sample,
    stops at arc parameter max_len, takes an RK4 step, and stops at the
    domain boundary, found on the step's chord by bisection to 1e-10. On
    a row switch the new row's sign keeps the angle with the previous
    velocity at most 90 degrees, preserving forward orientation; a
    degenerate sample keeps the row and sign it arrived with. ds and
    max_len must be positive finite numbers, and x0 a finite point of
    shape (n,); domain defaults to the unit ball centered at the origin.
    The predicate is called with an array, and a NaN from it is a
    ValueError naming the point. A guard violation at an RK4 stage is a
    StepFailure.

    Each sample and each later RK4 stage takes one determinant (see the
    module notes); a step's first stage reuses the accepted point's
    velocity. The RK4 combinations are taken entry by entry in the array
    expressions' order, so every output carries the bits of the same walk
    on arrays.
    """
    x, inside = _start(mapping, x0, ds, max_len, domain)
    n = mapping.n
    samples = []  # one (s, x, K, row, speed, sign) per sample; x is never mutated
    s, row, sign = 0.0, None, 1.0
    while True:
        k_val, field, norms, total = _sample(mapping, x, n)
        if total <= DEGENERACY_TOL * (1.0 + k_val**2):
            row = _pick_row(norms, None) if row is None else row
            samples.append((s, x, k_val, row, norms[row - 1], sign))
            return _trajectory(samples, "degenerate")

        new_row = _pick_row(norms, row)
        new = field[(new_row - 1) * n:new_row * n]
        if row is not None and new_row != row:
            # forward orientation: angle with the previous velocity <= 90 degrees
            sign = 1.0 if float(np.dot(new, velocity)) >= 0.0 else -1.0
        row, velocity = new_row, _times(sign, new)
        samples.append((s, x, k_val, row, norms[row - 1], sign))
        if not s < max_len - 1e-14:
            return _trajectory(samples, "maxLength")

        step = min(ds, max_len - s)
        x_new = _rk4(mapping, x, velocity, step, row, sign)
        end = np.array(x_new)
        if not inside(end):
            here = np.array(x)
            lo = _boundary_fraction(inside, here, end)
            x_hit = (here + lo * (end - here)).tolist()
            k_val, _, norms, _ = _sample(mapping, x_hit, n)
            samples.append((s + lo * step, x_hit, k_val, row, norms[row - 1], sign))
            return _trajectory(samples, "boundary")
        s += step
        x = x_new


def du_recovery_check(mapping, trajectory: FlowTrajectory, row_index: int) -> float:
    """Residual of the differential-drift identity along a fixed-row path.

    Compares the drift of Jacobian row i between the endpoints with the
    trapezoidal integral of K grad K along the path, returning the max
    over columns of the absolute mismatch. K grad K is the field
    S(g) J^{-T} contracted with the Hessian. The path's jets come from one
    sampler call on all its points, validated as one Jet2Sample stack.
    Insists the trajectory never switched rows.
    """
    if not np.all(trajectory.row == row_index):
        raise RowSwitched("trajectory changed active row; identity needs a fixed row")
    i = int(row_index) - 1
    jets = Jet2Sample(trajectory.x, *mapping.jet_fn(trajectory.x, 2))
    integrand = np.einsum("...kl,...kjl->...j", _sg_field(jets.J)[0], jets.H)
    integral = np.trapezoid(integrand, trajectory.s, axis=0)
    drift = jets.J[-1, i] - jets.J[0, i]
    return float(np.max(np.abs(drift - integral)))

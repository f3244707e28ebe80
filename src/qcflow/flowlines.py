"""Trajectories along rows of the distortion field S(g) J^{-T}.

trace_flowline walks on Python floats: the position, the velocity,
every RK4 stage point and the field are lists, and the RK4 step is
written out at n = 2 and 3 (_rk4). Each sample or stage takes J as
row-major entries from the map's private single-point accessor
(SmoothMap._jacobian_entries: the map's entry-first sampler, or the
public jacobian of a map without one), and |J|^2, det and the field
from tensor's one kernel on those floats at every n (_sample_field).
The sample at an accepted point takes the whole field, whose row norms
pick the row, and adds K; each later RK4 stage takes the active row of
the field alone, bit-equal to that row of the whole field. A stack of
samples (du_recovery_check) runs the same kernel on node arrays,
bit-equal row by row. The public flow_field reads jacobian and returns
the field as an array. tensor.factoring_residual and
operators.linfty_flowform keep the S(g) route and are their oracles.

A flow line follows one row of the field at a time, switching rows only
when the active row's speed decays under a hysteresis threshold, and
terminates at the domain boundary, at a length cap, or when the whole
field degenerates (the near-conformal case). Along such paths the trace
dilation obeys a pathwise derivative identity against the infinite-p
operator, and for solution maps it stays constant.
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


def _rk4(x: list, k1: list, step: float, stage) -> list:
    """One classical RK4 step of length step from x, where k1 is x's velocity and stage(y) is y's.

    Each entry is taken as the array expressions take it: the stage
    points x + (step / 2) k and x + step k, then
    x + (step / 6) (((k1 + 2 k2) + 2 k3) + k4). n = 2 and 3 are written out.
    """
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


def trace_flowline(mapping, x0, ds: float = DEFAULT_STEP, max_len: float = 1.0,
                   domain=None) -> FlowTrajectory:
    """Integrate a flow line from x0 with classical RK4 at fixed step.

    One loop handles every sample, the first included: sample the field,
    stop if it is degenerate, pick the row and sign, record the sample,
    stop at arc parameter max_len, take an RK4 step, and stop at the
    domain boundary (located by bisection on the signed predicate to
    1e-10). On a row switch the new row's sign keeps the angle with the
    previous velocity at most 90 degrees, preserving forward orientation;
    a degenerate sample keeps the row and sign it arrived with. ds and
    max_len must be positive finite numbers, and x0 a finite point of
    shape (n,); domain defaults to the unit ball centered at the origin.
    The predicate is called with an array, and a NaN from it is a
    ValueError naming the point.

    The walk reads first-order data only, on Python floats (see the
    module notes), through one entry, _sample_field, with one
    determinant per sample or stage: the sample at each accepted point
    takes the whole field, which picks the row and gives its speed, and
    each of the three later RK4 stages takes the active row alone. The
    RK4 combinations are taken entry by entry in the array expressions'
    order, so every output carries the bits of the same walk on arrays.
    Guard violations at a stage raise StepFailure. The first stage of a
    step reuses the velocity already evaluated at the accepted point.
    """
    for name, value in (("ds", ds), ("max_len", max_len)):
        if not 0.0 < value < np.inf:  # NaN fails too
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    n = mapping.n
    start = np.array(x0, dtype=float)
    if start.shape != (n,) or not all(map(math.isfinite, start.tolist())):
        raise ValueError(f"x0 must be a finite point of shape ({n},), got {start.tolist()!r}")
    if domain is None:
        domain = ball_domain()

    def inside(y: np.ndarray) -> bool:
        value = domain(y)
        if value != value:  # NaN
            raise ValueError(f"domain predicate is NaN at {y.tolist()!r}")
        return value < 0.0

    if not inside(start):
        raise ValueError("flow line must start strictly inside the domain")

    samples = []  # one (s, x, K, row, speed, sign) per sample; x is never mutated

    def finish(reason: str) -> FlowTrajectory:
        s, x, k, row, speed, sign = (np.array(c) for c in zip(*samples))
        return FlowTrajectory(s=s, x=x, K=k, row=row, speed=speed, sign=sign,
                              terminated=reason)

    def sample(y: list) -> tuple[float, list, list, float]:
        field, nsq, d = _sample_field(mapping, y)
        return (_dilation(nsq, d, n), field, *_row_norms(field, n))

    def stage_velocity(y: list) -> list:
        try:
            return _times(sign, _sample_field(mapping, y, row - 1)[0])
        except GuardViolation as exc:
            raise StepFailure(f"integrator stage left the map's domain: {exc}") from exc

    x = start.tolist()
    s, row, sign = 0.0, None, 1.0
    while True:
        k_val, field, norms, total = sample(x)
        if total <= DEGENERACY_TOL * (1.0 + k_val**2):
            if row is None:
                row = norms.index(max(norms)) + 1
            samples.append((s, x, k_val, row, norms[row - 1], sign))
            return finish("degenerate")

        new_row = _pick_row(norms, row)
        if row is not None and new_row != row:
            # forward orientation: angle with the previous velocity <= 90 degrees
            new = field[(new_row - 1) * n:new_row * n]
            sign = 1.0 if float(np.dot(new, velocity)) >= 0.0 else -1.0
        row = new_row
        velocity = _times(sign, field[(row - 1) * n:row * n])
        samples.append((s, x, k_val, row, norms[row - 1], sign))
        if not s < max_len - 1e-14:
            return finish("maxLength")

        step = min(ds, max_len - s)
        x_new = _rk4(x, velocity, step, stage_velocity)

        end = np.array(x_new)
        if not inside(end):
            # bisect the chord for the boundary crossing
            here = np.array(x)
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
            x_hit = (here + lo * (end - here)).tolist()
            k_val, _, norms, _ = sample(x_hit)
            samples.append((s + lo * step, x_hit, k_val, row, norms[row - 1], sign))
            return finish("boundary")
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

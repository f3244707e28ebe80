"""Trajectories along rows of the distortion field S(g) J^{-T}.

trace_flowline walks on Python floats: the position, the velocity,
every RK4 stage point and the field are lists. Each sample or stage
takes J as row-major entries from the map's private single-point
accessor (SmoothMap._jacobian_entries: the sums of a word's or
composite's float program, else the public jacobian), and the field,
|J|^2 and det from tensor's one 2x2 and 3x3 kernel on those floats
(_sample_field); a sample adds K and its row norms. n = 4 takes LAPACK's
det and inverse (tensor._sg_field) in the same loop. A stack of samples
(du_recovery_check) runs the same kernel on node arrays, bit-equal row
by row. The public flow_field reads jacobian and returns the field as an
array. tensor.factoring_residual and operators.linfty_flowform keep the
S(g) route and are their oracles.

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
from .tensor import _dilation, _sg_field, _sg_one, _sum_sq

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
    """Norms of the rows of length n of a field's entries, and of the field, summed from +0.0."""
    sq = [_sum_sq(field[i:i + n]) for i in range(0, len(field), n)]
    return [math.sqrt(v) for v in sq], math.sqrt(sum(sq))


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


def _sample_field(mapping, y: list) -> tuple[list, float, float]:
    """The field's row-major entries at the point y of Python floats, with |J|^2 and det J.

    The one field entry of trace_flowline's samples and RK4 stages, from
    mapping._jacobian_entries: tensor._sg_one at n = 2 and 3, and
    _sg_field's array (LAPACK's inverse) read into entries at n = 4.
    """
    entries, a = mapping._jacobian_entries(y)
    if a is None or a.shape == (2, 2) or a.shape == (3, 3):
        return _sg_one(entries)
    matrix, nsq, d = _sg_field(a)
    return matrix.ravel().tolist(), nsq, d


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
    determinant per sample or stage. The RK4 combinations are taken entry
    by entry in the array expressions' order, so every output carries the
    bits of the same walk on arrays. Guard violations at a stage raise
    StepFailure. The first stage of a step reuses the velocity already
    evaluated at the accepted point.
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
            field = _sample_field(mapping, y)[0]
        except GuardViolation as exc:
            raise StepFailure(f"integrator stage left the map's domain: {exc}") from exc
        return [sign * v for v in field[first:first + n]]

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
        first = (row - 1) * n
        velocity = [sign * v for v in field[first:first + n]]
        samples.append((s, x, k_val, row, norms[row - 1], sign))
        if not s < max_len - 1e-14:
            return finish("maxLength")

        step = min(ds, max_len - s)
        half = 0.5 * step
        k1 = velocity
        k2 = stage_velocity([a + half * b for a, b in zip(x, k1)])
        k3 = stage_velocity([a + half * b for a, b in zip(x, k2)])
        k4 = stage_velocity([a + step * b for a, b in zip(x, k3)])
        sixth = step / 6.0
        x_new = [a + sixth * (((p + 2.0 * q) + 2.0 * r) + t)
                 for a, p, q, r, t in zip(x, k1, k2, k3, k4)]

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

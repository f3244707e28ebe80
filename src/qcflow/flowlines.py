"""Trajectories along rows of the distortion field S(g) J^{-T}.

Each sample reads J through the map's public jacobian accessor and
takes the field and K together, in closed form from one checked
determinant (tensor._dilation_field); an RK4 stage takes the field
alone (tensor._sg_field). J^{-T} is cofactor / det: at n = 2 and 3 a
sample or stage, one matrix, is computed on Python floats with the
cofactors written out, and a stack of samples (du_recovery_check) takes
the same cofactors from tensor._det_adj, bit-equal row by row; n = 4
takes LAPACK's inverse. tensor.factoring_residual and
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
from .tensor import _dilation_field, _sg_field

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


def _row_norms(field: np.ndarray) -> tuple[np.ndarray, float]:
    """Norm of each field row, and of the whole field, from one pass of row dot products."""
    sq = np.vecdot(field, field)  # each row's dot product, as np.linalg.norm of the row takes it
    return np.sqrt(sq), math.sqrt(sq.sum())


def _pick_row(norms: np.ndarray, current: int | None) -> int:
    """select_row's hysteresis choice, from the rows' norms."""
    best = int(norms.argmax())
    if current is not None:
        cur = int(current) - 1
        if not (0 <= cur < norms.size):
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
    if f.ndim != 2:
        raise ValueError(f"field must be a matrix, got shape {f.shape}")
    norms, total = _row_norms(f)
    if total <= DEGENERACY_TOL:
        raise AllRowsDegenerate(f"field norm {total:.3e} below degeneracy tolerance")
    return _pick_row(norms, current)


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
    max_len must be positive finite numbers; domain defaults to the unit
    ball centered at the origin.

    The walk reads first-order data only: every sample point and RK4
    stage reads J through the public mapping.jacobian, never a
    validated Jet2Sample, and a map with a first-order path builds no
    Hessian for it. Each sample takes one checked determinant of J, for
    the field and K together, and each RK4 stage one for the field alone;
    guard violations at a stage raise StepFailure. The first stage of a
    step reuses the velocity already evaluated at the accepted point.
    """
    for name, value in (("ds", ds), ("max_len", max_len)):
        if not 0.0 < value < np.inf:  # NaN fails too
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")
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
        norms, total = _row_norms(field)
        if total <= DEGENERACY_TOL * (1.0 + k_val**2):
            if row is None:
                row = int(norms.argmax()) + 1
            samples.append((s, x, k_val, row, float(norms[row - 1]), sign))
            return finish("degenerate")

        new_row = _pick_row(norms, row)
        if row is not None and new_row != row:
            # forward orientation: angle with the previous velocity <= 90 degrees
            sign = 1.0 if float(np.dot(field[new_row - 1], velocity)) >= 0.0 else -1.0
        row = new_row
        velocity = sign * field[row - 1]
        samples.append((s, x, k_val, row, float(norms[row - 1]), sign))
        if not s < max_len - 1e-14:
            return finish("maxLength")

        step = min(ds, max_len - s)
        k1 = velocity
        k2 = stage_velocity(x + 0.5 * step * k1)
        k3 = stage_velocity(x + 0.5 * step * k2)
        k4 = stage_velocity(x + step * k3)
        x_new = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        if domain(x_new) >= 0.0:
            # bisect the chord for the boundary crossing
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
                            float(np.linalg.norm(field[row - 1])), sign))
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

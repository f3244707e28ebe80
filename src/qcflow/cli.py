"""Command-line surface: verification suites, pointwise operator values,
flow-line tracing, and gradient-flow runs.

Exit codes: 0 success, 1 verification failure, 2 usage or config error
(an unwritable output included), 3 halted run. Reports and records are
JSON with sorted keys; series go to CSV; grids to flat binary snapshots.
"""

from __future__ import annotations

import errno
import json
import os
import sys

import click
import numpy as np

from . import gradientflow, maps, operators, tensor, verify
from .errors import (ConfigError, GuardViolation, NonFiniteValue, QcflowError, UnknownMap,
                     UnknownSuite)

EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_HALTED = 3


def _parse_params(pairs) -> dict:
    """Parse repeated key=value map parameters.

    A value starting with [ is JSON, so nested lists can express a matrix;
    other comma-separated values become float lists, bare integers stay
    ints, anything else that parses as float becomes float.
    """
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"parameter {pair!r} is not of the form key=value")
        key, raw = pair.split("=", 1)
        if raw.startswith("["):
            try:
                out[key] = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"parameter {key!r} is not valid JSON: {exc}")
            continue
        if "," in raw:
            out[key] = [float(v) for v in raw.split(",") if v != ""]
            continue
        try:
            out[key] = int(raw)
        except ValueError:
            try:
                out[key] = float(raw)
            except ValueError:
                out[key] = raw
    return out


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v != ""])
    except ValueError:
        raise ConfigError(f"point {text!r} is not a comma-separated float list")


def _fail_usage(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(EXIT_USAGE)


def _emit(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if not out:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _fail_usage(exc)


def _check_out_dirs(*paths) -> None:
    """Exit 2 before any work when an output path's directory is missing."""
    for path in paths:
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            _fail_usage(FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path))


@click.group()
def main() -> None:
    """Dilation analysis toolkit for quasiconformal maps."""


@main.command("verify")
@click.argument("suite")
@click.option("--seed", type=int, default=0, show_default=True, help="Master seed for case generators.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the JSON report here instead of stdout.")
@click.option("--tol", "tol_scale", type=float, default=1.0, show_default=True,
              help="Multiplier applied to every case tolerance.")
@click.option("--timing", is_flag=True,
              help="Embed the suite's and each case's wall time in the report (breaks byte-level determinism).")
def cmd_verify(suite: str, seed: int, out: str | None, tol_scale: float, timing: bool) -> None:
    """Run one verification suite and emit a JSON report."""
    _check_out_dirs(out)
    try:
        report = verify.run_suite(suite, seed=seed, tol_scale=tol_scale, timing=timing)
    except (UnknownSuite, ValueError) as exc:
        _fail_usage(exc)
        return
    _emit(report.to_json(), out)
    if not timing:
        click.echo(f"{suite}: {report.payload['summary']['passed']}/"
                   f"{report.payload['summary']['total']} passed in {report.wall_time:.3f}s",
                   err=True)
    sys.exit(0 if report.passed else EXIT_FAIL)


@main.command("ops")
@click.argument("map_id")
@click.option("--param", "params", multiple=True, help="Map parameter key=value; repeatable.")
@click.option("--point", required=True, help="Comma-separated evaluation point.")
@click.option("--p", "p_power", type=float, default=2.0, show_default=True, help="Operator power, a positive finite number.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the JSON record here instead of stdout.")
def cmd_ops(map_id: str, params, point: str, p_power: float, out: str | None) -> None:
    """Evaluate dilation, distortion, and both operators at one point."""
    _check_out_dirs(out)
    try:
        gradientflow._check_flow_args(p=p_power)
        mapping = maps.make_map(map_id, **_parse_params(params))
        x = _parse_point(point)
        # large powers overflow the flux weight; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            jet = mapping.jet(x)
            a, n, det, nsq = tensor._checked(jet.J)  # one check behind K, SgNormSq, detJ and normSqJ
            report = tensor._report(a, n, det, nsq)
            record = {
                "map": map_id,
                "point": [float(v) for v in x],
                "p": p_power,
                "K": float(report.K),
                "KSquared": float(report.K) ** 2,
                "detJ": float(det),
                "normSqJ": float(nsq),
                "Sg": [[float(v) for v in row] for row in report.Sg],
                "SgNormSq": float(report.SgNormSq),
                "conformal": bool(report.conformal),
                "lp": [float(v) for v in operators.lp_nondiv(jet, p_power)],
                "linfty": [float(v) for v in operators.linfty_factored(jet)],
            }
        bad = [key for key, val in record.items()
               if key != "map" and not np.all(np.isfinite(val))]
        if bad:
            raise NonFiniteValue(f"ops record has non-finite {', '.join(bad)} at p={p_power:g}")
    except (QcflowError, ValueError) as exc:
        _fail_usage(exc)
        return
    _emit(json.dumps(record, sort_keys=True, indent=2) + "\n", out)


@main.command("flowline")
@click.argument("map_id")
@click.option("--param", "params", multiple=True, help="Map parameter key=value; repeatable.")
@click.option("--x0", required=True, help="Comma-separated start point.")
@click.option("--ds", type=float, default=1e-3, show_default=True, help="Arc-length step.")
@click.option("--max-len", type=float, default=1.0, show_default=True, help="Arc-length budget.")
@click.option("--radius", type=float, default=1.0, show_default=True, help="Ball domain radius.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="CSV path; stdout when omitted.")
def cmd_flowline(map_id: str, params, x0: str, ds: float, max_len: float,
                 radius: float, out: str | None) -> None:
    """Trace one flow line and write the sampled curve as CSV."""
    from . import flowlines

    _check_out_dirs(out)
    try:
        mapping = maps.make_map(map_id, **_parse_params(params))
        start = _parse_point(x0)
        traj = flowlines.trace_flowline(
            mapping, start, ds=ds, max_len=max_len,
            domain=flowlines.ball_domain(radius=radius),
        )
    except (UnknownMap, ConfigError, GuardViolation, ValueError) as exc:
        _fail_usage(exc)
        return
    except QcflowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_HALTED)
        return
    _emit(traj.to_csv_text(), out)
    drift = float(np.max(np.abs(traj.K - traj.K[0])))
    switches = int(np.sum(traj.row[1:] != traj.row[:-1])) if len(traj) > 1 else 0
    status = "degenerate at start" if traj.terminated == "degenerate" and len(traj) == 1 else traj.terminated
    click.echo(
        f"status={status} samples={len(traj)} Kdrift={drift:.6e} rowSwitches={switches}",
        err=True,
    )


_FLOW_REQUIRED = {"map", "shape", "h", "p", "t_final"}
_FLOW_OPTIONAL = {"origin", "mode", "safety", "outer", "stats", "snapshots"}


def _flow_number(key: str, value) -> float:
    """A flow config's value for key as a float; one that is not a JSON number (a bool or a string
    never is one, as maps._real reads numbers) or is past the float range is a ConfigError."""
    if type(value) is int or type(value) is float:
        try:
            return float(value)
        except OverflowError:  # an int too large for a float
            pass
    raise ConfigError(f"{key} must be a number within the float range, got {value!r}")


def _load_flow_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    missing = _FLOW_REQUIRED - cfg.keys()
    if missing:
        raise ConfigError(f"config missing keys: {', '.join(sorted(missing))}")
    unknown = cfg.keys() - _FLOW_REQUIRED - _FLOW_OPTIONAL
    if unknown:
        raise ConfigError(f"config has unknown keys: {', '.join(sorted(unknown))}")
    mp = cfg["map"]
    if not isinstance(mp, dict) or "id" not in mp or not isinstance(mp.get("params", {}), dict):
        raise ConfigError("config map must be an object with an id, and map.params an object")
    snaps = cfg.get("snapshots", {})
    if not isinstance(snaps, dict) or snaps.keys() - {"initial", "final"}:
        raise ConfigError("snapshots must be an object with keys initial and/or final")
    return cfg


@main.command("flow")
@click.argument("config", type=click.Path(dir_okay=False))
def cmd_flow(config: str) -> None:
    """Run a gradient-flow evolution described by a JSON config.

    The config carries the initial map, grid geometry, power, horizon,
    and output paths. Nothing is written unless the config validates,
    every output directory exists and the grid builds; a halted run still
    writes its partial series.
    """
    try:
        cfg = _load_flow_config(config)
        p_power, t_final, h = (_flow_number(key, cfg[key]) for key in ("p", "t_final", "h"))
        safety = _flow_number("safety", cfg.get("safety", gradientflow.DEFAULT_SAFETY))
        mode = cfg.get("mode", "explicit")
        outer = cfg.get("outer", gradientflow.DEFAULT_OUTER)
        gradientflow._check_flow_args(mode=mode, p=p_power, safety=safety,
                                      t_final=t_final, outer=outer)
        snaps = cfg.get("snapshots", {})
        _check_out_dirs(cfg.get("stats"), snaps.get("initial"), snaps.get("final"))
        mapping = maps.make_map(cfg["map"]["id"], **cfg["map"].get("params", {}))
        grid = gradientflow.make_grid(mapping, cfg["shape"], h,
                                      origin=cfg.get("origin"))
    except (ConfigError, UnknownMap, GuardViolation, QcflowError, ValueError, TypeError) as exc:
        _fail_usage(exc)
        return
    try:
        if "initial" in snaps:
            gradientflow.write_snapshot(grid, snaps["initial"])
        stats = gradientflow.run_flow(grid, p_power, t_final, mode=mode,
                                      safety=safety, outer=outer)
        if "stats" in cfg:
            stats.write_csv(cfg["stats"])
        if "final" in snaps:
            gradientflow.write_snapshot(stats.final_grid, snaps["final"])
    except OSError as exc:
        _fail_usage(exc)
        return
    summary = {
        "steps": len(stats.times) - 1,
        "energyFirst": stats.energy[0],
        "energyLast": stats.energy[-1],
        "minDetLast": stats.min_det[-1],
        "haltReason": stats.halt_reason,
        "violations": stats.violations,
        "compatResidual": stats.compat_residual,
    }
    if mode == "picard":  # explicit reports keep their keys
        changes = stats.pass_changes
        summary["passChanges"] = list(changes)
        summary["contraction"] = (changes[-1] / changes[-2]
                                  if len(changes) >= 2 and changes[-2] > 0.0 else None)
    click.echo(json.dumps(summary, sort_keys=True, indent=2))
    sys.exit(EXIT_HALTED if stats.halt_reason else 0)


if __name__ == "__main__":
    main()

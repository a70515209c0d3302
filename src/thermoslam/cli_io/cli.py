"""Command-line surface: simulate, map, compare, maturity.

Every command exits 0 on success and 2 with a single-line diagnostic on
stderr for any input or processing error. All outputs are deterministic
given the inputs (and seed, for simulation).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from ..monitor import (
    MATCH_RADIUS,
    MaturityRecord,
    accumulate_maturity,
    icp_align,
    rate_alert,
    temperature_delta,
    transform_cloud,
)
from ..sim import (
    NoiseSpec,
    SITE_PRESETS,
    SiteModel,
    TrajectorySpec,
    WallSegment,
    field_from_config,
    simulate_session,
)
from .. import thermal_map
from . import formats
from .pipeline import run_mapping

MATURITY_THIN_VOXEL = 0.2


def _load_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _reject_unknown(data: dict, allowed: set[str], path: Path) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"{path}: unknown keys: {', '.join(unknown)}")


def _number(value: object, path: Path, key: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{path}: {key} must be a finite number, got {json.dumps(value)}")
    return number


def _load_trajectory(path: Path) -> TrajectorySpec:
    data = _load_json(path)
    _reject_unknown(
        data, {"waypoints", "speed", "scan_rate", "imu_rate", "thermal_rate", "turn_rate_deg_s", "hold_s"}, path
    )
    if "waypoints" not in data:
        raise ValueError(f"{path}: trajectory file needs a waypoints list")
    try:
        waypoints = tuple((float(x), float(y)) for x, y in data["waypoints"])
    except (TypeError, ValueError):
        raise ValueError(f"{path}: waypoints must be [x, y] pairs") from None
    keys = ("speed", "scan_rate", "imu_rate", "thermal_rate", "hold_s")
    kwargs = {key: _number(data[key], path, key) for key in keys if key in data}
    if "turn_rate_deg_s" in data:
        kwargs["turn_rate"] = math.radians(_number(data["turn_rate_deg_s"], path, "turn_rate_deg_s"))
    try:
        return TrajectorySpec(waypoints=waypoints, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_noise(path: Path) -> NoiseSpec:
    data = _load_json(path)
    _reject_unknown(
        data,
        {
            "range_sigma",
            "range_dropout_prob",
            "gravity_tilt_sigma_deg",
            "accel_noise_sigma",
            "thermal_noise_sigma",
            "haze_attenuation",
        },
        path,
    )
    keys = ("range_sigma", "range_dropout_prob", "accel_noise_sigma", "thermal_noise_sigma", "haze_attenuation")
    kwargs = {key: _number(data[key], path, key) for key in keys if key in data}
    if "gravity_tilt_sigma_deg" in data:
        tilt_deg = _number(data["gravity_tilt_sigma_deg"], path, "gravity_tilt_sigma_deg")
        kwargs["gravity_tilt_sigma"] = math.radians(tilt_deg)
    try:
        return NoiseSpec(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_site(spec: str) -> SiteModel:
    if spec in SITE_PRESETS:
        return SITE_PRESETS[spec]()
    path = Path(spec)
    if not path.exists():
        presets = ", ".join(sorted(SITE_PRESETS))
        raise ValueError(f"site {spec!r} is neither a preset ({presets}) nor an existing file")
    data = _load_json(path)
    _reject_unknown(data, {"walls", "floor_height", "ambient_c", "field"}, path)
    if not isinstance(data.get("walls"), list):
        raise ValueError(f"{path}: site file needs a walls list")
    floor_height = _number(data.get("floor_height", 3.0), path, "floor_height")
    walls = []
    for k, raw in enumerate(data["walls"]):
        if not isinstance(raw, list) or len(raw) not in (4, 5):
            raise ValueError(f"{path}: wall {k} must be [x1, y1, x2, y2] or [x1, y1, x2, y2, height]")
        coords = [_number(value, path, f"wall {k} coordinate") for value in raw]
        walls.append(WallSegment(*coords[:4], coords[4] if len(coords) == 5 else floor_height))
    field_cfg = data.get("field", {"kind": "uniform", "value": 20.0})
    if not isinstance(field_cfg, dict):
        raise ValueError(f"{path}: field must be a JSON object")
    params = {key: _number(value, path, f"field {key}") for key, value in field_cfg.items() if key != "kind"}
    try:
        field = field_from_config({"kind": field_cfg.get("kind"), **params}, walls)
    except (TypeError, ValueError) as exc:  # an unknown kind, or parameters the kind does not take
        raise ValueError(f"{path}: field: {exc}") from None
    ambient_c = _number(data.get("ambient_c", 15.0), path, "ambient_c")
    return SiteModel(walls, field, floor_height=floor_height, ambient_c=ambient_c)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError("seed must be a non-negative integer")
    site = _load_site(args.site)
    traj = _load_trajectory(Path(args.traj))
    noise = _load_noise(Path(args.noise))
    dataset = simulate_session(site, traj, noise, seed=args.seed)
    formats.save_session(dataset, Path(args.out))
    print(
        f"simulated {len(dataset.scans)} scans, {len(dataset.imu)} imu samples, "
        f"{len(dataset.frames)} thermal frames -> {args.out}"
    )
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    dataset = formats.load_session(Path(args.session))
    result = run_mapping(dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats.export_ply(result.cloud, out / "map.ply")
    formats.export_colored_view(result.cloud, out / "colored.ply")
    formats.write_trajectory_csv(out / "trajectory.csv", result.trajectory)
    formats.write_report(out / "diagnostics.txt", result.diagnostics)
    print(
        f"mapped {result.diagnostics['keyframes']} keyframes, "
        f"{result.diagnostics['map_points']} map points -> {out}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    reference = formats.read_ply(Path(args.reference)).drop_unset()
    moving = formats.read_ply(Path(args.moving)).drop_unset()
    transform, rms = icp_align(reference, moving)
    aligned = transform_cloud(moving, transform)
    report = temperature_delta(reference, aligned)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    yaw = math.atan2(transform.rotation[1, 0], transform.rotation[0, 0])
    translation = np.asarray(transform.translation, dtype=float)
    formats.write_report(
        out / "report.txt",
        {
            "reference_points": len(reference),
            "moving_points": len(moving),
            "align_x_m": float(translation[0]),
            "align_y_m": float(translation[1]),
            "align_z_m": float(translation[2]),
            "align_yaw_rad": yaw,
            "align_rms_m": rms,
            "matched_pairs": report.matched_pairs,
            "mean_dt_c": report.mean_dt,
            "rms_nn_distance_m": report.rms_nn_distance,
            "no_overlap": report.no_overlap,
        },
    )
    formats.write_delta_csv(out / "deltas.csv", report.positions, report.deltas)
    print(f"compared maps: {report.matched_pairs} pairs, mean dT {report.mean_dt:.3f} C -> {out}")
    return 0


def _cmd_maturity(args: argparse.Namespace) -> int:
    # Checked before any map is read: a NaN datum or rate limit would
    # otherwise pass through every comparison as "no maturity, no alert".
    if not math.isfinite(args.datum):
        raise ValueError(f"--datum must be a finite temperature, got {args.datum}")
    if not args.max_rate >= 0.0:
        raise ValueError(f"--max-rate must be a number >= 0, got {args.max_rate}")
    series_dir = Path(args.series)
    entries = formats.read_series_csv(series_dir / "series.csv")
    record = None
    for time_h, name in entries:
        cloud = formats.read_ply(series_dir / name).drop_unset()
        if len(cloud) == 0:
            raise ValueError(f"{series_dir / name}: no temperature-set points")
        tree = cKDTree(cloud.positions)
        if record is None:
            centers, _ = thermal_map.voxel_thin(cloud.positions, cloud.temperatures, MATURITY_THIN_VOXEL)
            # Snap the voxel centroids onto real map points: a centroid can
            # sit farther than the match radius from every point that
            # produced it, so monitoring the centroid itself would track
            # nothing.
            _, nearest = tree.query(centers)
            record = MaturityRecord(cloud.positions[np.unique(nearest)], args.datum)
            violations = np.zeros(len(record.position), dtype=np.int64)
        dist, idx = tree.query(record.position)
        folded = accumulate_maturity(record, (time_h, cloud.temperatures[idx]), where=dist <= MATCH_RADIUS)
        violations += rate_alert(record, folded, args.max_rate)
        record = folded
        # Only this map's samples outlive the step.
        del cloud, tree

    maturities = record.maturity[record.sample_count >= 2]
    out = Path(args.out)
    formats.write_report(
        out,
        {
            "sessions": len(entries),
            "monitor_positions": len(record.position),
            "positions_with_history": maturities.size,
            "datum_c": float(args.datum),
            "max_rate_c_per_h": float(args.max_rate),
            "maturity_min_ch": float(maturities.min()) if maturities.size else math.nan,
            "maturity_mean_ch": float(maturities.mean()) if maturities.size else math.nan,
            "maturity_max_ch": float(maturities.max()) if maturities.size else math.nan,
            "rate_violations": int(violations.sum()),
        },
    )
    formats.write_maturity_points_csv(
        out.parent / (out.stem + "_points.csv"), record.position, record.sample_count, record.maturity, violations
    )
    print(f"maturity over {len(entries)} sessions, {maturities.size} tracked positions -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoslam",
        description="Thermal 2.5D mapping: simulate sessions, build maps, compare them over time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic capture session")
    p.add_argument("--site", required=True, help="site preset name or site JSON file")
    p.add_argument("--traj", required=True, help="trajectory JSON file")
    p.add_argument("--noise", required=True, help="noise JSON file")
    p.add_argument("--seed", required=True, type=int, help="RNG seed (non-negative)")
    p.add_argument("--out", required=True, help="output session directory")

    p = sub.add_parser("map", help="reconstruct a thermal map from a session")
    p.add_argument("--session", required=True, help="session directory")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("compare", help="align two maps and report temperature deltas")
    p.add_argument("--reference", required=True, help="reference map.ply")
    p.add_argument("--moving", required=True, help="moving map.ply")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("maturity", help="accumulate curing maturity over a map series")
    p.add_argument("--series", required=True, help="directory with series.csv and the session maps")
    p.add_argument("--datum", type=float, default=-10.0, help="datum temperature, degC (default -10)")
    p.add_argument("--max-rate", type=float, default=10.0, help="alert threshold, degC/h (default 10)")
    p.add_argument("--out", required=True, help="output report file")
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "map": _cmd_map,
    "compare": _cmd_compare,
    "maturity": _cmd_maturity,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        message = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Ground-truth checks of the CLI's outputs, written apart from the library.

The parsers here follow docs/formats.md on their own and share no code with
``thermoslam.cli_io.formats``, so a writer/reader pair that agrees on a wrong
layout still fails. Each check raises ``CheckFailed`` with the reason.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree


# Units of the values the checks return, as the report prints them.
UNITS = {
    "ate_mm": "mm",
    "temp_mae_c": "C",
    "temp_coverage": "ratio",
    "wall_rms_mm": "mm",
    "align_err_mm": "mm",
    "align_yaw_err_deg": "deg",
    "delta_err_c": "C",
    "maturity_mean_ch": "C*h",
    "tracked_positions": "count",
}


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_ply(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(positions (n, 3) float64, intensities (n,) float64) of a thermoslam PLY."""
    blob = Path(path).read_bytes()
    marker = b"end_header\n"
    end = blob.find(marker)
    require(blob.startswith(b"ply\nformat binary_little_endian 1.0\n") and end > 0, f"{path}: not a PLY map")
    header = blob[:end].decode("ascii").splitlines()
    count = next(int(line.split()[2]) for line in header if line.startswith("element vertex "))
    props = [line.split()[2] for line in header if line.startswith("property ")]
    fields = [(name, "<f4" if name in ("x", "y", "z", "intensity") else "u1") for name in props]
    data = np.frombuffer(blob[end + len(marker):], dtype=np.dtype(fields))
    require(data.shape[0] == count, f"{path}: {data.shape[0]} vertices, header says {count}")
    positions = np.column_stack([data["x"], data["y"], data["z"]]).astype(float)
    return positions, data["intensity"].astype(float)


def read_pose_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(stamps int64, poses (n, 3) of x, y, theta) from trajectory.csv or groundtruth.csv."""
    rows = Path(path).read_text(encoding="ascii").splitlines()
    require(rows[0] == "stamp_ns,x,y,theta_z", f"{path}: unexpected header {rows[0]!r}")
    parts = [row.split(",") for row in rows[1:]]
    stamps = np.array([int(p[0]) for p in parts], dtype=np.int64)
    poses = np.array([[float(v) for v in p[1:]] for p in parts])
    return stamps, poses


def read_report(path: Path) -> dict[str, str]:
    out = {}
    for row in Path(path).read_text(encoding="ascii").splitlines():
        key, sep, value = row.partition(" = ")
        require(bool(sep), f"{path}: malformed line {row!r}")
        out[key] = value
    return out


def fit_2d(estimated: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotation and translation taking estimated xy onto reference xy."""
    ce, cr = estimated.mean(axis=0), reference.mean(axis=0)
    a, b = estimated - ce, reference - cr
    theta = math.atan2(float(np.sum(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])), float(np.sum(a * b)))
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return rot, cr - rot @ ce


def check_map(out_dir: Path, session_dir: Path, site, bounds: dict[str, float]) -> dict[str, float]:
    """Check one `thermoslam map` output tree against the simulated truth.

    Returns ate_mm, temp_mae_c, temp_coverage and wall_rms_mm.
    """
    diag = read_report(out_dir / "diagnostics.txt")
    positions, temps = read_ply(out_dir / "map.ply")
    colored_pos, colored_t = read_ply(out_dir / "colored.ply")
    require(
        np.array_equal(colored_pos, positions) and np.array_equal(colored_t, temps, equal_nan=True),
        "colored.ply does not carry the points of map.ply",
    )
    set_mask = np.isfinite(temps)
    require(int(diag["map_points"]) == len(temps), "diagnostics map_points disagrees with map.ply")
    require(
        int(diag["temperature_set_points"]) == int(set_mask.sum()),
        "diagnostics temperature_set_points disagrees with map.ply",
    )

    stamps, est = read_pose_csv(out_dir / "trajectory.csv")
    gt_stamps, gt = read_pose_csv(session_dir / "groundtruth.csv")
    truth = dict(zip(gt_stamps.tolist(), range(len(gt_stamps))))
    require(all(int(s) in truth for s in stamps), "trajectory stamps are not scan stamps")
    ref = gt[[truth[int(s)] for s in stamps], :2]
    rot, offset = fit_2d(est[:, :2], ref)
    ate = float(np.sqrt(np.mean(np.sum((est[:, :2] @ rot.T + offset - ref) ** 2, axis=1))))
    reported = float(diag["ate_m"])
    require(abs(ate - reported) <= 1e-9, f"ate_m {reported} disagrees with trajectory.csv ({ate})")

    world_xy = positions[:, :2] @ rot.T + offset
    wall_rms = float(np.sqrt(np.mean(site.distance_to_walls(world_xy) ** 2)))
    observed = world_xy[set_mask]
    expected = site.temperature_field(
        observed[:, 0], observed[:, 1], positions[set_mask, 2], np.zeros(len(observed), dtype=int)
    )
    result = {
        "ate_mm": 1000.0 * reported,
        "temp_mae_c": float(np.mean(np.abs(temps[set_mask] - expected))),
        "temp_coverage": float(set_mask.sum()) / len(temps),
        "wall_rms_mm": 1000.0 * wall_rms,
    }
    require(result["ate_mm"] < bounds["ate_mm"], f"ate {result['ate_mm']:.3f} mm >= {bounds['ate_mm']} mm")
    require(
        result["temp_mae_c"] < bounds["temp_mae_c"],
        f"temperature MAE {result['temp_mae_c']:.3f} C >= {bounds['temp_mae_c']} C",
    )
    require(
        result["temp_coverage"] > bounds["temp_coverage"],
        f"temperature coverage {result['temp_coverage']:.3f} <= {bounds['temp_coverage']}",
    )
    require(
        result["wall_rms_mm"] < bounds["wall_rms_mm"],
        f"wall RMS {result['wall_rms_mm']:.2f} mm >= {bounds['wall_rms_mm']} mm",
    )
    return result


def check_compare(
    out_dir: Path, displacement: tuple[float, float, float], field_change_c: float
) -> dict[str, float]:
    """The transform `compare` recovers must undo the known (x, y, yaw) displacement
    within 1 mm and 0.05 deg; mean dT must match the field change within 0.2 C."""
    report = read_report(out_dir / "report.txt")
    yaw = float(report["align_yaw_rad"])
    t = np.array([float(report["align_x_m"]), float(report["align_y_m"]), float(report["align_z_m"])])
    dx, dy, dyaw = displacement
    c, s = math.cos(yaw), math.sin(yaw)
    # recovered o displacement, which is the identity when fully recovered
    residual_t = np.array([c * dx - s * dy + t[0], s * dx + c * dy + t[1], t[2]])
    residual_yaw = math.remainder(yaw + dyaw, 2.0 * math.pi)
    deltas = Path(out_dir / "deltas.csv").read_text(encoding="ascii").splitlines()
    require(len(deltas) - 1 == int(report["matched_pairs"]), "deltas.csv rows disagree with matched_pairs")
    result = {
        "align_err_mm": 1000.0 * float(np.linalg.norm(residual_t)),
        "align_yaw_err_deg": abs(math.degrees(residual_yaw)),
        "delta_err_c": abs(float(report["mean_dt_c"]) - field_change_c),
    }
    require(result["align_err_mm"] < 1.0, f"alignment translation error {result['align_err_mm']:.4f} mm >= 1 mm")
    require(result["align_yaw_err_deg"] < 0.05, f"alignment yaw error {result['align_yaw_err_deg']:.4f} deg")
    require(result["delta_err_c"] < 0.2, f"mean dT off the field change by {result['delta_err_c']:.3f} C")
    return result


def expected_maturity(
    series_dir: Path, datum: float, max_rate: float, match_radius: float = 0.05, voxel: float = 0.2
) -> tuple[float, int, int]:
    """(mean maturity of tracked positions, tracked count, rate violations), recomputed.

    Monitor positions are the map points nearest to the 0.2 m voxel centroids
    of the first map's temperature-set points; each later map contributes the
    temperature of its nearest point within the match radius. Maturity is the
    trapezoid of (temperature - datum) over time, clamped at zero per interval.
    """
    rows = (series_dir / "series.csv").read_text(encoding="ascii").splitlines()[1:]
    series = []
    for row in rows:
        time_h, name = row.split(",")
        positions, temps = read_ply(series_dir / name)
        keep = np.isfinite(temps)
        series.append((float(time_h), positions[keep], temps[keep]))
    first = series[0][1]
    keys = np.floor(first / voxel).astype(np.int64)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    counts = np.bincount(inverse).astype(float)
    centroids = np.column_stack([np.bincount(inverse, weights=first[:, k]) / counts for k in range(3)])
    _, nearest = cKDTree(first).query(centroids)
    monitored = first[np.unique(nearest)]

    samples: list[list[tuple[float, float]]] = [[] for _ in range(len(monitored))]
    for time_h, positions, temps in series:
        dist, idx = cKDTree(positions).query(monitored)
        for k in np.flatnonzero(dist <= match_radius):
            samples[k].append((time_h, float(temps[idx[k]])))
    maturities = []
    violations = 0
    for history in samples:
        if len(history) < 2:
            continue
        total = 0.0
        for (t0, c0), (t1, c1) in zip(history, history[1:]):
            total += max(0.0, (c0 + c1) / 2.0 - datum) * (t1 - t0)
            violations += abs((c1 - c0) / (t1 - t0)) > max_rate
        maturities.append(total)
    return float(np.mean(maturities)), len(maturities), violations


def check_maturity(report_path: Path, series_dir: Path, datum: float, max_rate: float) -> dict[str, float]:
    report = read_report(report_path)
    mean, tracked, violations = expected_maturity(series_dir, datum, max_rate)
    got = float(report["maturity_mean_ch"])
    require(int(report["positions_with_history"]) == tracked, "positions_with_history disagrees with recomputation")
    require(int(report["rate_violations"]) == violations, "rate_violations disagrees with recomputation")
    require(
        math.isclose(got, mean, rel_tol=1e-9, abs_tol=1e-9),
        f"maturity_mean_ch {got} disagrees with recomputation {mean}",
    )
    return {"maturity_mean_ch": got, "tracked_positions": tracked}

"""On-disk session and result formats.

A session directory holds scans.csv, imu.csv, thermal/index.csv plus one
16-bit PGM per thermal frame, calib.txt, and optionally groundtruth.csv.
Maps are binary little-endian PLY with temperature in the intensity
channel. Every writer except the delta and maturity points tables has a
matching reader; write -> read -> write is byte-identical. The writers of
the stamped tables and of the map series run their reader's stamp, time
and file-name checks before writing anything. All floats are
serialized with repr() so values round-trip exactly; all writes go
through a temp file and an atomic rename.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from ..core import ImuSample, PlanarPose, RigidTransform3, Scan2D, Timestamp, Vec3
from ..sim import SessionDataset
from ..thermal_map import Calibration, CameraIntrinsics, ThermalImage, ThermalPointCloud

SCANS_FILE = "scans.csv"
IMU_FILE = "imu.csv"
THERMAL_DIR = "thermal"
THERMAL_INDEX = "index.csv"
CALIB_FILE = "calib.txt"
GROUND_TRUTH_FILE = "groundtruth.csv"

CALIB_KEYS = (
    "fx",
    "fy",
    "cx",
    "cy",
    "width",
    "height",
    "cam_extrinsic",
    "sensor_height",
    "floor_height",
    "vertical_step",
    "thermal_scale",
    "thermal_offset",
)


class DatasetFormatError(ValueError):
    """A dataset file violates its format contract."""


def _fail(path: Path, line: int | None, reason: str) -> "DatasetFormatError":
    where = f"{path}:{line}" if line is not None else str(path)
    return DatasetFormatError(f"{where}: {reason}")


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see partials."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_lines(path: Path, lines: list[str], tail: bytes = b"") -> None:
    """ASCII lines, each ending in a newline, then tail; written atomically."""
    atomic_write_bytes(Path(path), ("\n".join(lines) + "\n").encode("ascii") + tail)


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise _fail(path, None, str(exc)) from None


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="ascii")
    except OSError as exc:
        raise _fail(path, None, str(exc)) from None
    except UnicodeDecodeError:
        raise _fail(path, None, "not an ASCII text file") from None


def _read_table(path: Path, header: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each row below an exact header line.

    Every row must be non-blank and have as many comma-separated fields
    as the header, so data row k (from 0) is on line k + 2.
    """
    rows = _read_text(path).splitlines()
    if not rows or rows[0] != header:
        raise _fail(path, 1, f"expected header {header!r}")
    columns = header.count(",") + 1
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            raise _fail(path, lineno, "blank line")
        fields = row.split(",")
        if len(fields) != columns:
            raise _fail(path, lineno, f"expected {columns} columns, got {len(fields)}")
        yield lineno, fields


def _check_stamps(path: Path, stamps: list[int]) -> None:
    """Stamps of a table, one per data row, must strictly increase; row k is on line k + 2."""
    for k in range(1, len(stamps)):
        if stamps[k] <= stamps[k - 1]:
            how = "repeats" if stamps[k] == stamps[k - 1] else "goes backwards"
            raise _fail(path, k + 2, f"timestamp {stamps[k]} {how} (previous {stamps[k - 1]})")


def _bare_name(name: str, path: Path, line: int, what: str) -> str:
    """A file name that stays inside the directory of the table naming it
    and fits in one field of one ASCII row."""
    if (
        not name
        or name.startswith(".")
        or any(c in name for c in "/\\,")
        or not name.isascii()
        or name.splitlines() != [name]
    ):
        raise _fail(path, line, f"bad {what} file name {name!r}")
    return name


def _fmt(value: float) -> str:
    return repr(float(value))


def _parse_float(token: str, path: Path, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise _fail(path, line, f"bad {what}: {token!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise _fail(path, line, f"{what} must be finite, got {token!r}")
    return value


def _parse_int(token: str, path: Path, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise _fail(path, line, f"bad {what}: {token!r}") from None


# ---------------------------------------------------------------------------
# Range scans.

SCANS_HEADER = "stamp_ns,angle_min,angle_increment,ranges"


def write_scans_csv(path: Path, scans: list[Scan2D]) -> None:
    _check_stamps(path, [scan.stamp for scan in scans])
    lines = [SCANS_HEADER]
    for scan in scans:
        ranges = ";".join(_fmt(r) for r in scan.ranges)
        lines.append(f"{scan.stamp},{_fmt(scan.angle_min)},{_fmt(scan.angle_increment)},{ranges}")
    _write_lines(path, lines)


def read_scans_csv(path: Path) -> list[Scan2D]:
    path = Path(path)
    scans: list[Scan2D] = []
    for lineno, (stamp, angle_min, angle_increment, ranges) in _read_table(path, SCANS_HEADER):
        stamp = _parse_int(stamp, path, lineno, "stamp_ns")
        angle_min = _parse_float(angle_min, path, lineno, "angle_min")
        angle_increment = _parse_float(angle_increment, path, lineno, "angle_increment")
        values = [math.nan if t == "nan" else _parse_float(t, path, lineno, "range") for t in ranges.split(";")]
        try:
            scans.append(Scan2D(stamp, angle_min, angle_increment, values))
        except ValueError as exc:
            raise _fail(path, lineno, str(exc)) from None
    _check_stamps(path, [scan.stamp for scan in scans])
    return scans


# ---------------------------------------------------------------------------
# IMU samples.

IMU_HEADER = "stamp_ns,ax,ay,az"


def write_imu_csv(path: Path, samples: list[ImuSample]) -> None:
    _check_stamps(path, [s.stamp for s in samples])
    lines = [IMU_HEADER]
    for s in samples:
        lines.append(f"{s.stamp},{_fmt(s.accel.x)},{_fmt(s.accel.y)},{_fmt(s.accel.z)}")
    _write_lines(path, lines)


def read_imu_csv(path: Path) -> list[ImuSample]:
    path = Path(path)
    samples: list[ImuSample] = []
    for lineno, (stamp, ax, ay, az) in _read_table(path, IMU_HEADER):
        stamp = _parse_int(stamp, path, lineno, "stamp_ns")
        ax = _parse_float(ax, path, lineno, "ax")
        ay = _parse_float(ay, path, lineno, "ay")
        az = _parse_float(az, path, lineno, "az")
        try:
            samples.append(ImuSample(stamp, Vec3(ax, ay, az)))
        except ValueError as exc:
            raise _fail(path, lineno, str(exc)) from None
    _check_stamps(path, [s.stamp for s in samples])
    return samples


# ---------------------------------------------------------------------------
# Thermal frames: 16-bit binary PGM per frame plus an index CSV.

THERMAL_HEADER = "stamp_ns,file"
PGM_MAXVAL = 65535
# Magic, width, height and maxval as whitespace-separated ASCII tokens, then
# one whitespace byte (none at the end of the file) before the samples.
_PGM_HEADER = re.compile(rb"\s*(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s?")


def write_pgm16(path: Path, raw: np.ndarray) -> None:
    """Binary PGM, 16-bit big-endian samples (the PGM byte order)."""
    raw = np.asarray(raw)
    if raw.ndim != 2:
        raise ValueError("PGM image must be 2D")
    if raw.dtype.kind not in "ui" or raw.min() < 0 or raw.max() > PGM_MAXVAL:
        raise ValueError("PGM samples must be integers in [0, 65535]")
    h, w = raw.shape
    _write_lines(path, ["P5", f"{w} {h}", str(PGM_MAXVAL)], raw.astype(">u2").tobytes())


def read_pgm16(path: Path) -> np.ndarray:
    path = Path(path)
    blob = _read_bytes(path)
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise _fail(path, None, "truncated PGM header")
    magic, *sizes = header.groups()
    if magic != b"P5":
        raise _fail(path, None, f"not a binary PGM (magic {magic!r})")
    try:
        w, h, maxval = map(int, sizes)
    except ValueError:
        raise _fail(path, None, "non-numeric PGM dimensions") from None
    if w < 1 or h < 1:
        raise _fail(path, None, f"bad PGM dimensions {w}x{h}")
    if maxval != PGM_MAXVAL:
        raise _fail(path, None, f"expected maxval {PGM_MAXVAL}, got {maxval}")
    payload = blob[header.end():]
    if len(payload) != 2 * w * h:
        raise _fail(path, None, f"PGM payload is {len(payload)} bytes, expected {2 * w * h}")
    return np.frombuffer(payload, dtype=">u2").reshape(h, w).astype(np.uint16)


def temperatures_to_raw(temperatures: np.ndarray, scale: float, offset: float) -> np.ndarray:
    raw = np.round((np.asarray(temperatures, dtype=float) - offset) / scale)
    if raw.min() < 0 or raw.max() > PGM_MAXVAL:
        raise ValueError("temperatures outside the encodable raw range")
    return raw.astype(np.uint16)


def raw_to_temperatures(raw: np.ndarray, scale: float, offset: float) -> np.ndarray:
    return np.asarray(raw, dtype=float) * scale + offset


def write_thermal_frames(session_dir: Path, frames: list[ThermalImage], calib: Calibration) -> None:
    thermal_dir = Path(session_dir) / THERMAL_DIR
    _check_stamps(thermal_dir / THERMAL_INDEX, [frame.stamp for frame in frames])
    lines = [THERMAL_HEADER]
    for k, frame in enumerate(frames):
        name = f"frame_{k:06d}.pgm"
        raw = temperatures_to_raw(frame.temperatures, calib.thermal_scale, calib.thermal_offset)
        write_pgm16(thermal_dir / name, raw)
        lines.append(f"{frame.stamp},{name}")
    _write_lines(thermal_dir / THERMAL_INDEX, lines)


def read_thermal_frames(session_dir: Path, calib: Calibration) -> list[ThermalImage]:
    thermal_dir = Path(session_dir) / THERMAL_DIR
    index = thermal_dir / THERMAL_INDEX
    frames: list[ThermalImage] = []
    for lineno, (stamp, name) in _read_table(index, THERMAL_HEADER):
        stamp = _parse_int(stamp, index, lineno, "stamp_ns")
        frame_path = thermal_dir / _bare_name(name, index, lineno, "frame")
        temps = raw_to_temperatures(read_pgm16(frame_path), calib.thermal_scale, calib.thermal_offset)
        try:
            frames.append(ThermalImage(stamp, temps))
        except ValueError as exc:
            raise _fail(frame_path, None, str(exc)) from None
    _check_stamps(index, [frame.stamp for frame in frames])
    return frames


# ---------------------------------------------------------------------------
# Calibration.


def write_calib(path: Path, calib: Calibration) -> None:
    intr = calib.intrinsics
    ext = np.hstack([calib.camera_extrinsic.rotation, np.asarray(calib.camera_extrinsic.translation, dtype=float).reshape(3, 1)])
    lines = [
        f"fx={_fmt(intr.fx)}",
        f"fy={_fmt(intr.fy)}",
        f"cx={_fmt(intr.cx)}",
        f"cy={_fmt(intr.cy)}",
        f"width={intr.width}",
        f"height={intr.height}",
        "cam_extrinsic=" + " ".join(_fmt(v) for v in ext.reshape(-1)),
        f"sensor_height={_fmt(calib.sensor_height)}",
        f"floor_height={_fmt(calib.floor_height)}",
        f"vertical_step={_fmt(calib.vertical_step)}",
        f"thermal_scale={_fmt(calib.thermal_scale)}",
        f"thermal_offset={_fmt(calib.thermal_offset)}",
    ]
    _write_lines(path, lines)


def read_calib(path: Path) -> Calibration:
    path = Path(path)
    values: dict[str, str] = {}
    for lineno, row in enumerate(_read_text(path).splitlines(), start=1):
        if not row.strip():
            continue
        if "=" not in row:
            raise _fail(path, lineno, f"expected key=value, got {row!r}")
        key, _, value = row.partition("=")
        key = key.strip()
        if key not in CALIB_KEYS:
            raise _fail(path, lineno, f"unknown calibration key {key!r}")
        if key in values:
            raise _fail(path, lineno, f"duplicate calibration key {key!r}")
        values[key] = value.strip()
    missing = [k for k in CALIB_KEYS if k not in values]
    if missing:
        raise _fail(path, None, f"missing calibration keys: {', '.join(missing)}")

    def floatval(key: str) -> float:
        return _parse_float(values[key], path, None, key)

    def intval(key: str) -> int:
        return _parse_int(values[key], path, None, key)

    ext_tokens = values["cam_extrinsic"].split()
    if len(ext_tokens) != 12:
        raise _fail(path, None, f"cam_extrinsic needs 12 values, got {len(ext_tokens)}")
    ext = np.array([_parse_float(t, path, None, "cam_extrinsic") for t in ext_tokens]).reshape(3, 4)
    try:
        extrinsic = RigidTransform3(ext[:, :3], ext[:, 3])
        intrinsics = CameraIntrinsics(
            fx=floatval("fx"),
            fy=floatval("fy"),
            cx=floatval("cx"),
            cy=floatval("cy"),
            width=intval("width"),
            height=intval("height"),
        )
        return Calibration(
            intrinsics=intrinsics,
            camera_extrinsic=extrinsic,
            sensor_height=floatval("sensor_height"),
            floor_height=floatval("floor_height"),
            vertical_step=floatval("vertical_step"),
            thermal_scale=floatval("thermal_scale"),
            thermal_offset=floatval("thermal_offset"),
        )
    except ValueError as exc:
        raise _fail(path, None, str(exc)) from None


# ---------------------------------------------------------------------------
# Ground-truth / trajectory CSV (same shape, different file names).

TRAJECTORY_HEADER = "stamp_ns,x,y,theta_z"


def write_trajectory_csv(path: Path, trajectory: list[tuple[Timestamp, PlanarPose]]) -> None:
    _check_stamps(path, [int(stamp) for stamp, _ in trajectory])
    lines = [TRAJECTORY_HEADER]
    for stamp, pose in trajectory:
        lines.append(f"{int(stamp)},{_fmt(pose.x)},{_fmt(pose.y)},{_fmt(pose.theta)}")
    _write_lines(path, lines)


def read_trajectory_csv(path: Path) -> list[tuple[Timestamp, PlanarPose]]:
    path = Path(path)
    out: list[tuple[Timestamp, PlanarPose]] = []
    for lineno, (stamp, x, y, theta) in _read_table(path, TRAJECTORY_HEADER):
        stamp = _parse_int(stamp, path, lineno, "stamp_ns")
        x = _parse_float(x, path, lineno, "x")
        y = _parse_float(y, path, lineno, "y")
        theta = _parse_float(theta, path, lineno, "theta_z")
        out.append((stamp, PlanarPose(x, y, theta)))
    _check_stamps(path, [stamp for stamp, _ in out])
    return out


# ---------------------------------------------------------------------------
# Whole sessions.


def save_session(dataset: SessionDataset, session_dir: Path) -> None:
    """Write a session directory; deterministic bytes for identical data."""
    session_dir = Path(session_dir)
    session_dir.mkdir(parents=True, exist_ok=True)
    write_scans_csv(session_dir / SCANS_FILE, dataset.scans)
    write_imu_csv(session_dir / IMU_FILE, dataset.imu)
    write_thermal_frames(session_dir, dataset.frames, dataset.calib)
    write_calib(session_dir / CALIB_FILE, dataset.calib)
    if dataset.ground_truth is not None:
        write_trajectory_csv(session_dir / GROUND_TRUTH_FILE, dataset.ground_truth)


def load_session(session_dir: Path) -> SessionDataset:
    """Parse and validate a session directory.

    The groundtruth.csv sidecar is optional; everything else is required.
    """
    session_dir = Path(session_dir)
    if not session_dir.is_dir():
        raise DatasetFormatError(f"{session_dir}: not a directory")
    calib = read_calib(session_dir / CALIB_FILE)
    scans = read_scans_csv(session_dir / SCANS_FILE)
    imu = read_imu_csv(session_dir / IMU_FILE)
    frames = read_thermal_frames(session_dir, calib)
    ground_truth = None
    if (session_dir / GROUND_TRUTH_FILE).exists():
        ground_truth = read_trajectory_csv(session_dir / GROUND_TRUTH_FILE)
    return SessionDataset(scans, imu, frames, calib, ground_truth, site=None)


# ---------------------------------------------------------------------------
# PLY maps.

# Vertex properties in file order: a map has the first four, the colored
# view all seven. This list drives the header, the vertex dtype and the
# layouts read_ply accepts.
_PLY_PROPERTIES = (
    ("float", "x"),
    ("float", "y"),
    ("float", "z"),
    ("float", "intensity"),
    ("uchar", "red"),
    ("uchar", "green"),
    ("uchar", "blue"),
)
_PLY_LAYOUTS = (_PLY_PROPERTIES[:4], _PLY_PROPERTIES)
_PLY_TYPES = {"float": "<f4", "uchar": "u1"}


def _vertex_dtype(props: tuple[tuple[str, str], ...]) -> np.dtype:
    return np.dtype([(name, _PLY_TYPES[kind]) for kind, name in props])


def _write_ply(path: Path, cloud: ThermalPointCloud, *extra: np.ndarray) -> None:
    """One vertex per point: x, y, z, intensity, then the extra columns."""
    n = len(cloud)
    if n == 0:
        raise ValueError("refusing to export an empty cloud")
    columns = [*cloud.positions.T, cloud.temperatures, *extra]
    props = _PLY_PROPERTIES[: len(columns)]
    data = np.empty(n, dtype=_vertex_dtype(props))
    for (_, name), column in zip(props, columns):
        data[name] = column
    header = [
        "ply",
        "format binary_little_endian 1.0",
        f"comment session_unix_ns {int(cloud.session_stamp)}",
        f"element vertex {n}",
        *(f"property {kind} {name}" for kind, name in props),
        "end_header",
    ]
    _write_lines(path, header, data.tobytes())


def export_ply(cloud: ThermalPointCloud, path: Path) -> None:
    """Temperature-annotated map as binary little-endian PLY.

    Temperature rides the intensity property. Unset temperatures are
    written as NaN intensity.
    """
    _write_ply(path, cloud)


RAINBOW_ANCHORS = np.array(
    [
        [0, 0, 255],
        [0, 255, 255],
        [0, 255, 0],
        [255, 255, 0],
        [255, 0, 0],
    ],
    dtype=float,
)
UNSET_RGB = np.array([128, 128, 128], dtype=np.uint8)


def rainbow_rgb(temperatures: np.ndarray, t_min: float = 10.0, t_max: float = 40.0) -> np.ndarray:
    """Map temperatures onto the blue-to-red rainbow scale.

    Linear interpolation between five anchor colors over four equal bands
    of the clamped normalized temperature; NaN maps to neutral gray.
    """
    if not t_min < t_max:
        raise ValueError("need t_min < t_max")
    temps = np.asarray(temperatures, dtype=float)
    t = np.clip((temps - t_min) / (t_max - t_min), 0.0, 1.0)
    t = np.where(np.isfinite(t), t, 0.0)
    band = np.minimum((t * 4).astype(int), 3)
    frac = t * 4 - band
    lo = RAINBOW_ANCHORS[band]
    hi = RAINBOW_ANCHORS[band + 1]
    rgb = np.round(lo + (hi - lo) * frac[:, None]).astype(np.uint8)
    rgb[~np.isfinite(temps)] = UNSET_RGB
    return rgb


def export_colored_view(cloud: ThermalPointCloud, path: Path, t_min: float = 10.0, t_max: float = 40.0) -> None:
    """PLY with rainbow red/green/blue channels appended to each vertex."""
    _write_ply(path, cloud, *rainbow_rgb(cloud.temperatures, t_min, t_max).T)


def read_ply(path: Path) -> ThermalPointCloud:
    """Load a map written by export_ply or export_colored_view.

    Color channels, when present, are read and dropped; the cloud carries
    positions and temperatures.
    """
    path = Path(path)
    blob = _read_bytes(path)
    end_marker = b"end_header\n"
    end = blob.find(end_marker)
    if not blob.startswith(b"ply\n") or end < 0:
        raise _fail(path, None, "not a PLY file")
    try:
        header_lines = blob[:end].decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise _fail(path, None, "non-ASCII PLY header") from None
    if len(header_lines) < 2 or header_lines[1] != "format binary_little_endian 1.0":
        raise _fail(path, 2, "expected format binary_little_endian 1.0")
    session_stamp = 0
    count = None
    props: list[tuple[str, str]] = []
    for lineno, line in enumerate(header_lines[2:], start=3):
        parts = line.split()
        if not parts:
            raise _fail(path, lineno, "blank header line")
        if parts[0] == "comment":
            if len(parts) == 3 and parts[1] == "session_unix_ns":
                session_stamp = _parse_int(parts[2], path, lineno, "session_unix_ns")
            continue
        if parts[0] == "element":
            if len(parts) != 3 or parts[1] != "vertex" or count is not None:
                raise _fail(path, lineno, f"unsupported element line {line!r}")
            count = _parse_int(parts[2], path, lineno, "vertex count")
            if count < 0:
                raise _fail(path, lineno, f"negative vertex count {count}")
        elif parts[0] == "property":
            if len(parts) != 3:
                raise _fail(path, lineno, f"bad property line {line!r}")
            props.append((parts[1], parts[2]))
        else:
            raise _fail(path, lineno, f"unsupported header line {line!r}")
    if count is None:
        raise _fail(path, None, "missing vertex element")
    if tuple(props) not in _PLY_LAYOUTS:
        raise _fail(path, None, f"unsupported property layout {props}")
    vertex = _vertex_dtype(tuple(props))
    payload = blob[end + len(end_marker):]
    if len(payload) != count * vertex.itemsize:
        raise _fail(path, None, f"payload is {len(payload)} bytes, expected {count * vertex.itemsize}")
    data = np.frombuffer(payload, dtype=vertex)
    positions = np.column_stack([data["x"], data["y"], data["z"]]).astype(float)
    if not np.all(np.isfinite(positions)):
        raise _fail(path, None, "non-finite vertex positions")
    return ThermalPointCloud(positions, data["intensity"].astype(float), session_stamp)


# ---------------------------------------------------------------------------
# Plain-text reports: `key = value` lines, deterministic key order.


def write_report(path: Path, entries: dict[str, object]) -> None:
    lines = []
    for key, value in entries.items():
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = _fmt(value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    _write_lines(path, lines)


def read_report(path: Path) -> dict[str, str]:
    path = Path(path)
    out: dict[str, str] = {}
    for lineno, row in enumerate(_read_text(path).splitlines(), start=1):
        if not row.strip():
            continue
        if " = " not in row:
            raise _fail(path, lineno, f"expected 'key = value', got {row!r}")
        key, _, value = row.partition(" = ")
        if key in out:
            raise _fail(path, lineno, f"duplicate key {key!r}")
        out[key] = value
    return out


def write_delta_csv(path: Path, positions: np.ndarray, deltas: np.ndarray) -> None:
    lines = ["x,y,z,dt"]
    for (x, y, z), dt in zip(positions, deltas):
        lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(z)},{_fmt(dt)}")
    _write_lines(path, lines)


def write_maturity_points_csv(path: Path, rows: list[tuple[Vec3, int, float, int]]) -> None:
    """One row per monitor position: position, sample count, maturity, rate violations."""
    lines = ["x,y,z,samples,maturity_ch,violations"]
    for position, samples, maturity, violations in rows:
        lines.append(f"{_fmt(position.x)},{_fmt(position.y)},{_fmt(position.z)},{samples},{_fmt(maturity)},{violations}")
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# Map series for maturity monitoring: capture times plus per-session maps.

SERIES_HEADER = "time_h,file"


def _check_series(path: Path, entries: list[tuple[float, str]]) -> None:
    """At least one map, each a bare file name at a finite time after the
    previous one; entry k is on line k + 2."""
    if not entries:
        raise _fail(path, None, "series has no sessions")
    for k, (time_h, name) in enumerate(entries):
        _bare_name(name, path, k + 2, "map")
        if not math.isfinite(time_h):
            raise _fail(path, k + 2, f"time_h must be finite, got {time_h!r}")
        if k and time_h <= entries[k - 1][0]:
            raise _fail(path, k + 2, f"time {time_h} h does not advance past {entries[k - 1][0]} h")


def write_series_csv(path: Path, entries: list[tuple[float, str]]) -> None:
    entries = [(float(time_h), name) for time_h, name in entries]
    _check_series(Path(path), entries)
    _write_lines(path, [SERIES_HEADER] + [f"{_fmt(time_h)},{name}" for time_h, name in entries])


def read_series_csv(path: Path) -> list[tuple[float, str]]:
    path = Path(path)
    out = [
        (_parse_float(time_h, path, lineno, "time_h"), name)
        for lineno, (time_h, name) in _read_table(path, SERIES_HEADER)
    ]
    _check_series(path, out)
    return out

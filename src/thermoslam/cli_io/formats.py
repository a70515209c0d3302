"""On-disk session and result formats.

A session directory holds scans.csv, imu.csv, thermal/index.csv plus one
16-bit PGM per thermal frame, calib.txt, and optionally groundtruth.csv.
Maps are binary little-endian PLY with temperature in the intensity
channel. Every writer except the delta and maturity points tables has a
matching reader; write -> read -> write is byte-identical. The writers of
the stamped tables and of the map series run their reader's stamp, time
and file-name checks before writing anything, and the thermal writer
checks that every frame encodes. Text files are read one line at a time.
A loaded session keeps its IMU samples as one ImuSeries of columns and
its thermal frames as PgmFrame, which reads its file when used. All
floats are serialized with repr() so values round-trip exactly; all
writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core import ImuSeries, PlanarPose, RigidTransform3, Scan2D, SessionDataset, Timestamp
from ..thermal_map import Calibration, CameraIntrinsics, ThermalFrame, ThermalPointCloud, decode_celsius

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


def _read_lines(path: Path) -> Iterator[str]:
    """The file's lines as str.splitlines would give them, read one at a time.

    A physical line ends at a newline; splitting it again breaks it at the
    other boundaries str.splitlines knows (a carriage return, alone or
    before the newline, vertical tab, form feed and the ASCII file, group
    and record separators).
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise _fail(path, None, str(exc)) from None
    with handle:
        try:
            for line in handle:
                yield from line.decode("ascii").splitlines()
        except OSError as exc:
            raise _fail(path, None, str(exc)) from None
        except UnicodeDecodeError:
            raise _fail(path, None, "not an ASCII text file") from None


def _read_table(path: Path, header: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each row below an exact header line.

    Every row must be non-blank and have as many comma-separated fields
    as the header, so data row k (from 0) is on line k + 2. The file is
    read one line at a time.
    """
    rows = _read_lines(path)
    if next(rows, None) != header:
        raise _fail(path, 1, f"expected header {header!r}")
    columns = header.count(",") + 1
    for lineno, row in enumerate(rows, start=2):
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


def _one_line(text: str) -> bool:
    """True for ASCII text without a line break; the empty string counts."""
    return text.isascii() and text.splitlines() in ([], [text])


def _bare_name(name: str, path: Path, line: int, what: str) -> str:
    """A file name that stays inside the directory of the table naming it
    and fits in one field of one ASCII row."""
    if not name or name.startswith(".") or any(c in name for c in "/\\,") or not _one_line(name):
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
        value = int(token)
    except ValueError:
        raise _fail(path, line, f"bad {what}: {token!r}") from None
    if not -(2**63) <= value < 2**63:
        raise _fail(path, line, f"{what} must fit a signed 64-bit integer, got {token!r}")
    return value


# ---------------------------------------------------------------------------
# Range scans.

SCANS_HEADER = "stamp_ns,angle_min,angle_increment,ranges"


def write_scans_csv(path: Path, scans: list[Scan2D]) -> None:
    _check_stamps(path, [scan.stamp for scan in scans])
    lines = [SCANS_HEADER]
    for scan in scans:
        ranges = ";".join(map(repr, scan.ranges.tolist()))
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


def write_imu_csv(path: Path, imu: ImuSeries) -> None:
    stamps = imu.stamps.tolist()
    _check_stamps(path, stamps)
    lines = [IMU_HEADER]
    for stamp, (ax, ay, az) in zip(stamps, imu.accel.tolist()):
        lines.append(f"{stamp},{ax!r},{ay!r},{az!r}")
    _write_lines(path, lines)


def read_imu_csv(path: Path) -> ImuSeries:
    path = Path(path)
    stamps = array("q")
    accel = array("d")
    for lineno, (stamp, ax, ay, az) in _read_table(path, IMU_HEADER):
        stamps.append(_parse_int(stamp, path, lineno, "stamp_ns"))
        accel.append(_parse_float(ax, path, lineno, "ax"))
        accel.append(_parse_float(ay, path, lineno, "ay"))
        accel.append(_parse_float(az, path, lineno, "az"))
    _check_stamps(path, stamps)
    return ImuSeries(np.frombuffer(stamps, dtype=np.int64), np.frombuffer(accel, dtype=float).reshape(-1, 3))


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
    """Raw counts round((t - offset) / scale); every count must fit a PGM sample."""
    raw = np.round((np.asarray(temperatures, dtype=float) - offset) / scale)
    if not np.all(np.isfinite(raw)):
        raise ValueError("temperatures must be finite to encode")
    if raw.min() < 0 or raw.max() > PGM_MAXVAL:
        raise ValueError("temperatures outside the encodable raw range")
    return raw.astype(np.uint16)


def write_thermal_frames(session_dir: Path, frames: list[ThermalFrame], calib: Calibration) -> None:
    """One PGM per frame plus the index; every frame is checked before any file is written."""
    thermal_dir = Path(session_dir) / THERMAL_DIR
    _check_stamps(thermal_dir / THERMAL_INDEX, [frame.stamp for frame in frames])
    paths = [thermal_dir / f"frame_{k:06d}.pgm" for k in range(len(frames))]

    def encode(frame: ThermalFrame, path: Path) -> np.ndarray:
        try:
            return temperatures_to_raw(frame.temperatures, calib.thermal_scale, calib.thermal_offset)
        except ValueError as exc:
            raise _fail(path, None, str(exc)) from None

    for frame, path in zip(frames, paths):
        encode(frame, path)
    for frame, path in zip(frames, paths):
        write_pgm16(path, encode(frame, path))
    _write_lines(thermal_dir / THERMAL_INDEX, [THERMAL_HEADER] + [f"{f.stamp},{p.name}" for f, p in zip(frames, paths)])


@dataclass(frozen=True, eq=False, slots=True)
class PgmFrame:
    """A thermal frame of a loaded session: its stamp, its file, its size and
    the session's encoding, not its samples.

    temperatures reads the file again and runs the reader's checks on it,
    so the samples exist only while the frame is used. A file that no
    longer passes, or whose size changed, raises DatasetFormatError naming
    the file.
    """

    stamp: Timestamp
    path: Path
    width: int
    height: int
    scale: float
    offset: float

    @property
    def temperatures(self) -> np.ndarray:
        """The file's samples decoded to degrees C, as a new float array."""
        raw = read_pgm16(self.path)
        if raw.shape != (self.height, self.width):
            raise _fail(self.path, None, f"frame is {raw.shape[1]}x{raw.shape[0]} pixels, expected {self.width}x{self.height}")
        try:
            return decode_celsius(raw, self.scale, self.offset)
        except ValueError as exc:
            raise _fail(self.path, None, str(exc)) from None


def read_thermal_frames(session_dir: Path, calib: Calibration) -> list[PgmFrame]:
    """Check every frame listed in the index and keep it as a PgmFrame.

    Each frame must have the calibration's width and height and decode to
    plausible temperatures.
    """
    thermal_dir = Path(session_dir) / THERMAL_DIR
    index = thermal_dir / THERMAL_INDEX
    intr = calib.intrinsics
    frames: list[PgmFrame] = []
    for lineno, (stamp, name) in _read_table(index, THERMAL_HEADER):
        stamp = _parse_int(stamp, index, lineno, "stamp_ns")
        frame_path = thermal_dir / _bare_name(name, index, lineno, "frame")
        frame = PgmFrame(stamp, frame_path, intr.width, intr.height, calib.thermal_scale, calib.thermal_offset)
        frame.temperatures  # read and check now, so a bad frame fails the load
        frames.append(frame)
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
    for lineno, row in enumerate(_read_lines(path), start=1):
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
    Every thermal frame is checked here but kept as a PgmFrame, which
    reads its file again when its temperatures are used, so the frame
    files must not change while the session is in use.
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
    return SessionDataset(scans, imu, frames, calib, ground_truth)


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
# rainbow_rgb's temperature range, degC.
COLOR_MIN_C = 10.0
COLOR_MAX_C = 40.0


def rainbow_rgb(temperatures: np.ndarray) -> np.ndarray:
    """Map temperatures onto the blue-to-red rainbow scale.

    Linear interpolation between five anchor colors over four equal bands
    of the temperature clamped to [COLOR_MIN_C, COLOR_MAX_C] and
    normalized; NaN maps to neutral gray.
    """
    temps = np.asarray(temperatures, dtype=float)
    t = np.clip((temps - COLOR_MIN_C) / (COLOR_MAX_C - COLOR_MIN_C), 0.0, 1.0)
    t = np.where(np.isfinite(t), t, 0.0)
    band = np.minimum((t * 4).astype(int), 3)
    frac = t * 4 - band
    lo = RAINBOW_ANCHORS[band]
    hi = RAINBOW_ANCHORS[band + 1]
    rgb = np.round(lo + (hi - lo) * frac[:, None]).astype(np.uint8)
    rgb[~np.isfinite(temps)] = UNSET_RGB
    return rgb


def export_colored_view(cloud: ThermalPointCloud, path: Path) -> None:
    """PLY with rainbow red/green/blue channels appended to each vertex."""
    _write_ply(path, cloud, *rainbow_rgb(cloud.temperatures).T)


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
    """One 'key = value' line per entry, in order.

    Refuses, before writing anything, an entry that read_report would not
    return as written: a key or value that is not one ASCII line, or a key
    holding the ' = ' separator or ending in ' =' (the row would split
    early).
    """
    path = Path(path)
    lines = []
    for lineno, (key, value) in enumerate(entries.items(), start=1):
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = _fmt(value)
        else:
            rendered = str(value)
        if not (_one_line(key) and _one_line(rendered)):
            raise _fail(path, lineno, f"entry {key!r} = {rendered!r} is not one ASCII line")
        if " = " in f"{key} =":
            raise _fail(path, lineno, f"key {key!r} would split at an inner ' = '")
        lines.append(f"{key} = {rendered}")
    _write_lines(path, lines)


def read_report(path: Path) -> dict[str, str]:
    path = Path(path)
    out: dict[str, str] = {}
    for lineno, row in enumerate(_read_lines(path), start=1):
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
    # Row by row: Python floats for every row at once would outweigh the lines.
    for row in np.column_stack([positions, deltas]).astype(float, copy=False):
        x, y, z, dt = row.tolist()
        lines.append(f"{x!r},{y!r},{z!r},{dt!r}")
    _write_lines(path, lines)


def write_maturity_points_csv(
    path: Path, positions: np.ndarray, samples: np.ndarray, maturity: np.ndarray, violations: np.ndarray
) -> None:
    """One row per monitor position: position, sample count, maturity, rate violations."""
    lines = ["x,y,z,samples,maturity_ch,violations"]
    for (x, y, z), count, total, alerts in zip(positions, samples, maturity, violations):
        lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(z)},{count},{_fmt(total)},{alerts}")
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

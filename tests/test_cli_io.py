from __future__ import annotations

import hashlib
import json
import math
import shutil

import numpy as np
import pytest

from thermoslam import (
    Calibration,
    CameraIntrinsics,
    ImuSample,
    NoiseSpec,
    PlanarPose,
    RigidTransform3,
    Scan2D,
    SessionDataset,
    ThermalImage,
    ThermalPointCloud,
    TrajectorySpec,
    Vec3,
    rectangle_site,
    simulate_session,
)
from thermoslam.cli_io import (
    DatasetFormatError,
    export_colored_view,
    export_ply,
    load_session,
    rainbow_rgb,
    read_calib,
    read_imu_csv,
    read_ply,
    read_scans_csv,
    read_series_csv,
    read_thermal_frames,
    read_trajectory_csv,
    run_mapping,
    save_session,
    write_calib,
    write_imu_csv,
    write_scans_csv,
    write_series_csv,
    write_thermal_frames,
    write_trajectory_csv,
)
from thermoslam.cli_io.cli import main
from thermoslam.cli_io.formats import (
    atomic_write_bytes,
    raw_to_temperatures,
    read_pgm16,
    read_report,
    temperatures_to_raw,
    write_delta_csv,
    write_maturity_points_csv,
    write_pgm16,
    write_report,
)
from thermoslam.cli_io.pipeline import estimate_image_noise


def _small_calib(width: int = 8, height: int = 6) -> Calibration:
    return Calibration(
        intrinsics=CameraIntrinsics(fx=10.0, fy=10.0, cx=3.5, cy=2.5, width=width, height=height),
        camera_extrinsic=RigidTransform3(),
        sensor_height=0.6,
        floor_height=3.0,
        vertical_step=0.1,
    )


def _small_dataset(seed: int = 5) -> SessionDataset:
    noise = NoiseSpec(
        range_sigma=0.01,
        range_dropout_prob=0.05,
        gravity_tilt_sigma=math.radians(1.0),
        thermal_noise_sigma=0.3,
    )
    traj = TrajectorySpec(waypoints=((1.0, 1.0), (2.0, 1.0)), speed=0.5, thermal_rate=2.0)
    return simulate_session(rectangle_site(), traj, noise, seed=seed)


# ---------------------------------------------------------------------------
# Scan / IMU / trajectory / series CSVs.


def test_scans_csv_roundtrip_bytes(tmp_path):
    scans = [
        Scan2D(0, -math.pi, 0.1, [1.0, float("nan"), 2.5, 0.75]),
        Scan2D(100_000_000, -math.pi, 0.1, [1.125, 3.0, float("nan"), 0.5]),
    ]
    path = tmp_path / "scans.csv"
    write_scans_csv(path, scans)
    loaded = read_scans_csv(path)
    assert len(loaded) == 2
    for orig, back in zip(scans, loaded):
        assert back.stamp == orig.stamp
        assert back.angle_min == orig.angle_min
        assert back.angle_increment == orig.angle_increment
        assert np.array_equal(back.ranges, orig.ranges, equal_nan=True)
    again = tmp_path / "again.csv"
    write_scans_csv(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_scans_csv_diagnostics(tmp_path):
    path = tmp_path / "scans.csv"

    path.write_text("wrong,header\n")
    with pytest.raises(DatasetFormatError, match="expected header"):
        read_scans_csv(path)

    header = "stamp_ns,angle_min,angle_increment,ranges\n"
    path.write_text(header + "abc,0.0,0.1,1.0;2.0\n")
    with pytest.raises(DatasetFormatError) as err:
        read_scans_csv(path)
    assert str(err.value).startswith(f"{path}:2:")
    assert "stamp_ns" in str(err.value)

    path.write_text(header + "0,0.0,0.1\n")
    with pytest.raises(DatasetFormatError, match="expected 4 columns"):
        read_scans_csv(path)

    path.write_text(header + "5,0.0,0.1,1.0;2.0\n4,0.0,0.1,1.0;2.0\n")
    with pytest.raises(DatasetFormatError, match="goes backwards"):
        read_scans_csv(path)

    # Scan2D's own validation is surfaced with file/line context.
    path.write_text(header + "0,0.0,0.1,-3.0;2.0\n")
    with pytest.raises(DatasetFormatError) as err:
        read_scans_csv(path)
    assert str(err.value).startswith(f"{path}:2:")

    path.write_bytes(header.encode() + b"\xff\n")
    with pytest.raises(DatasetFormatError, match="ASCII"):
        read_scans_csv(path)

    with pytest.raises(DatasetFormatError):
        read_scans_csv(tmp_path / "missing.csv")


def test_imu_csv_roundtrip_and_diagnostics(tmp_path):
    samples = [
        ImuSample(0, Vec3(0.01, -0.02, -9.81)),
        ImuSample(10_000_000, Vec3(-0.005, 0.0, -9.8)),
    ]
    path = tmp_path / "imu.csv"
    write_imu_csv(path, samples)
    assert read_imu_csv(path) == samples

    path.write_text("stamp_ns,ax,ay,az\n0,0.0,inf,-9.8\n")
    with pytest.raises(DatasetFormatError, match="finite"):
        read_imu_csv(path)


def test_trajectory_csv_roundtrip_and_monotonic(tmp_path):
    trajectory = [
        (0, PlanarPose(0.0, 0.0, 0.0)),
        (500, PlanarPose(1.25, -0.5, 0.1)),
        (900, PlanarPose(2.0, 0.75, -2.5)),
    ]
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, trajectory)
    assert read_trajectory_csv(path) == trajectory

    path.write_text("stamp_ns,x,y,theta_z\n10,0.0,0.0,0.0\n5,1.0,0.0,0.0\n")
    with pytest.raises(DatasetFormatError, match="goes backwards"):
        read_trajectory_csv(path)


def test_series_csv_roundtrip_and_validation(tmp_path):
    entries = [(0.0, "epoch0.ply"), (12.5, "epoch1.ply"), (24.0, "epoch2.ply")]
    path = tmp_path / "series.csv"
    write_series_csv(path, entries)
    assert read_series_csv(path) == entries

    path.write_text("time_h,file\n2.0,a.ply\n2.0,b.ply\n")
    with pytest.raises(DatasetFormatError, match="does not advance"):
        read_series_csv(path)
    path.write_text("time_h,file\n1.0,../escape.ply\n")
    with pytest.raises(DatasetFormatError, match="bad map file name"):
        read_series_csv(path)
    path.write_text("time_h,file\n")
    with pytest.raises(DatasetFormatError, match="no sessions"):
        read_series_csv(path)


TABLE_FILES = {
    "series": "series.csv",
    "scans": "scans.csv",
    "imu": "imu.csv",
    "groundtruth": "groundtruth.csv",
    "thermal_index": "thermal/index.csv",
}


def _write_table(table: str, directory, stamps: list[int]):
    """Write one CSV table with a row per stamp; return (path, reader)."""
    path = directory / TABLE_FILES[table]
    if table == "series":
        write_series_csv(path, [(float(s), f"epoch{k}.ply") for k, s in enumerate(stamps)])
        return path, lambda: read_series_csv(path)
    if table == "scans":
        write_scans_csv(path, [Scan2D(s, 0.0, 0.1, [1.0, 2.0]) for s in stamps])
        return path, lambda: read_scans_csv(path)
    if table == "imu":
        write_imu_csv(path, [ImuSample(s, Vec3(0.0, 0.0, -9.8)) for s in stamps])
        return path, lambda: read_imu_csv(path)
    if table == "groundtruth":
        write_trajectory_csv(path, [(s, PlanarPose(0.1 * k, 0.0, 0.0)) for k, s in enumerate(stamps)])
        return path, lambda: read_trajectory_csv(path)
    calib = _small_calib()
    write_thermal_frames(directory, [ThermalImage(s, np.full((6, 8), 20.0)) for s in stamps], calib)
    return path, lambda: read_thermal_frames(directory, calib)


@pytest.mark.parametrize("table", ["scans", "imu", "groundtruth", "thermal_index"])
def test_stamped_tables_reject_repeated_stamps(tmp_path, table):
    # The writers refuse a repeated stamp, so write 0, 5, 6 and edit the 6.
    path, read = _write_table(table, tmp_path, [0, 5, 6])
    header, first, second, third = path.read_text().splitlines()
    assert third.startswith("6,")
    path.write_text(f"{header}\n{first}\n{second}\n5{third[1:]}\n")
    with pytest.raises(DatasetFormatError) as err:
        read()
    assert str(err.value) == f"{path}:4: timestamp 5 repeats (previous 5)"


@pytest.mark.parametrize("table", ["scans", "imu", "groundtruth", "thermal_index"])
def test_stamped_writers_reject_repeated_stamps(tmp_path, table):
    with pytest.raises(DatasetFormatError) as err:
        _write_table(table, tmp_path, [0, 5, 5])
    assert str(err.value) == f"{tmp_path / TABLE_FILES[table]}:4: timestamp 5 repeats (previous 5)"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "entries, reason",
    [
        ([(0.0, "a,b.ply")], "bad map file name 'a,b.ply'"),
        ([(0.0, "../x.ply")], "bad map file name '../x.ply'"),
        ([(0.0, ".hidden.ply")], "bad map file name '.hidden.ply'"),
        ([(0.0, "a\nb.ply")], "bad map file name 'a\\nb.ply'"),
        ([(0.0, "a.ply"), (0.0, "b.ply")], "time 0.0 h does not advance past 0.0 h"),
        ([(0.0, "a.ply"), (math.nan, "b.ply")], "time_h must be finite, got nan"),
    ],
    ids=["comma", "parent_dir", "hidden", "newline", "repeated_time", "nan_time"],
)
def test_series_writer_rejects_what_its_reader_rejects(tmp_path, entries, reason):
    path = tmp_path / "series.csv"
    with pytest.raises(DatasetFormatError) as err:
        write_series_csv(path, entries)
    assert str(err.value) == f"{path}:{len(entries) + 1}: {reason}"
    with pytest.raises(DatasetFormatError, match="no sessions"):
        write_series_csv(path, [])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("table", ["scans", "imu", "groundtruth", "thermal_index", "series"])
def test_tables_reject_blank_rows(tmp_path, table):
    path, read = _write_table(table, tmp_path, [0, 5])
    header, first, second = path.read_text().splitlines()
    path.write_text(f"{header}\n{first}\n\n{second}\n")
    with pytest.raises(DatasetFormatError) as err:
        read()
    assert str(err.value) == f"{path}:3: blank line"


# ---------------------------------------------------------------------------
# PGM frames and the thermal index.


def test_pgm16_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    raw = rng.integers(0, 65536, (6, 9), dtype=np.uint16)
    path = tmp_path / "frame.pgm"
    write_pgm16(path, raw)
    assert np.array_equal(read_pgm16(path), raw)


def test_pgm16_rejects_malformed(tmp_path):
    path = tmp_path / "bad.pgm"
    with pytest.raises(ValueError):
        write_pgm16(path, np.zeros((4, 4), dtype=float))
    with pytest.raises(ValueError):
        write_pgm16(path, np.full((4, 4), -1, dtype=np.int32))

    path.write_bytes(b"P2\n4 4\n65535\n" + b"\x00" * 32)
    with pytest.raises(DatasetFormatError, match="not a binary PGM"):
        read_pgm16(path)
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 16)
    with pytest.raises(DatasetFormatError, match="maxval"):
        read_pgm16(path)
    path.write_bytes(b"P5\n4 4\n65535\n" + b"\x00" * 10)
    with pytest.raises(DatasetFormatError, match="payload"):
        read_pgm16(path)
    path.write_bytes(b"P5 4")
    with pytest.raises(DatasetFormatError, match="truncated"):
        read_pgm16(path)


def test_thermal_raw_quantization():
    rng = np.random.default_rng(21)
    temps = rng.uniform(-30.0, 200.0, (5, 7))
    raw = temperatures_to_raw(temps, scale=0.01, offset=-100.0)
    back = raw_to_temperatures(raw, scale=0.01, offset=-100.0)
    assert np.max(np.abs(back - temps)) <= 0.005 + 1e-12
    with pytest.raises(ValueError):
        temperatures_to_raw(np.array([1000.0]), scale=0.01, offset=-100.0)


def test_thermal_frames_roundtrip(tmp_path):
    calib = _small_calib()
    rng = np.random.default_rng(3)
    frames = [
        ThermalImage(0, rng.uniform(10.0, 35.0, (6, 8))),
        ThermalImage(200_000_000, rng.uniform(10.0, 35.0, (6, 8))),
    ]
    write_thermal_frames(tmp_path, frames, calib)
    loaded = read_thermal_frames(tmp_path, calib)
    assert [f.stamp for f in loaded] == [0, 200_000_000]
    for orig, back in zip(frames, loaded):
        assert np.max(np.abs(back.temperatures - orig.temperatures)) <= 0.005 + 1e-12
    assert sorted(p.name for p in (tmp_path / "thermal").iterdir()) == [
        "frame_000000.pgm",
        "frame_000001.pgm",
        "index.csv",
    ]


def test_thermal_index_rejects_path_escape(tmp_path):
    calib = _small_calib()
    write_thermal_frames(tmp_path, [ThermalImage(0, np.full((6, 8), 20.0))], calib)
    index = tmp_path / "thermal" / "index.csv"
    atomic_write_bytes(index, b"stamp_ns,file\n0,../../etc/frame.pgm\n")
    with pytest.raises(DatasetFormatError, match="bad frame file name"):
        read_thermal_frames(tmp_path, calib)


# ---------------------------------------------------------------------------
# Calibration.


def test_calib_roundtrip_bytes(tmp_path):
    calib = _small_calib()
    a = tmp_path / "calib.txt"
    b = tmp_path / "calib2.txt"
    write_calib(a, calib)
    loaded = read_calib(a)
    write_calib(b, loaded)
    assert a.read_bytes() == b.read_bytes()
    assert loaded.intrinsics == calib.intrinsics
    assert loaded.sensor_height == calib.sensor_height


def test_calib_diagnostics(tmp_path):
    path = tmp_path / "calib.txt"
    write_calib(path, _small_calib())
    good = path.read_text()

    path.write_text(good + "frobnicate=1\n")
    with pytest.raises(DatasetFormatError, match="unknown calibration key"):
        read_calib(path)
    path.write_text(good + "fx=99.0\n")
    with pytest.raises(DatasetFormatError, match="duplicate"):
        read_calib(path)
    path.write_text("fx=10.0\n")
    with pytest.raises(DatasetFormatError, match="missing calibration keys"):
        read_calib(path)
    path.write_text(
        "\n".join(
            line if not line.startswith("cam_extrinsic=") else "cam_extrinsic=1.0 0.0 0.0"
            for line in good.splitlines()
        )
        + "\n"
    )
    with pytest.raises(DatasetFormatError, match="12 values"):
        read_calib(path)


# ---------------------------------------------------------------------------
# Whole sessions.


def test_save_load_session_roundtrip(tmp_path):
    dataset = _small_dataset()
    save_session(dataset, tmp_path / "session")
    loaded = load_session(tmp_path / "session")

    assert len(loaded.scans) == len(dataset.scans)
    for orig, back in zip(dataset.scans, loaded.scans):
        assert back.stamp == orig.stamp
        assert back.angle_min == orig.angle_min
        assert back.angle_increment == orig.angle_increment
        assert np.array_equal(back.ranges, orig.ranges, equal_nan=True)
    assert loaded.imu == dataset.imu
    assert loaded.ground_truth == dataset.ground_truth
    assert len(loaded.frames) == len(dataset.frames)
    for orig, back in zip(dataset.frames, loaded.frames):
        assert back.stamp == orig.stamp
        assert np.max(np.abs(back.temperatures - orig.temperatures)) <= 0.005 + 1e-12
    assert loaded.site is None

    with pytest.raises(DatasetFormatError, match="not a directory"):
        load_session(tmp_path / "nope")


# ---------------------------------------------------------------------------
# PLY maps.


def test_ply_roundtrip_plain_and_colored(tmp_path):
    rng = np.random.default_rng(17)
    positions = rng.uniform(-5.0, 5.0, (40, 3))
    temps = rng.uniform(12.0, 38.0, 40)
    temps[::5] = np.nan
    cloud = ThermalPointCloud(positions, temps, session_stamp=123456789)

    plain = tmp_path / "map.ply"
    export_ply(cloud, plain)
    back = read_ply(plain)
    # Vertices are stored as float32; the reader returns those exact values.
    assert np.array_equal(back.positions, positions.astype("<f4").astype(float))
    assert np.array_equal(back.temperatures, temps.astype("<f4").astype(float), equal_nan=True)
    assert back.session_stamp == 123456789

    colored = tmp_path / "colored.ply"
    export_colored_view(cloud, colored, t_min=10.0, t_max=40.0)
    back2 = read_ply(colored)
    assert np.array_equal(back2.positions, back.positions)
    assert np.array_equal(back2.temperatures, back.temperatures, equal_nan=True)

    with pytest.raises(ValueError):
        export_ply(ThermalPointCloud(np.empty((0, 3)), np.empty(0)), tmp_path / "empty.ply")


def test_read_ply_rejects_malformed(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_bytes(b"hello world\n")
    with pytest.raises(DatasetFormatError, match="not a PLY"):
        read_ply(path)

    cloud = ThermalPointCloud(np.zeros((3, 3)), np.full(3, 20.0))
    good = tmp_path / "good.ply"
    export_ply(cloud, good)
    blob = good.read_bytes()

    path.write_bytes(blob.replace(b"binary_little_endian", b"ascii"))
    with pytest.raises(DatasetFormatError, match="format"):
        read_ply(path)
    path.write_bytes(blob[:-4])
    with pytest.raises(DatasetFormatError, match="payload"):
        read_ply(path)
    path.write_bytes(blob.replace(b"property float intensity", b"property float nx"))
    with pytest.raises(DatasetFormatError, match="property layout"):
        read_ply(path)


def test_rainbow_rgb_mapping():
    rgb = rainbow_rgb(np.array([10.0, 17.5, 25.0, 32.5, 40.0]), t_min=10.0, t_max=40.0)
    assert np.array_equal(
        rgb,
        [[0, 0, 255], [0, 255, 255], [0, 255, 0], [255, 255, 0], [255, 0, 0]],
    )
    # Clamped outside the range, gray for unset.
    edge = rainbow_rgb(np.array([-100.0, 500.0, np.nan]))
    assert np.array_equal(edge[0], [0, 0, 255])
    assert np.array_equal(edge[1], [255, 0, 0])
    assert np.array_equal(edge[2], [128, 128, 128])
    with pytest.raises(ValueError):
        rainbow_rgb(np.array([20.0]), t_min=5.0, t_max=5.0)


# ---------------------------------------------------------------------------
# Reports.


def test_report_roundtrip(tmp_path):
    path = tmp_path / "report.txt"
    write_report(path, {"points": 42, "ate_m": 0.125, "converged": True, "note": "fine"})
    text = path.read_text()
    assert "points = 42" in text
    assert "ate_m = 0.125" in text
    assert "converged = true" in text
    assert read_report(path) == {
        "points": "42",
        "ate_m": "0.125",
        "converged": "true",
        "note": "fine",
    }

    path.write_text("a = 1\n\na = 2\n")
    with pytest.raises(DatasetFormatError) as err:
        read_report(path)
    assert str(err.value) == f"{path}:3: duplicate key 'a'"


def _pinned_session() -> SessionDataset:
    calib = _small_calib()
    ramp = np.arange(48.0).reshape(6, 8)
    return SessionDataset(
        scans=[
            Scan2D(1_000_000_000, -math.pi, 0.25, [1.5, math.nan, 2.125, 0.1]),
            Scan2D(1_100_000_000, -3.0, 0.125, [3.0, 0.7, math.nan, 1e-3]),
        ],
        imu=[
            ImuSample(1_000_000_000, Vec3(0.03, -0.01, -9.81)),
            ImuSample(1_010_000_000, Vec3(0.0, 0.125, -9.8)),
        ],
        frames=[ThermalImage(1_000_000_000, 20.0 + 0.37 * ramp), ThermalImage(1_500_000_000, 15.5 + 0.01 * ramp)],
        calib=calib,
        ground_truth=[(1_000_000_000, PlanarPose(1.0, 0.8, 0.0)), (1_100_000_000, PlanarPose(1.05, 0.8, 0.1))],
    )


# sha256 of every file the writers produce for the fixed inputs above.
PINNED_SHA256 = {
    "colored.ply": "1e251ceb2c80ecf7d305ad9283586ab9b7e998044131c70bfd688c2f8baf2543",
    "deltas.csv": "a7c981d0e1176648a9f6078a4c24ade714f322f4a5da31a4260a4455c0cfd4c7",
    "map.ply": "28426fceb6f561f423d68b14053c59556d3805699689882bf75d9721a14dda69",
    "maturity_points.csv": "6246b9250384f3986036ec157a00088aa756e81263387e2bde43a1f7b43acbaf",
    "report.txt": "498545616bd3f1ccf56cac9488df4b14c044f9c1b14918b50c6e0f96dafc589a",
    "series.csv": "2acc06e19d5c13a414817baaccd4c971ec581a28b2a51796546f23b6ae2db1b6",
    "session/calib.txt": "9c5bfeeaaaf1f85b453a6b545b75ef8c8e51fd8dbb4479926110962b722bde86",
    "session/groundtruth.csv": "80de777f1ed5647a8cdbe54b08534e9f0212f831eb8cfe5c9af270058e8040d1",
    "session/imu.csv": "83e3d523547bb5c483287c6c5d7671cfdb90b0b48196077910d6a148a6b678a8",
    "session/scans.csv": "b0a4e49f10b2d1e4369eacff7f70217c9fa4ae800d3d1a09126e9cffb18dfc96",
    "session/thermal/frame_000000.pgm": "afaa8897cbdac977bc5312277f25cb95ef187ce46f001441bf5b68ca5568f9a1",
    "session/thermal/frame_000001.pgm": "9d4f9999a5d51e17778075d64a521bac511395ca853994b3a0d364c6aa92cfc7",
    "session/thermal/index.csv": "57415bc79493981943fb7d30849babdf94ba17280d29cbe9461203c50773ac1b",
}


def test_writers_pin_bytes(tmp_path):
    save_session(_pinned_session(), tmp_path / "session")
    positions = np.column_stack([np.linspace(-1.0, 2.0, 9), np.linspace(0.5, 3.5, 9) ** 2 / 3.0, np.linspace(0.0, 3.0, 9)])
    temperatures = np.linspace(5.0, 45.0, 9)
    temperatures[::4] = math.nan
    cloud = ThermalPointCloud(positions, temperatures, session_stamp=1_000_000_000)
    export_ply(cloud, tmp_path / "map.ply")
    export_colored_view(cloud, tmp_path / "colored.ply")
    write_report(
        tmp_path / "report.txt",
        {"points": 42, "ate_m": 0.125, "converged": True, "no_overlap": False, "note": "fine", "mean_dt_c": 1 / 3, "unset": math.nan},
    )
    write_delta_csv(tmp_path / "deltas.csv", positions[:3], np.array([0.5, -1.25, 1 / 3]))
    write_series_csv(tmp_path / "series.csv", [(0.0, "epoch0.ply"), (12.5, "epoch1.ply"), (24.0 + 1 / 3, "epoch2.ply")])
    write_maturity_points_csv(
        tmp_path / "maturity_points.csv", [(Vec3(1.0, 0.875, 1 / 3), 3, 612.5, 1), (Vec3(-2.0, 0.1, 2.9), 1, 0.0, 0)]
    )
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert digests == PINNED_SHA256


def test_write_delta_csv_layout(tmp_path):
    path = tmp_path / "deltas.csv"
    write_delta_csv(path, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), np.array([0.5, -1.25]))
    rows = path.read_text().splitlines()
    assert rows[0] == "x,y,z,dt"
    assert len(rows) == 3
    assert [float(v) for v in rows[2].split(",")] == [4.0, 5.0, 6.0, -1.25]


# ---------------------------------------------------------------------------
# Pipeline odds and ends.


def test_run_mapping_rejects_empty_session():
    dataset = SessionDataset(scans=[], imu=[], frames=[], calib=_small_calib())
    with pytest.raises(ValueError, match="no scans"):
        run_mapping(dataset)


def test_estimate_image_noise_recovers_sigma():
    rng = np.random.default_rng(30)
    base = 20.0 + 0.01 * np.arange(80)[None, :]  # gentle ramp, not "noise"
    image = ThermalImage(0, base + 0.3 * rng.standard_normal((60, 80)))
    sigma = estimate_image_noise(image)
    assert 0.25 < sigma < 0.35


# ---------------------------------------------------------------------------
# CLI commands.


def _write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_simulate_validation(tmp_path, capsys):
    traj = _write_json(tmp_path / "traj.json", {"waypoints": [[1.0, 1.0], [2.0, 1.0]]})
    noise = _write_json(tmp_path / "noise.json", {})
    out = str(tmp_path / "session")

    rc = main(["simulate", "--site", "volcano", "--traj", traj, "--noise", noise, "--seed", "1", "--out", out])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert "rectangle" in captured.err and "two_room" in captured.err

    rc = main(["simulate", "--site", "rectangle", "--traj", traj, "--noise", noise, "--seed", "-1", "--out", out])
    captured = capsys.readouterr()
    assert rc == 2
    assert "seed" in captured.err


def test_cli_rejects_unknown_json_keys(tmp_path, capsys):
    noise = _write_json(tmp_path / "noise.json", {})
    bad_traj = _write_json(tmp_path / "traj.json", {"waypoints": [[1.0, 1.0], [2.0, 1.0]], "velocity": 2.0})
    rc = main(["simulate", "--site", "rectangle", "--traj", bad_traj, "--noise", noise, "--seed", "1", "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "velocity" in capsys.readouterr().err

    traj = _write_json(tmp_path / "traj2.json", {"waypoints": [[1.0, 1.0], [2.0, 1.0]]})
    bad_noise = _write_json(tmp_path / "noise2.json", {"fog": 0.5})
    rc = main(["simulate", "--site", "rectangle", "--traj", traj, "--noise", bad_noise, "--seed", "1", "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "fog" in capsys.readouterr().err


def test_cli_turn_rate_degrees_drives_duration(tmp_path, capsys):
    # 2 m + 1 m legs at 1 m/s plus a 90 degree turn at 90 deg/s: 4 s of
    # session, so exactly 40 scans at the default 10 Hz.
    traj = _write_json(
        tmp_path / "traj.json",
        {"waypoints": [[1.0, 1.0], [3.0, 1.0], [3.0, 2.0]], "speed": 1.0, "turn_rate_deg_s": 90.0},
    )
    noise = _write_json(tmp_path / "noise.json", {"gravity_tilt_sigma_deg": 0.5})
    rc = main(["simulate", "--site", "rectangle", "--traj", traj, "--noise", noise, "--seed", "2", "--out", str(tmp_path / "session")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "simulated 40 scans" in captured.out


def test_cli_map_bad_inputs(tmp_path, capsys):
    rc = main(["map", "--session", str(tmp_path / "missing"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

    session = tmp_path / "session"
    save_session(_small_dataset(), session)
    # Keys of the removed point-pair refinement, of the fixed normal
    # neighborhood and zero-range threshold, and of the removed
    # nearest-pixel sampling are rejected, not ignored.
    for k, (key, config) in enumerate(
        [
            ("delta", {"matcher": {"delta": 1.0}}),
            ("refine_rounds", {"refine_rounds": 3}),
            ("thermal", {"weights": {"thermal": 1.0}}),
            ("min_point_norm", {"matcher": {"min_point_norm": 1e-6}}),
            ("normal_neighbors", {"matcher": {"normal_neighbors": 10}}),
            ("normal_radius", {"matcher": {"normal_radius": 0.4}}),
            ("normal_flatness", {"matcher": {"normal_flatness": 0.05}}),
            ("bilinear", {"bilinear": False}),
        ]
    ):
        bad_cfg = _write_json(tmp_path / f"cfg{k}.json", config)
        rc = main(["map", "--session", str(session), "--config", bad_cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert key in capsys.readouterr().err


def test_cli_full_workflow(tmp_path, capsys):
    traj = _write_json(
        tmp_path / "traj.json",
        {"waypoints": [[1.0, 1.0], [3.0, 1.0], [3.0, 3.0]], "speed": 0.5, "thermal_rate": 2.0},
    )
    noise = _write_json(
        tmp_path / "noise.json",
        {"range_sigma": 0.005, "gravity_tilt_sigma_deg": 0.5, "thermal_noise_sigma": 0.2},
    )
    session = tmp_path / "session"
    rc = main(["simulate", "--site", "rectangle", "--traj", traj, "--noise", noise, "--seed", "9", "--out", str(session)])
    assert rc == 0
    assert "simulated" in capsys.readouterr().out
    for name in ("scans.csv", "imu.csv", "calib.txt", "groundtruth.csv"):
        assert (session / name).is_file()
    assert (session / "thermal" / "index.csv").is_file()

    config = _write_json(
        tmp_path / "config.json",
        {"matcher": {"huber_delta": 0.1}, "weights": {"translation": 5.0, "rotation": 400.0}},
    )
    mapped = tmp_path / "mapped"
    rc = main(["map", "--session", str(session), "--config", config, "--out", str(mapped)])
    assert rc == 0
    assert "mapped" in capsys.readouterr().out
    diagnostics = read_report(mapped / "diagnostics.txt")
    assert int(diagnostics["keyframes"]) > 0
    assert int(diagnostics["map_points"]) > 0
    assert float(diagnostics["ate_m"]) < 0.05
    trajectory = read_trajectory_csv(mapped / "trajectory.csv")
    assert len(trajectory) == int(diagnostics["keyframes"])

    compared = tmp_path / "compared"
    rc = main(["compare", "--reference", str(mapped / "map.ply"), "--moving", str(mapped / "map.ply"), "--out", str(compared)])
    assert rc == 0
    assert "compared maps" in capsys.readouterr().out
    report = read_report(compared / "report.txt")
    assert int(report["matched_pairs"]) > 0
    assert abs(float(report["mean_dt_c"])) < 1e-9
    assert abs(float(report["align_yaw_rad"])) < 1e-9
    assert (compared / "deltas.csv").is_file()

    series = tmp_path / "series"
    series.mkdir()
    shutil.copy(mapped / "map.ply", series / "epoch0.ply")
    shutil.copy(mapped / "map.ply", series / "epoch1.ply")
    write_series_csv(series / "series.csv", [(0.0, "epoch0.ply"), (10.0, "epoch1.ply")])
    maturity_report = tmp_path / "maturity.txt"
    rc = main(["maturity", "--series", str(series), "--out", str(maturity_report)])
    assert rc == 0
    assert "maturity over 2 sessions" in capsys.readouterr().out
    summary = read_report(maturity_report)
    assert int(summary["positions_with_history"]) > 0
    # Constant ~20 C walls for 10 h against the -10 C datum.
    assert 280.0 < float(summary["maturity_mean_ch"]) < 320.0
    assert int(summary["rate_violations"]) == 0
    points_csv = tmp_path / "maturity_points.csv"
    assert points_csv.is_file()
    rows = points_csv.read_text().splitlines()
    assert rows[0] == "x,y,z,samples,maturity_ch,violations"
    # Every monitored position is a map point, written as plain numbers.
    map_points = {tuple(p) for p in read_ply(series / "epoch0.ply").positions}
    for row in rows[1:]:
        x, y, z, samples, maturity, violations = row.split(",")
        assert (float(x), float(y), float(z)) in map_points
        assert int(samples) == 2 and float(maturity) > 0.0 and int(violations) == 0

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import thermoslam
from thermoslam import (
    Calibration,
    CameraIntrinsics,
    ImuSeries,
    NoiseSpec,
    PlanarPose,
    RigidTransform3,
    Scan2D,
    SessionDataset,
    ThermalImage,
    ThermalPointCloud,
    TrajectorySpec,
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
from thermoslam.cli_io import formats
from thermoslam.cli_io.cli import main
from thermoslam.cli_io.formats import (
    TRAJECTORY_HEADER,
    atomic_write_bytes,
    read_pgm16,
    read_report,
    temperatures_to_raw,
    write_delta_csv,
    write_maturity_points_csv,
    write_pgm16,
    write_report,
)
from thermoslam.thermal_map import estimate_image_noise


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
    samples = ImuSeries([0, 10_000_000], [(0.01, -0.02, -9.81), (-0.005, 0.0, -9.8)])
    path = tmp_path / "imu.csv"
    write_imu_csv(path, samples)
    back = read_imu_csv(path)
    assert np.array_equal(back.stamps, samples.stamps)
    assert np.array_equal(back.accel, samples.accel)

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
        write_imu_csv(path, ImuSeries(stamps, [(0.0, 0.0, -9.8)] * len(stamps)))
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
def test_stamped_tables_reject_stamps_beyond_int64(tmp_path, table):
    # Mapping holds stamps in int64 arrays, so a larger stamp is refused
    # where it is read, with its line, and not in `map`.
    path, read = _write_table(table, tmp_path, [0, 5, 6])
    header, first, second, third = path.read_text().splitlines()
    path.write_text(f"{header}\n{first}\n{second}\n{2**63}{third[1:]}\n")
    with pytest.raises(DatasetFormatError) as err:
        read()
    assert str(err.value) == f"{path}:4: stamp_ns must fit a signed 64-bit integer, got '{2**63}'"
    path.write_text(f"{header}\n{-(2**63)}{first[1:]}\n{second}\n{third}\n")
    assert len(read()) == 3


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


def test_tables_split_rows_at_every_line_boundary(tmp_path):
    # The boundaries of str.splitlines: a carriage return alone or before a
    # newline, vertical tab, form feed, and the file, group and record
    # separators. Row k (from 0) stays on line k + 2.
    path = tmp_path / "groundtruth.csv"
    rows = [TRAJECTORY_HEADER] + [f"{k},{k}.5,0.0,0.0" for k in range(8)]
    ends = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\n", ""]
    path.write_bytes("".join(row + end for row, end in zip(rows, ends)).encode())
    assert read_trajectory_csv(path) == [(k, PlanarPose(k + 0.5, 0.0, 0.0)) for k in range(8)]
    rows[7] = "6,six,0.0,0.0"
    path.write_bytes("".join(row + end for row, end in zip(rows, ends)).encode())
    with pytest.raises(DatasetFormatError) as err:
        read_trajectory_csv(path)
    assert str(err.value) == f"{path}:8: bad x: 'six'"
    # A separator right before a newline ends an empty line.
    path.write_bytes(f"{rows[0]}\n{rows[1]}\v\n{rows[2]}\n".encode())
    with pytest.raises(DatasetFormatError) as err:
        read_trajectory_csv(path)
    assert str(err.value) == f"{path}:3: blank line"

    # Far past the first read of the file: the row count, and the line of a
    # bad row, are those of the whole text split at once.
    rows = [TRAJECTORY_HEADER] + [f"{k},0.25,0.0,0.0" for k in range(6000)]
    path.write_bytes("\r\n".join(rows).encode())
    assert len(read_trajectory_csv(path)) == 6000
    rows[5001] = "5000,far,0.0,0.0"
    path.write_bytes("\r\n".join(rows).encode())
    with pytest.raises(DatasetFormatError) as err:
        read_trajectory_csv(path)
    assert str(err.value) == f"{path}:5002: bad x: 'far'"


def test_read_scans_csv_holds_no_copy_of_the_file(tmp_path):
    rng = np.random.default_rng(22)
    path = tmp_path / "scans.csv"
    write_scans_csv(path, [Scan2D(k, -math.pi, 0.026, rng.uniform(0.5, 9.0, 240)) for k in range(300)])
    tracemalloc.start()
    try:
        scans = read_scans_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scans) == 300
    # The scans themselves take about half the file's size; the text of
    # the whole file and its list of lines would take twice its size.
    assert peak < path.stat().st_size


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
    back = ThermalImage(0, raw, 0.01, -100.0).temperatures
    assert np.max(np.abs(back - temps)) <= 0.005 + 1e-12
    with pytest.raises(ValueError):
        temperatures_to_raw(np.array([1000.0]), scale=0.01, offset=-100.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_temperatures_to_raw_refuses_non_finite_temperatures(value):
    with pytest.raises(ValueError, match="finite"):
        temperatures_to_raw(np.array([20.0, value]), scale=0.01, offset=-100.0)


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


def test_read_thermal_frames_keeps_no_samples(tmp_path):
    calib = _small_calib(width=80, height=60)
    rng = np.random.default_rng(4)
    stamps = [k * 100_000_000 for k in range(12)]
    write_thermal_frames(tmp_path, [ThermalImage(s, rng.uniform(10.0, 35.0, (60, 80))) for s in stamps], calib)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        frames = read_thermal_frames(tmp_path, calib)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # A stamp, a path, a size and the encoding per frame; the 16-bit
    # samples alone would take 2 * 80 * 60 = 9600 bytes.
    assert kept <= 1024 * len(frames)
    assert [(f.stamp, f.width, f.height) for f in frames] == [(s, 80, 60) for s in stamps]
    assert [f.path.name for f in frames] == [f"frame_{k:06d}.pgm" for k in range(12)]


def test_cli_map_rejects_a_frame_of_another_size_before_mapping(tmp_path, capsys):
    session = tmp_path / "session"
    save_session(_small_dataset(), session)
    frame = session / "thermal" / "frame_000003.pgm"
    write_pgm16(frame, np.full((60, 80), 12000, dtype=np.uint16))
    with pytest.raises(DatasetFormatError, match="frame is 80x60 pixels, expected ") as exc:
        load_session(session)
    assert str(exc.value).startswith(f"{frame}: ")
    out = tmp_path / "out"
    assert main(["map", "--session", str(session), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {frame}: ")
    assert not out.exists()


@pytest.mark.parametrize("change", ["shifted", "one_row", "no_rows"])
def test_cli_map_scores_too_few_shared_ground_truth_stamps_as_nan(tmp_path, capsys, change):
    # Ground truth may hold any increasing stamps. Sharing fewer than 3 with
    # the trajectory leaves the rigid fit of the ATE undetermined.
    dataset = _small_dataset()
    truth = dataset.ground_truth
    rows = {"shifted": [(s + 1, p) for s, p in truth], "one_row": truth[:1], "no_rows": []}
    dataset.ground_truth = rows[change]
    session = tmp_path / "session"
    save_session(dataset, session)
    out = tmp_path / "out"
    assert main(["map", "--session", str(session), "--out", str(out)]) == 0
    assert "mapped" in capsys.readouterr().out
    assert read_report(out / "diagnostics.txt")["ate_m"] == "nan"


def test_write_thermal_frames_checks_every_frame_before_writing(tmp_path):
    calib = dataclasses.replace(_small_calib(), thermal_scale=0.001, thermal_offset=-10.0)
    # 80 degC needs raw 90000 at this encoding, past 65535.
    frames = [ThermalImage(k, np.full((6, 8), t)) for k, t in enumerate((20.0, 30.0, 80.0))]
    with pytest.raises(DatasetFormatError, match="encodable raw range") as exc:
        write_thermal_frames(tmp_path, frames, calib)
    assert str(exc.value).startswith(str(tmp_path / "thermal" / "frame_000002.pgm"))
    assert not (tmp_path / "thermal").exists() or not any((tmp_path / "thermal").iterdir())


@pytest.mark.parametrize("change", ["truncated", "resized"])
def test_loaded_frames_are_read_again_when_they_paint(tmp_path, monkeypatch, change):
    session = tmp_path / "session"
    dataset = _small_dataset()
    # One more frame a second after the last scan, outside every keyframe's window.
    last = dataset.frames[-1]
    dataset.frames.append(ThermalImage(dataset.scans[-1].stamp + 1_000_000_000, last.temperatures))
    save_session(dataset, session)
    painted: list[Path] = []
    paint = thermoslam.cli_io.pipeline.project_to_thermal

    def recording_paint(cloud, distance, camera_pose, intrinsics, image):
        painted.append(image.path)
        paint(cloud, distance, camera_pose, intrinsics, image)

    monkeypatch.setattr(thermoslam.cli_io.pipeline, "project_to_thermal", recording_paint)
    expected = run_mapping(load_session(session)).cloud
    used = sorted(set(painted))
    frames = sorted((session / "thermal").glob("*.pgm"))
    assert 0 < len(used) < len(frames)

    # Files of frames that no keyframe uses are never read after the load.
    dataset = load_session(session)
    for path in frames:
        if path not in used:
            path.unlink()
    cloud = run_mapping(dataset).cloud
    np.testing.assert_array_equal(cloud.positions, expected.positions)
    np.testing.assert_array_equal(cloud.temperatures, expected.temperatures)

    victim = used[len(used) // 2]
    if change == "truncated":
        victim.write_bytes(victim.read_bytes()[:-1])
    else:
        write_pgm16(victim, np.full((60, 80), 12000, dtype=np.uint16))
    with pytest.raises(DatasetFormatError) as exc:
        run_mapping(dataset)
    assert str(exc.value).startswith(f"{victim}: ")


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


@pytest.mark.parametrize(
    "key, value",
    [("sensor_height", "3.5"), ("sensor_height", "-1.0"), ("vertical_step", "0.0"), ("vertical_step", "-0.1")],
    ids=["sensor_above_floor_height", "sensor_below_floor", "zero_step", "negative_step"],
)
def test_read_calib_rejects_impossible_extrusion(tmp_path, key, value):
    # floor_height is 3.0; the file is rejected when read, not after odometry.
    path = tmp_path / "calib.txt"
    write_calib(path, _small_calib())
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=rf"calib\.txt: need 0 < {key}"):
        read_calib(path)


@pytest.mark.parametrize("scale", [0.0, -0.01, math.nan, math.inf])
def test_calibration_rejects_a_thermal_scale_that_is_not_finite_and_positive(tmp_path, scale):
    # A scale of 0 decodes every frame to the offset, which passes every
    # frame check; a negative scale inverts the field.
    with pytest.raises(ValueError, match="thermal_scale"):
        dataclasses.replace(_small_calib(), thermal_scale=scale)
    path = tmp_path / "calib.txt"
    write_calib(path, _small_calib())
    text = path.read_text()
    assert "\nthermal_scale=0.01\n" in text
    path.write_text(text.replace("\nthermal_scale=0.01\n", f"\nthermal_scale={scale!r}\n"))
    with pytest.raises(DatasetFormatError) as err:
        read_calib(path)
    assert str(err.value).startswith(f"{path}: ")
    assert "thermal_scale" in str(err.value)


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
    assert np.array_equal(loaded.imu.stamps, dataset.imu.stamps)
    assert np.array_equal(loaded.imu.accel, dataset.imu.accel)
    assert loaded.ground_truth == dataset.ground_truth
    assert len(loaded.frames) == len(dataset.frames)
    for orig, back in zip(dataset.frames, loaded.frames):
        assert back.stamp == orig.stamp
        assert np.max(np.abs(back.temperatures - orig.temperatures)) <= 0.005 + 1e-12

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
    export_colored_view(cloud, colored)
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
    rgb = rainbow_rgb(np.array([10.0, 17.5, 25.0, 32.5, 40.0]))
    assert np.array_equal(
        rgb,
        [[0, 0, 255], [0, 255, 255], [0, 255, 0], [255, 255, 0], [255, 0, 0]],
    )
    # Clamped outside the range, gray for unset.
    edge = rainbow_rgb(np.array([-100.0, 500.0, np.nan]))
    assert np.array_equal(edge[0], [0, 0, 255])
    assert np.array_equal(edge[1], [255, 0, 0])
    assert np.array_equal(edge[2], [128, 128, 128])


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


@pytest.mark.parametrize(
    "entries, reason",
    [
        ({"a = b": 1}, "key 'a = b' would split at an inner ' = '"),
        ({"a =": 1}, "key 'a =' would split at an inner ' = '"),
        ({"a\nb": 1}, "entry 'a\\nb' = '1' is not one ASCII line"),
        ({"note": "x\ny"}, "entry 'note' = 'x\\ny' is not one ASCII line"),
        ({"note": "x\ry"}, "entry 'note' = 'x\\ry' is not one ASCII line"),
        ({"note": "\u00b0C"}, "entry 'note' = '\u00b0C' is not one ASCII line"),
    ],
    ids=["separator_in_key", "key_ends_in_separator", "newline_in_key", "newline_in_value", "return_in_value", "non_ascii"],
)
def test_report_writer_rejects_what_its_reader_splits(tmp_path, entries, reason):
    path = tmp_path / "report.txt"
    with pytest.raises(DatasetFormatError) as err:
        write_report(path, {"points": 42, **entries})
    assert str(err.value) == f"{path}:2: {reason}"
    assert list(tmp_path.iterdir()) == []
    # What the writer accepts, the reader returns unchanged.
    write_report(path, {"a": "b = c", "b=": "", " c ": " = "})
    assert read_report(path) == {"a": "b = c", "b=": "", " c ": " = "}


def _pinned_session() -> SessionDataset:
    calib = _small_calib()
    ramp = np.arange(48.0).reshape(6, 8)
    return SessionDataset(
        scans=[
            Scan2D(1_000_000_000, -math.pi, 0.25, [1.5, math.nan, 2.125, 0.1]),
            Scan2D(1_100_000_000, -3.0, 0.125, [3.0, 0.7, math.nan, 1e-3]),
        ],
        imu=ImuSeries([1_000_000_000, 1_010_000_000], [(0.03, -0.01, -9.81), (0.0, 0.125, -9.8)]),
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
        tmp_path / "maturity_points.csv",
        np.array([[1.0, 0.875, 1 / 3], [-2.0, 0.1, 2.9]]),
        np.array([3, 1]),
        np.array([612.5, 0.0]),
        np.array([1, 0]),
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
    dataset = SessionDataset(scans=[], imu=ImuSeries([], np.empty((0, 3))), frames=[], calib=_small_calib())
    with pytest.raises(ValueError, match="no scans"):
        run_mapping(dataset)


def test_estimate_image_noise_recovers_sigma():
    rng = np.random.default_rng(30)
    base = 20.0 + 0.01 * np.arange(80)[None, :]  # gentle ramp, not "noise"
    image = ThermalImage(0, base + 0.3 * rng.standard_normal((60, 80)))
    sigma = estimate_image_noise(image.temperatures)
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


_WALLS = [[0.0, 0.0, 4.0, 0.0], [4.0, 0.0, 4.0, 4.0], [4.0, 4.0, 0.0, 4.0], [0.0, 4.0, 0.0, 0.0]]


@pytest.mark.parametrize(
    "site, noise, traj, names",
    [
        ({"walls": _WALLS, "field": {"kind": "linear", "base": 20, "bogus": 1}}, {}, {}, ["site.json", "bogus"]),
        ({"walls": _WALLS, "field": {"kind": "sine", "base": 20}}, {}, {}, ["site.json", "field", "amp"]),
        ({"walls": _WALLS, "field": {"kind": "linear", "base": "warm"}}, {}, {}, ["site.json", "field base"]),
        ({"walls": _WALLS, "field": {"kind": "lava"}}, {}, {}, ["site.json", "field", "lava"]),
        ({"walls": _WALLS, "field": 5}, {}, {}, ["site.json", "field"]),
        ({"walls": 5}, {}, {}, ["site.json", "walls"]),
        ({"walls": [[0.0, [1.0], 4.0, 0.0]] + _WALLS[1:]}, {}, {}, ["site.json", "wall 0"]),
        ({"walls": _WALLS, "ambient_c": [15]}, {}, {}, ["site.json", "ambient_c"]),
        ({"walls": _WALLS}, {"range_sigma": [0.01]}, {}, ["noise.json", "range_sigma"]),
        ({"walls": _WALLS}, {"gravity_tilt_sigma_deg": None}, {}, ["noise.json", "gravity_tilt_sigma_deg"]),
        ({"walls": _WALLS}, {}, {"speed": [0.2]}, ["traj.json", "speed"]),
        ({"walls": _WALLS}, {"range_sigma": math.nan}, {}, ["noise.json", "range_sigma"]),
        ({"walls": _WALLS}, {"gravity_tilt_sigma_deg": math.inf}, {}, ["noise.json", "gravity_tilt_sigma_deg"]),
        ({"walls": _WALLS}, {"accel_noise_sigma": -math.inf}, {}, ["noise.json", "accel_noise_sigma"]),
        ({"walls": _WALLS}, {"thermal_noise_sigma": math.inf}, {}, ["noise.json", "thermal_noise_sigma"]),
        ({"walls": _WALLS}, {}, {"speed": math.inf}, ["traj.json", "speed"]),
        ({"walls": _WALLS}, {}, {"turn_rate_deg_s": math.nan}, ["traj.json", "turn_rate_deg_s"]),
        ({"walls": _WALLS}, {}, {"scan_rate": math.nan}, ["traj.json", "scan_rate"]),
        ({"walls": _WALLS}, {}, {"imu_rate": math.nan}, ["traj.json", "imu_rate"]),
        ({"walls": _WALLS}, {}, {"hold_s": -1.0}, ["traj.json", "hold_s"]),
        ({"walls": _WALLS}, {}, {"hold_s": math.nan}, ["traj.json", "hold_s"]),
        ({"walls": _WALLS}, {}, {"waypoints": [[1.0, 1.0], [math.nan, 1.0]]}, ["traj.json", "waypoints"]),
    ],
    ids=[
        "field-unknown-parameter",
        "field-missing-parameter",
        "field-text-parameter",
        "field-unknown-kind",
        "field-not-object",
        "walls-not-list",
        "wall-coordinate-list",
        "ambient-list",
        "noise-list",
        "noise-null",
        "trajectory-list",
        "noise-nan",
        "noise-tilt-inf",
        "noise-accel-minus-inf",
        "noise-thermal-inf",
        "trajectory-speed-inf",
        "trajectory-turn-rate-nan",
        "trajectory-scan-rate-nan",
        "trajectory-imu-rate-nan",
        "trajectory-hold-negative",
        "trajectory-hold-nan",
        "trajectory-waypoint-nan",
    ],
)
def test_cli_rejects_malformed_json_values(tmp_path, capsys, site, noise, traj, names):
    # Each file is otherwise valid; the one malformed value exits 2 with a
    # one-line diagnostic that names the file and the offending key.
    args = [
        "simulate",
        "--site", _write_json(tmp_path / "site.json", site),
        "--traj", _write_json(tmp_path / "traj.json", {"waypoints": [[1.0, 1.0], [2.0, 1.0]], **traj}),
        "--noise", _write_json(tmp_path / "noise.json", noise),
        "--seed", "1",
        "--out", str(tmp_path / "s"),
    ]
    rc = main(args)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    for name in names:
        assert name in err
    assert not (tmp_path / "s").exists()


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

    # Mapping settings are fixed in the modules that apply them; there is
    # no config file to pass.
    with pytest.raises(SystemExit) as exc:
        main(["map", "--session", str(tmp_path / "missing"), "--config", "x", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


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

    mapped = tmp_path / "mapped"
    rc = main(["map", "--session", str(session), "--out", str(mapped)])
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


def _one_wall_series(tmp_path, maps: int) -> Path:
    """A series of `maps` copies of a small warm wall map, one hour apart."""
    series = tmp_path / "series"
    series.mkdir()
    xs, zs = np.meshgrid(np.arange(0.0, 1.0, 0.1), np.arange(0.0, 1.0, 0.1))
    positions = np.column_stack([xs.ravel(), np.zeros(xs.size), zs.ravel()])
    export_ply(ThermalPointCloud(positions, np.full(xs.size, 20.0)), series / "wall.ply")
    write_series_csv(series / "series.csv", [(float(k), "wall.ply") for k in range(maps)])
    return series


@pytest.mark.parametrize("maps", [1, 2])
@pytest.mark.parametrize(
    ("flag", "value"),
    [("--datum", "nan"), ("--datum", "inf"), ("--datum", "-inf"), ("--max-rate", "nan"), ("--max-rate", "-1")],
)
def test_cli_maturity_rejects_bad_datum_and_rate(tmp_path, capsys, flag, value, maps):
    # Rejected before any map is read, however many maps the series has.
    series = _one_wall_series(tmp_path, maps)
    out = tmp_path / "maturity.txt"
    rc = main(["maturity", "--series", str(series), f"{flag}={value}", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1
    assert not out.exists()


# Temperatures at the monitored points of a 4-epoch series (None: the point
# is 6 cm off, beyond the 5 cm match radius), one row per point, each in its
# own 0.2 m voxel. At --max-rate 5: row 1 warms 8.4 C/h from epoch 0 to 1,
# row 2 cools 6.5 C/h from epoch 2 to 3, row 3 skips epoch 1 and then warms
# exactly 5 C/h, rows 4 and 5 have one sample each, and row 6 stays below
# the -10 C datum.
MATURITY_TIMES = (0.0, 2.5, 6.25, 10.0)
MATURITY_TEMPS = (
    (20.0, 21.3, 22.0, 23.7),
    (20.0, 41.0, 42.5, 43.0),
    (30.0, 31.0, 30.5, 6.125),
    (20.0, None, 30.0, 48.75),
    (18.5, None, None, None),
    (19.25, None, None, None),
    (-20.0, -15.0, -12.5, -25.0),
)
MATURITY_SHA256 = {
    "maturity.txt": "4cceb135f778f685d2df284892a14771cb7fe57becb57bc0c824ff23a15a5005",
    "maturity_points.csv": "4cfeadd0e38e11db75e57b6604937692274c40fc46b706a4592c790978936b80",
}


def test_cli_maturity_pins_bytes(tmp_path, capsys):
    series = tmp_path / "series"
    series.mkdir()
    # Two more points in row 0's voxel: the monitored position is the map
    # point nearest the voxel centroid, not the centroid.
    extra = ThermalPointCloud([[0.04, 0.1, 1.1], [0.19, 0.1, 1.1]], [25.0, 25.0])
    for epoch, time_h in enumerate(MATURITY_TIMES):
        rows = [(k, temps[epoch]) for k, temps in enumerate(MATURITY_TEMPS)]
        positions = [[1.0 * k + 0.1 + (0.06 if temp is None else 0.0), 0.1, 1.1] for k, temp in rows]
        temperatures = [20.0 if temp is None else temp for _, temp in rows]
        if epoch == 0:
            positions += extra.positions.tolist()
            temperatures += extra.temperatures.tolist()
        export_ply(ThermalPointCloud(positions, temperatures), series / f"epoch{epoch}.ply")
    write_series_csv(series / "series.csv", [(t, f"epoch{k}.ply") for k, t in enumerate(MATURITY_TIMES)])
    out = tmp_path / "out" / "maturity.txt"
    out.parent.mkdir()
    assert main(["maturity", "--series", str(series), "--max-rate", "5", "--out", str(out)]) == 0
    assert "maturity over 4 sessions, 5 tracked positions" in capsys.readouterr().out
    assert read_report(out)["rate_violations"] == "2"
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.parent.iterdir())}
    assert digests == MATURITY_SHA256


def test_cli_maturity_reads_one_map_at_a_time(tmp_path, capsys, monkeypatch):
    # Each map is folded and dropped before the map after next is read.
    series = _one_wall_series(tmp_path, 4)
    read_ply, drop_unset = formats.read_ply, ThermalPointCloud.drop_unset
    maps = []  # per map read: weak references to the cloud and its set points
    older_alive = []

    def reading(path):
        older_alive.append(sum(ref() is not None for refs in maps[:-1] for ref in refs))
        cloud = read_ply(path)
        maps.append([weakref.ref(cloud)])
        return cloud

    def dropping(cloud):
        kept = drop_unset(cloud)
        maps[-1].append(weakref.ref(kept))
        return kept

    monkeypatch.setattr(formats, "read_ply", reading)
    monkeypatch.setattr(ThermalPointCloud, "drop_unset", dropping)
    assert main(["maturity", "--series", str(series), "--out", str(tmp_path / "maturity.txt")]) == 0
    assert [len(refs) for refs in maps] == [2, 2, 2, 2]
    assert older_alive == [0, 0, 0, 0]


def test_cli_import_leaves_the_sparse_solvers_unloaded():
    # Only `map` solves a pose graph; every command imports the CLI module.
    src = str(Path(thermoslam.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import thermoslam.cli_io.cli, sys; print('scipy.sparse.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

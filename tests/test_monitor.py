from __future__ import annotations

import math

import numpy as np
import pytest

from thermoslam import (
    DeltaReport,
    MaturityRecord,
    PlanarPose,
    RigidTransform3,
    ThermalPointCloud,
    accumulate_maturity,
    icp_align,
    planar_to_rigid3,
    rate_alert,
    temperature_delta,
    transform_cloud,
)
import thermoslam.monitor as monitor
import thermoslam.thermal_map as thermal_map
from thermoslam.monitor import AlignmentError


def _box_cloud(step: float = 0.05, temp: float = 20.0) -> ThermalPointCloud:
    """Temperature-set points on the walls of a 4 x 3 box, z in [0, 2].

    Positions carry a small seeded jitter, identical on every call. A
    perfectly regular lattice lets nearest-neighbor alignment lock in one
    grid cell off (the combs of both clouds interleave); scan-built
    clouds are never that regular.
    """
    edges = [
        ((0.0, 0.0), (4.0, 0.0)),
        ((4.0, 0.0), (4.0, 3.0)),
        ((4.0, 3.0), (0.0, 3.0)),
        ((0.0, 3.0), (0.0, 0.0)),
    ]
    pts = []
    for (x0, y0), (x1, y1) in edges:
        length = math.hypot(x1 - x0, y1 - y0)
        n = int(length / step)
        f = np.arange(n) / n
        for z in np.arange(0.0, 2.0 + 1e-9, 0.25):
            pts.append(np.column_stack([x0 + (x1 - x0) * f, y0 + (y1 - y0) * f, np.full(n, z)]))
    positions = np.vstack(pts)
    positions += np.random.default_rng(21).uniform(-0.015, 0.015, positions.shape)
    return ThermalPointCloud(positions, np.full(len(positions), temp))


def test_transform_cloud_roundtrip_and_copy():
    cloud = _box_cloud()
    t = planar_to_rigid3(PlanarPose(1.0, -0.5, 0.3), z=0.2)
    moved = transform_cloud(cloud, t)
    back = transform_cloud(moved, t.inverse())
    assert np.allclose(back.positions, cloud.positions, atol=1e-12)
    moved.temperatures[0] = 99.0
    assert cloud.temperatures[0] == 20.0


# ---------------------------------------------------------------------------
# Alignment.


def test_icp_align_recovers_known_displacement():
    reference = _box_cloud()
    displacement = planar_to_rigid3(PlanarPose(0.2, -0.1, math.radians(4.0)), z=0.05)
    moving = transform_cloud(reference, displacement)
    transform, rms = icp_align(reference, moving)
    error = transform.compose(displacement)
    assert np.linalg.norm(error.translation) < 1e-6
    assert abs(math.atan2(error.rotation[1, 0], error.rotation[0, 0])) < 1e-6
    assert rms < 1e-6


def test_icp_align_uses_initial_guess():
    reference = _box_cloud()
    displacement = planar_to_rigid3(PlanarPose(0.15, 0.1, math.radians(-3.0)))
    moving = transform_cloud(reference, displacement)
    transform, rms = icp_align(reference, moving, initial=displacement.inverse())
    assert np.linalg.norm(transform.compose(displacement).translation) < 1e-6
    assert rms < 1e-6


def test_icp_align_raises_when_residual_exceeds_limit(monkeypatch):
    reference = _box_cloud()
    rng = np.random.default_rng(13)
    moving = ThermalPointCloud(
        reference.positions + rng.normal(0.0, 0.02, reference.positions.shape),
        reference.temperatures.copy(),
    )
    monkeypatch.setattr(monitor, "ICP_MAX_RMS", 1e-4)
    with pytest.raises(AlignmentError):
        icp_align(reference, moving)


def test_icp_align_coarse_stage_thins_through_thermal_map(monkeypatch):
    # The benchmark's tracer times thinning by wrapping thermal_map.voxel_thin.
    calls = []
    original = thermal_map.voxel_thin

    def counting(positions, temperatures, voxel_size):
        calls.append((positions.shape[0], voxel_size))
        return original(positions, temperatures, voxel_size)

    monkeypatch.setattr(thermal_map, "voxel_thin", counting)
    monkeypatch.setattr(monitor, "ICP_COARSE_VOXEL", 0.25)
    reference = _box_cloud()
    moving = transform_cloud(reference, planar_to_rigid3(PlanarPose(0.05, -0.03, 0.02)))
    icp_align(reference, moving)
    assert calls == [(len(reference), 0.25), (len(moving), 0.25)]


def test_icp_align_needs_enough_points():
    small = ThermalPointCloud(np.random.default_rng(0).uniform(0, 1, (50, 3)), np.full(50, 20.0))
    with pytest.raises(ValueError):
        icp_align(small, small)


def test_icp_align_rejects_unset_temperatures():
    cloud = _box_cloud()
    cloud.temperatures[3] = np.nan
    with pytest.raises(ValueError):
        icp_align(cloud, _box_cloud())


# ---------------------------------------------------------------------------
# Temperature deltas.


def test_temperature_delta_exact_offset():
    reference = _box_cloud(temp=20.0)
    moving = ThermalPointCloud(reference.positions.copy(), reference.temperatures + 3.0)
    report = temperature_delta(reference, moving)
    assert isinstance(report, DeltaReport)
    assert not report.no_overlap
    assert report.matched_pairs == len(reference)
    assert np.allclose(report.deltas, 3.0)
    assert report.mean_dt == pytest.approx(3.0)
    assert report.rms_nn_distance == pytest.approx(0.0)


def test_temperature_delta_gates_by_match_radius():
    reference = ThermalPointCloud(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [20.0, 21.0]
    )
    moving = ThermalPointCloud(
        [[0.0, 0.0, 0.02], [1.0, 0.0, 0.5]], [22.0, 30.0]
    )
    report = temperature_delta(reference, moving)
    assert report.matched_pairs == 1
    assert report.deltas[0] == pytest.approx(2.0)
    assert np.allclose(report.positions[0], [0.0, 0.0, 0.0])


def test_temperature_delta_no_overlap():
    point = ThermalPointCloud([[0.0, 0.0, 0.0]], [20.0])
    far = ThermalPointCloud([[9.0, 9.0, 9.0]], [21.0])
    empty = ThermalPointCloud(np.empty((0, 3)), np.empty(0))
    for reference, moving in ((point, far), (empty, point), (point, empty)):
        report = temperature_delta(reference, moving)
        assert report.no_overlap
        assert report.matched_pairs == 0
        assert math.isnan(report.mean_dt)


# ---------------------------------------------------------------------------
# Maturity accumulation.


def _fold(record: MaturityRecord, samples, max_rate: float = 10.0) -> tuple[MaturityRecord, list]:
    """Fold (time, temperatures[, where]) samples in order; return the record and each fold's alerts."""
    alerts = []
    for sample in samples:
        folded = accumulate_maturity(record, sample[:2], *sample[2:])
        alerts.append(rate_alert(record, folded, max_rate))
        record = folded
    return record, alerts


def test_accumulate_maturity_first_sample_only_initializes():
    base = MaturityRecord(position=np.array([0.0, 0.0, 1.0]))
    record = accumulate_maturity(base, (0.0, 18.0))
    assert (record.sample_count, record.last_time_h, record.last_temperature) == (1, 0.0, 18.0)
    assert record.maturity == 0.0
    # The input record is left as it was.
    assert base.sample_count == 0 and math.isnan(base.last_time_h)


def test_accumulate_maturity_trapezoid_value():
    record, _ = _fold(MaturityRecord(position=np.zeros(3), datum_temperature=5.0), [(0.0, 15.0), (2.0, 25.0)])
    # Average temperature 20 degC over 2 h, 15 degC above datum.
    assert record.maturity == pytest.approx(30.0)


def test_accumulate_maturity_clamps_below_datum():
    record, _ = _fold(MaturityRecord(position=np.zeros(3), datum_temperature=-10.0), [(0.0, -20.0), (1.0, -20.0)])
    assert record.maturity == 0.0


def test_accumulate_maturity_requires_advancing_finite_samples():
    record = accumulate_maturity(MaturityRecord(position=np.zeros(3)), (1.0, 20.0))
    with pytest.raises(ValueError, match="does not advance"):
        accumulate_maturity(record, (1.0, 21.0))
    with pytest.raises(ValueError, match="finite"):
        accumulate_maturity(record, (2.0, math.nan))
    # Per position: one stalled position of three is enough.
    many = accumulate_maturity(MaturityRecord(position=np.zeros((3, 3))), (np.array([1.0, 1.0, 2.0]), 20.0))
    with pytest.raises(ValueError, match="does not advance"):
        accumulate_maturity(many, (np.array([2.0, 3.0, 2.0]), 21.0))


@pytest.mark.parametrize("datum", [math.nan, math.inf, -math.inf])
def test_maturity_record_rejects_non_finite_datum(datum):
    # Each would turn every gain max(0.0, T_avg - datum) into 0.0 or inf.
    with pytest.raises(ValueError, match="datum"):
        MaturityRecord(position=np.zeros(3), datum_temperature=datum)


def test_fold_over_positions_equals_one_fold_per_position():
    # Position 1 has no sample at 6.5 h; its next interval spans 2 to 9 h.
    times = [0.0, 2.0, 6.5, 9.0]
    temps = np.array([[20.0, 31.5, 1 / 3], [24.0, 18.0, 12.0], [70.0, -3.0, 19.0], [50.0, 29.0, 60.0]])
    seen = np.array([[True] * 3, [True] * 3, [True, False, True], [True] * 3])
    many, many_alerts = _fold(
        MaturityRecord(position=np.zeros((3, 3)), datum_temperature=-5.0),
        [(t, row, mask) for t, row, mask in zip(times, temps, seen)],
    )
    for k in range(3):
        one, one_alerts = _fold(
            MaturityRecord(position=np.zeros(3), datum_temperature=-5.0),
            [(t, row[k]) for t, row, mask in zip(times, temps, seen) if mask[k]],
        )
        assert many.sample_count[k] == one.sample_count == int(seen[:, k].sum())
        for field in ("last_time_h", "last_temperature", "maturity"):
            assert getattr(many, field)[k].tobytes() == getattr(one, field).tobytes()
        assert [bool(a[k]) for a, mask in zip(many_alerts, seen[:, k]) if mask] == [bool(a) for a in one_alerts]
    assert [a.tolist() for a in many_alerts] == [
        [False, False, False],
        [False, False, False],
        [True, False, False],
        [False, False, True],
    ]


# ---------------------------------------------------------------------------
# Rate alerts.


def test_rate_alert_flags_steep_intervals_only():
    _, alerts = _fold(MaturityRecord(position=np.zeros(3)), [(0.0, 20.0), (1.0, 25.0), (2.0, 45.0), (3.0, 30.0)])
    # Warming at 20 C/h alerts, and so does cooling at -15 C/h.
    assert [bool(a) for a in alerts] == [False, False, True, True]


def test_rate_alert_exact_limit_does_not_alert():
    _, alerts = _fold(MaturityRecord(position=np.zeros(3)), [(0.0, 20.0), (1.0, 30.0)])
    assert not np.any(alerts)


def test_rate_alert_validation():
    base = MaturityRecord(position=np.zeros(3))
    first = accumulate_maturity(base, (0.0, 20.0))
    # No interval yet, so no alert however fast the limit.
    assert not rate_alert(base, first, max_rate=0.0)
    two = accumulate_maturity(first, (1.0, 21.0))
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="max_rate"):
            rate_alert(first, two, max_rate=bad)

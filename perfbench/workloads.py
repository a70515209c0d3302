"""The three workloads: what set-up generates, what one timed job runs, what is checked.

Every input comes from the workload seed through the simulator; the program
under test sees only session directories and PLY maps on disk.

- smoke: the noisy two-room tour of the test suite; ``--seed 11`` generates
  its session exactly. Per-scan odometry and thermal painting dominate; the
  pose graph is small (about 70 keyframes).
- long_loop: two laps of the 1 m-inset square of a 4 x 4 m room with a sine
  field (about 390 scans, 195 keyframes). The revisits make voxel fusion the
  largest layer (about 1.45M points thinned, 40% of a map call against 24% on
  smoke) and double the loop candidates (130 against 70); the pose graph
  stays small (195 nodes, 3% of a map call). The per-scan odometry cost is
  that of smoke. Sized so three map calls fit one run.
- monitor: four two-room epochs mapped during set-up; the job compares each
  epoch with the previous one and runs maturity over the series. It never
  runs scan matching, the pose graph or fusion.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from pathlib import Path

import checks

NOISE = {"range_sigma": 0.01, "gravity_tilt_sigma": math.radians(1.0), "thermal_noise_sigma": 0.5}
SMOKE_WAYPOINTS = ((1.0, 0.8), (3.2, 2.1), (5.5, 2.1), (5.8, 1.0))
LONG_FIELD = {"kind": "sine", "base": 22.0, "amp": 3.0, "kx": 0.8, "ky": 0.5, "gz": 0.5}
# Fixed pass bounds of a map; temp_mae_c is acceptance criterion 6's. Seen on
# seeds 1-10: ate 1.5-2.7 mm, temperature MAE 0.24-0.50 C.
MAP_BOUNDS = {"ate_mm": 20.0, "temp_mae_c": 1.0, "temp_coverage": 0.1, "wall_rms_mm": 30.0}

EPOCHS = 4
EPOCH_HOURS = 6.0
WARMING_C = 3.0  # per epoch, uniform over the site
MATURITY_DATUM = -10.0  # the CLI defaults
MATURITY_MAX_RATE = 10.0
# Epochs differ in thermal noise and field, not in geometry: the 1 mm / 0.05 deg
# alignment tolerances hold only when the maps share their points exactly.
EPOCH_NOISE = {"thermal_noise_sigma": 0.5}


def square_laps(width: float, laps: int, inset: float = 1.0) -> tuple[tuple[float, float], ...]:
    corners = [(inset, inset), (width - inset, inset), (width - inset, width - inset), (inset, width - inset)]
    return tuple([corners[0]] + (corners[1:] + [corners[0]]) * laps)


def _run_cli(argv: list[str]) -> None:
    """Run one CLI call during set-up; its console line is not part of the result."""
    from thermoslam.cli_io.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up call {argv[0]} exited {rc}")


class MapWorkload:
    """One `thermoslam map` call per job over one simulated session."""

    commands = ("map",)

    def __init__(self, name: str, site_args, trajectories: dict[str, dict]):
        self.name = name
        self.site_args = site_args
        self.trajectories = trajectories

    def site(self):
        from thermoslam import sim

        preset, args = self.site_args
        return getattr(sim, preset)(*args)

    def generate(self, inputs: Path, seed: int, scale: str) -> None:
        from thermoslam import sim
        from thermoslam.cli_io import formats

        traj = sim.TrajectorySpec(**self.trajectories[scale])
        dataset = sim.simulate_session(self.site(), traj, sim.NoiseSpec(**NOISE), seed=seed)
        formats.save_session(dataset, inputs / "session")

    def job(self, inputs: Path, out: Path, call) -> None:
        call(["map", "--session", str(inputs / "session"), "--out", str(out)])

    def check(self, inputs: Path, out: Path) -> dict[str, float]:
        return checks.check_map(out, inputs / "session", self.site(), MAP_BOUNDS)


class MonitorWorkload:
    """Per job: `compare` of each epoch against the previous one, then `maturity`."""

    name = "monitor"
    commands = ("compare", "maturity")
    trajectories = {
        "full": {"waypoints": SMOKE_WAYPOINTS, "speed": 1.0},
        "tiny": {"waypoints": SMOKE_WAYPOINTS[:2], "speed": 1.0},
    }

    # Known rigid (x m, y m, yaw rad) applied to each later epoch's map before
    # compare. Fixed rather than drawn from the seed: ICP's iteration count
    # grows with the displacement, and the seed should vary the data, not the work.
    DISPLACEMENTS = {
        1: (0.3, -0.2, math.radians(5.0)),
        2: (-0.25, 0.15, math.radians(-4.0)),
        3: (0.2, 0.25, math.radians(3.0)),
    }

    def generate(self, inputs: Path, seed: int, scale: str) -> None:
        from thermoslam import sim
        from thermoslam.cli_io import formats
        from thermoslam.core import PlanarPose, planar_to_rigid3
        from thermoslam.monitor import transform_cloud

        traj = sim.TrajectorySpec(**self.trajectories[scale])
        series = inputs / "series"
        series.mkdir(parents=True)
        entries = []
        for epoch in range(EPOCHS):
            site = sim.two_room_site(
                {"kind": "linear", "base": 22.0 + WARMING_C * epoch, "gx": 1.1, "gy": -0.6, "gz": 1.4}
            )
            session = inputs / f"session{epoch}"
            dataset = sim.simulate_session(site, traj, sim.NoiseSpec(**EPOCH_NOISE), seed=seed * EPOCHS + epoch)
            formats.save_session(dataset, session)
            _run_cli(["map", "--session", str(session), "--out", str(inputs / f"map{epoch}")])
            name = f"epoch{epoch}.ply"
            shutil.copyfile(inputs / f"map{epoch}" / "map.ply", series / name)
            entries.append((EPOCH_HOURS * epoch, name))
            if epoch:
                moved = planar_to_rigid3(PlanarPose(*self.DISPLACEMENTS[epoch]))
                cloud = formats.read_ply(series / name)
                formats.export_ply(transform_cloud(cloud, moved), inputs / f"moving{epoch}.ply")
        formats.write_series_csv(series / "series.csv", entries)

    def job(self, inputs: Path, out: Path, call) -> None:
        series = inputs / "series"
        for epoch in range(1, EPOCHS):
            call(
                [
                    "compare",
                    "--reference", str(series / f"epoch{epoch - 1}.ply"),
                    "--moving", str(inputs / f"moving{epoch}.ply"),
                    "--out", str(out / f"compare{epoch}"),
                ]
            )
        call(["maturity", "--series", str(series), "--out", str(out / "maturity.txt")])

    def check(self, inputs: Path, out: Path) -> dict[str, float]:
        rows = [
            checks.check_compare(out / f"compare{epoch}", self.DISPLACEMENTS[epoch], WARMING_C)
            for epoch in range(1, EPOCHS)
        ]
        result = {key: max(row[key] for row in rows) for key in rows[0]}
        result.update(checks.check_maturity(out / "maturity.txt", inputs / "series", MATURITY_DATUM, MATURITY_MAX_RATE))
        return result


WORKLOADS = {
    "smoke": MapWorkload(
        "smoke",
        site_args=("two_room_site", ()),
        trajectories={
            "full": {"waypoints": SMOKE_WAYPOINTS},
            "tiny": {"waypoints": SMOKE_WAYPOINTS[:2], "speed": 0.5},
        },
    ),
    "long_loop": MapWorkload(
        "long_loop",
        site_args=("rectangle_site", (4.0, 4.0, LONG_FIELD)),
        trajectories={
            "full": {"waypoints": square_laps(4.0, 2), "speed": 0.5, "turn_rate": math.radians(90.0)},
            "tiny": {"waypoints": square_laps(4.0, 1), "speed": 0.5, "turn_rate": math.radians(90.0)},
        },
    ),
    "monitor": MonitorWorkload(),
}

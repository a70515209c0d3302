"""The benchmark's traced run replaces module attributes by name.

``perfbench/tracing.py`` lists them in ``PATCHES`` as (module, name, layer).
A refactor that moves or renames one of those functions, or moves a call
so it no longer goes through the patched name, would otherwise only
surface when the traced benchmark runs.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

from thermoslam import NoiseSpec, TrajectorySpec, rectangle_site, simulate_session
from thermoslam.cli_io import cli, formats, pipeline

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    # No bytecode cache is written next to the benchmark's sources.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists(monkeypatch):
    patches = _load_tracing(monkeypatch).PATCHES
    assert patches
    missing = [
        f"thermoslam.{module}.{name}"
        for module, name, _ in patches
        if not callable(getattr(importlib.import_module(f"thermoslam.{module}"), name, None))
    ]
    assert missing == []


def _session():
    # Out and back along one wall: the return leg revisits the outward
    # leg's keyframes, so loop detection has candidates to match.
    traj = TrajectorySpec(waypoints=((1.0, 1.0), (2.0, 1.0), (1.0, 1.0)), speed=1.0, thermal_rate=2.0)
    return simulate_session(rectangle_site(), traj, NoiseSpec(), seed=3)


def test_traced_mapping_records_every_layer_span(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    dataset = _session()
    recorder = tracing.Recorder()
    with recorder.installed():
        result = pipeline.run_mapping(dataset)
    spans = Counter(recorder.names)
    expected = [f"{module}.{name}" for module, name, _ in tracing.PATCHES if module == "cli_io.pipeline"]
    expected += ["pose_graph.match_scans", "scan_frontend.estimate_normals"]
    assert [name for name in expected if spans[name] == 0] == []
    # Fusion folds one keyframe per call and thins nothing.
    assert spans["cli_io.pipeline.accumulate_map"] == result.diagnostics["keyframes"]
    assert spans["thermal_map.voxel_thin"] == 0

    # The benchmark's pgo_nodes, pgo_edges and pgo_iterations are these
    # attributes: one node per keyframe, one odometry edge per keyframe
    # hop plus the accepted loop closures.
    assert spans["cli_io.pipeline.optimize"] == 1
    solve = recorder.attrs[recorder.names.index("cli_io.pipeline.optimize")]
    diagnostics = result.diagnostics
    assert diagnostics["loop_edges"] > 0
    assert solve == {
        "iterations": diagnostics["pgo_iterations"],
        "nodes": diagnostics["keyframes"],
        "edges": diagnostics["keyframes"] - 1 + diagnostics["loop_edges"],
    }


def test_traced_monitor_commands_record_their_thinning(monkeypatch, tmp_path):
    tracing = _load_tracing(monkeypatch)
    series = tmp_path / "series"
    series.mkdir()
    cloud = pipeline.run_mapping(_session()).cloud
    for epoch in range(2):
        formats.export_ply(cloud, series / f"epoch{epoch}.ply")
    formats.write_series_csv(series / "series.csv", [(0.0, "epoch0.ply"), (10.0, "epoch1.ply")])
    reference, moving = str(series / "epoch0.ply"), str(series / "epoch1.ply")
    recorder = tracing.Recorder()
    with recorder.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["compare", "--reference", reference, "--moving", moving, "--out", str(tmp_path / "c")]) == 0
        assert cli.main(["maturity", "--series", str(series), "--out", str(tmp_path / "maturity.txt")]) == 0
    expected = [f"{module}.{name}" for module, name, _ in tracing.PATCHES if module == "cli_io.cli"]
    expected.remove("cli_io.cli.run_mapping")
    spans = Counter(recorder.names)
    assert [name for name in expected if spans[name] == 0] == []
    # Maturity folds each map once, whatever the number of positions.
    assert spans["cli_io.cli.accumulate_maturity"] == spans["cli_io.cli.rate_alert"] == 2
    # The coarse ICP stage thins both clouds, and maturity seeds its
    # positions from one thinning of the first map.
    thin = [i for i, name in enumerate(recorder.names) if name == "thermal_map.voxel_thin"]
    parents = [recorder.names[recorder.parent[i]] if recorder.parent[i] >= 0 else None for i in thin]
    assert parents == ["cli_io.cli.icp_align", "cli_io.cli.icp_align", None]

"""Spans around the public functions of each thermoslam layer, from outside.

The library is not modified: ``Recorder.installed()`` replaces each function
on the module attribute its caller looks up (so ``cli_io.pipeline.match_scans``
and ``pose_graph.match_scans`` are told apart by caller), and puts the
originals back on exit. Spans carry name, start, end and parent span; they
stay in memory and are written once, by the caller, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from array import array
from pathlib import Path

# (module whose attribute is replaced, function name, layer that does the work)
# `core` is not wrapped: its functions are microsecond-scale building blocks
# whose time lands in the callers' self time.
PATCHES = (
    ("sim", "simulate_session", "sim"),
    ("cli_io.formats", "save_session", "cli_io.formats"),
    ("cli_io.formats", "load_session", "cli_io.formats"),
    ("cli_io.formats", "read_ply", "cli_io.formats"),
    ("cli_io.formats", "export_ply", "cli_io.formats"),
    ("cli_io.formats", "export_colored_view", "cli_io.formats"),
    ("cli_io.formats", "write_trajectory_csv", "cli_io.formats"),
    ("cli_io.formats", "write_report", "cli_io.formats"),
    ("cli_io.formats", "write_delta_csv", "cli_io.formats"),
    ("cli_io.formats", "atomic_write_bytes", "cli_io.formats"),
    ("cli_io.cli", "run_mapping", "cli_io.pipeline"),
    ("cli_io.pipeline", "filter_gravity", "scan_frontend"),
    ("cli_io.pipeline", "associate_gravity", "scan_frontend"),
    ("cli_io.pipeline", "gravity_project", "scan_frontend"),
    ("cli_io.pipeline", "match_scans", "scan_frontend"),
    ("cli_io.pipeline", "extrude_walls", "thermal_map"),
    ("cli_io.pipeline", "project_to_thermal", "thermal_map"),
    ("cli_io.pipeline", "accumulate_map", "thermal_map"),
    ("cli_io.pipeline", "detect_loop_closures", "pose_graph"),
    ("cli_io.pipeline", "optimize", "pose_graph"),
    ("pose_graph", "match_scans", "scan_frontend"),
    ("scan_frontend", "estimate_normals", "scan_frontend"),
    ("thermal_map", "voxel_thin", "thermal_map"),
    ("cli_io.cli", "icp_align", "monitor"),
    ("cli_io.cli", "temperature_delta", "monitor"),
    ("cli_io.cli", "accumulate_maturity", "monitor"),
    ("cli_io.cli", "rate_alert", "monitor"),
)

LAYER_OF = {f"{module}.{name}": layer for module, name, layer in PATCHES}


def _session_bytes(args, kwargs, result):
    root = Path(args[1] if len(args) > 1 else kwargs["session_dir"])
    return {"bytes": sum(p.stat().st_size for p in root.rglob("*") if p.is_file())}


# Facts read from a wrapped call's arguments or result, kept on its span.
ATTRS = {
    "cli_io.formats.save_session": _session_bytes,
    "cli_io.cli.run_mapping": lambda a, k, r: {"frames": len(a[0].frames)},
    "cli_io.pipeline.match_scans": lambda a, k, r: {"converged": bool(r.converged)},
    "cli_io.pipeline.detect_loop_closures": lambda a, k, r: {"accepted": len(r[0])},
    "cli_io.pipeline.optimize": lambda a, k, r: {
        "iterations": r.iterations,
        "nodes": len(a[0].nodes),
        "edges": len(a[0].edges),
    },
    "thermal_map.voxel_thin": lambda a, k, r: {"points": int(a[0].shape[0])},
}


class Recorder:
    """In-memory span store. Single-threaded: parents follow a call stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        describe = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if describe is not None:
                self.attrs[index] = describe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in PATCHES for the duration of the block."""
        saved = []
        try:
            for module_name, attr, _ in PATCHES:
                module = importlib.import_module(f"thermoslam.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(f"{module_name}.{attr}", original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def spans(self) -> list[list]:
        """Every span as [name, start_ns, end_ns, parent index or -1, attrs or None]."""
        return [
            [self.names[i], self.start[i], self.end[i], self.parent[i], self.attrs.get(i)]
            for i in range(len(self.names))
        ]


def _seconds(ns: int) -> float:
    return ns / 1e9


# Output writers called by a command itself: the four of `map`, plus the
# delta table of `compare` and the points table of `maturity`.
WRITERS = {
    "cli_io.formats.export_ply",
    "cli_io.formats.export_colored_view",
    "cli_io.formats.write_trajectory_csv",
    "cli_io.formats.write_report",
    "cli_io.formats.write_delta_csv",
    "cli_io.formats.atomic_write_bytes",
}
GRAVITY = {
    "cli_io.pipeline.filter_gravity",
    "cli_io.pipeline.associate_gravity",
    "cli_io.pipeline.gravity_project",
}
MATURITY_FOLD = {"cli_io.cli.accumulate_maturity", "cli_io.cli.rate_alert"}

# name -> unit, in the order the traced run prints them.
JOB_METRICS = {
    "cli_io.formats.load_session_s": "s",
    "cli_io.formats.write_outputs_s": "s",
    "cli_io.formats.read_ply_s": "s",
    "cli_io.pipeline.run_mapping_s": "s",
    "cli_io.pipeline.self_s": "s",
    "scan_frontend.gravity_s": "s",
    "scan_frontend.odometry_match_s": "s",
    "scan_frontend.odometry_match_calls": "count",
    "scan_frontend.odometry_fallbacks": "count",
    "scan_frontend.loop_match_s": "s",
    "scan_frontend.loop_match_calls": "count",
    "scan_frontend.estimate_normals_s": "s",
    "scan_frontend.estimate_normals_calls": "count",
    "thermal_map.extrude_s": "s",
    "thermal_map.project_s": "s",
    "thermal_map.project_calls": "count",
    "thermal_map.frames_used_ratio": "ratio",
    "thermal_map.accumulate_map_s": "s",
    "thermal_map.voxel_thin_s": "s",
    "thermal_map.voxel_thin_points": "count",
    "pose_graph.loop_detect_s": "s",
    "pose_graph.loop_candidates": "count",
    "pose_graph.loop_accept_ratio": "ratio",
    "pose_graph.optimize_s": "s",
    "pose_graph.pgo_iterations": "count",
    "pose_graph.pgo_nodes": "count",
    "pose_graph.pgo_edges": "count",
    "monitor.icp_align_s": "s",
    "monitor.icp_align_calls": "count",
    "monitor.temperature_delta_s": "s",
    "monitor.maturity_fold_s": "s",
    "monitor.maturity_fold_calls": "count",
}
SETUP_METRICS = {
    "sim.simulate_s": "s",
    "cli_io.formats.save_session_s": "s",
    "cli_io.formats.session_bytes": "bytes",
}


def _tally(spans: list[list], indices: list[int]):
    """Per-name busy ns and call counts, plus each span's direct-children ns."""
    busy: dict[str, int] = {}
    calls: dict[str, int] = {}
    child_ns = {i: 0 for i in indices}
    for i in indices:
        name, start, end, parent, _ = spans[i]
        busy[name] = busy.get(name, 0) + end - start
        calls[name] = calls.get(name, 0) + 1
        if parent in child_ns:
            child_ns[parent] += end - start
    return busy, calls, child_ns


def job_metrics(spans: list[list], indices: list[int]) -> dict[str, float]:
    """Per-layer metrics of one job: the spans under one job root span."""
    busy, calls, child_ns = _tally(spans, indices)
    roots = {i for i in indices if spans[i][0].startswith("cli.")}

    def s(*names: str) -> float:
        return _seconds(sum(busy.get(n, 0) for n in names))

    def attr_sum(name: str, key: str) -> int:
        return sum(spans[i][4][key] for i in indices if spans[i][0] == name)

    odometry = [spans[i][4] for i in indices if spans[i][0] == "cli_io.pipeline.match_scans"]
    candidates = calls.get("pose_graph.match_scans", 0)
    frames = attr_sum("cli_io.cli.run_mapping", "frames")
    projects = calls.get("cli_io.pipeline.project_to_thermal", 0)
    return {
        "cli_io.formats.load_session_s": s("cli_io.formats.load_session"),
        "cli_io.formats.write_outputs_s": _seconds(
            sum(spans[i][2] - spans[i][1] for i in indices if spans[i][0] in WRITERS and spans[i][3] in roots)
        ),
        "cli_io.formats.read_ply_s": s("cli_io.formats.read_ply"),
        "cli_io.pipeline.run_mapping_s": s("cli_io.cli.run_mapping"),
        "cli_io.pipeline.self_s": _seconds(
            sum(
                spans[i][2] - spans[i][1] - child_ns[i]
                for i in indices
                if spans[i][0] == "cli_io.cli.run_mapping"
            )
        ),
        "scan_frontend.gravity_s": s(*sorted(GRAVITY)),
        "scan_frontend.odometry_match_s": s("cli_io.pipeline.match_scans"),
        "scan_frontend.odometry_match_calls": len(odometry),
        "scan_frontend.odometry_fallbacks": sum(1 for a in odometry if not a["converged"]),
        "scan_frontend.loop_match_s": s("pose_graph.match_scans"),
        "scan_frontend.loop_match_calls": candidates,
        "scan_frontend.estimate_normals_s": s("scan_frontend.estimate_normals"),
        "scan_frontend.estimate_normals_calls": calls.get("scan_frontend.estimate_normals", 0),
        "thermal_map.extrude_s": s("cli_io.pipeline.extrude_walls"),
        "thermal_map.project_s": s("cli_io.pipeline.project_to_thermal"),
        "thermal_map.project_calls": projects,
        "thermal_map.frames_used_ratio": projects / frames if frames else 0.0,
        "thermal_map.accumulate_map_s": s("cli_io.pipeline.accumulate_map"),
        "thermal_map.voxel_thin_s": s("thermal_map.voxel_thin"),
        "thermal_map.voxel_thin_points": attr_sum("thermal_map.voxel_thin", "points"),
        "pose_graph.loop_detect_s": s("cli_io.pipeline.detect_loop_closures"),
        "pose_graph.loop_candidates": candidates,
        "pose_graph.loop_accept_ratio": (
            attr_sum("cli_io.pipeline.detect_loop_closures", "accepted") / candidates if candidates else 0.0
        ),
        "pose_graph.optimize_s": s("cli_io.pipeline.optimize"),
        "pose_graph.pgo_iterations": attr_sum("cli_io.pipeline.optimize", "iterations"),
        "pose_graph.pgo_nodes": attr_sum("cli_io.pipeline.optimize", "nodes"),
        "pose_graph.pgo_edges": attr_sum("cli_io.pipeline.optimize", "edges"),
        "monitor.icp_align_s": s("cli_io.cli.icp_align"),
        "monitor.icp_align_calls": calls.get("cli_io.cli.icp_align", 0),
        "monitor.temperature_delta_s": s("cli_io.cli.temperature_delta"),
        "monitor.maturity_fold_s": s(*sorted(MATURITY_FOLD)),
        "monitor.maturity_fold_calls": sum(calls.get(n, 0) for n in MATURITY_FOLD),
    }


def setup_metrics(spans: list[list], indices: list[int]) -> dict[str, float]:
    """Per-layer metrics of one set-up repetition."""
    busy, _, _ = _tally(spans, indices)
    return {
        "sim.simulate_s": _seconds(busy.get("sim.simulate_session", 0)),
        "cli_io.formats.save_session_s": _seconds(busy.get("cli_io.formats.save_session", 0)),
        "cli_io.formats.session_bytes": sum(
            spans[i][4]["bytes"] for i in indices if spans[i][0] == "cli_io.formats.save_session"
        ),
    }


def self_by_layer(spans: list[list], indices: list[int]) -> dict[str, float]:
    """Busy seconds of each layer minus the time its wrapped callees took."""
    _, _, child_ns = _tally(spans, indices)
    out: dict[str, float] = {}
    for i in indices:
        name, start, end, _, _ = spans[i]
        if name in LAYER_OF:
            layer = LAYER_OF[name]
        else:  # the benchmark's own root spans: `cli.<command>` around main(), `job`, `setup`
            layer = "cli_io.cli" if name.startswith("cli.") else "benchmark"
        out[layer] = out.get(layer, 0.0) + _seconds(end - start - child_ns[i])
    return dict(sorted(out.items()))


def merged(setup_spans: list[list], recorder: Recorder) -> list[list]:
    """Set-up spans from the child process, then this process's spans, parents re-indexed."""
    offset = len(setup_spans)
    own = [[n, s, e, p + offset if p >= 0 else -1, a] for n, s, e, p, a in recorder.spans()]
    return [list(span) for span in setup_spans] + own


def subtree(spans: list[list], root: int) -> list[int]:
    """Indices of the spans under ``root``, root first. Spans are stored in
    open order, so the search ends at the first span opened after root closed."""
    inside = {root}
    out = [root]
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
            out.append(i)
        elif spans[i][1] > spans[root][2]:
            break
    return out


def median_over(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def write_trace(path: Path, spans: list[list]) -> None:
    """One JSON document with every span as [name, start_ns, end_ns, parent, attrs]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="ascii") as handle:
        json.dump({"clock": "perf_counter_ns", "spans": spans}, handle)
    os.replace(tmp, path)

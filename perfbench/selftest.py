"""Reduced-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload on tiny sessions (``--scale tiny``) and checks that:
the result line carries exactly the metrics BENCHMARK.json declares, with
their units; the report line carries every metric of the workload with unit
and sample count; the seed changes the generated inputs and the same seed
repeats them; count metrics repeat exactly for one seed; ``failed_ops``
counts a forced non-zero exit (a missing session directory); and the
benchmark refuses to run without the source tree. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".perfbench_work" / "selftest_bare"

MAP_REPORT = ("job_s", "map_s", "setup_s", "peak_rss_mb", "failed_ops", "ate_mm", "temp_mae_c", "temp_coverage")
MONITOR_REPORT = (
    "job_s", "compare_s", "maturity_s", "setup_s", "peak_rss_mb", "failed_ops", "align_err_mm", "delta_err_c",
)
REPORTS = {"smoke": MAP_REPORT, "long_loop": MAP_REPORT, "monitor": MONITOR_REPORT}
# Layers that must have run, per workload, as (metric, lower limit).
MUST_RUN = {
    "map": (
        ("scan_frontend.odometry_match_calls", 1),
        ("scan_frontend.estimate_normals_calls", 1),
        ("pose_graph.loop_candidates", 1),
        ("pose_graph.pgo_nodes", 2),
        ("thermal_map.project_calls", 1),
        ("thermal_map.voxel_thin_points", 1),
        ("cli_io.formats.load_session_s", 1e-9),
    ),
    "monitor": (
        ("monitor.icp_align_calls", 3),
        ("monitor.maturity_fold_calls", 1),
        ("cli_io.formats.read_ply_s", 1e-9),
    ),
}

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what, flush=True)
    if not condition:
        failures.append(what)


def bench(workload: str, seed: int, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    if proc.returncode not in (0, 1, 2):
        print(proc.stderr[-3000:])
    return proc.returncode, proc.stdout.strip().splitlines()


def check_run(name: str, workload: str, rc: int, lines: list[str], trace: int, declared: dict) -> dict:
    expect(rc == 0 and len(lines) >= 2, f"{name}: exits 0 with a report and a result line")
    if len(lines) < 2:
        return {}
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, f"{name}: correct")
    wanted = declared["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    expect(list(got) == [m["name"] for m in wanted], f"{name}: result metrics are exactly the declared ones")
    expect(
        all(
            got[m["name"]]["unit"] == m["unit"]
            and isinstance(got[m["name"]]["value"], (int, float))
            and math.isfinite(got[m["name"]]["value"])
            for m in wanted if m["name"] in got
        ),
        f"{name}: every value is a finite number with the declared unit",
    )
    if not trace:
        expect(all(got[m["name"]]["value"] > 0 for m in wanted), f"{name}: end-to-end values are never 0")
    metrics = report["metrics"]
    names = list(REPORTS[workload]) + ([m["name"] for m in declared["per_layer"]] if trace else [])
    if trace:
        names.remove("setup_s")
    missing = [n for n in names if n not in metrics or "unit" not in metrics[n] or metrics[n].get("samples", 0) < 1]
    expect(not missing, f"{name}: report has every metric with unit and sample count {missing or ''}")
    if trace:
        kind = "monitor" if workload == "monitor" else "map"
        low = [m for m, floor in MUST_RUN[kind] if metrics[m]["value"] < floor]
        expect(not low, f"{name}: the workload's layers ran {low or ''}")
        expect(bool(report.get("self_s_by_layer")) and Path(ROOT / report["trace_file"]).is_file(),
               f"{name}: self time per layer and the trace file")
    host = report["host"]
    expect(all(host.get(k) for k in ("nproc", "python", "numpy", "scipy", "blas")), f"{name}: host record")
    expect(bool(report["output_sha256"]), f"{name}: output digests")
    return report


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    for workload in REPORTS:
        rc, lines = bench(workload, 1, 0)
        first = check_run(f"{workload} seed 1", workload, rc, lines, 0, declared)
        rc, lines = bench(workload, 2, 0)
        other = check_run(f"{workload} seed 2", workload, rc, lines, 0, declared)
        rc, lines = bench(workload, 1, 1)
        traced = check_run(f"{workload} seed 1 traced", workload, rc, lines, 1, declared)
        rc, lines = bench(workload, 1, 1)
        again = check_run(f"{workload} seed 1 traced again", workload, rc, lines, 1, declared)
        if not (first and other and traced and again):
            continue
        expect(first["setup_sha256"] != other["setup_sha256"], f"{workload}: another seed generates other inputs")
        expect(first["setup_sha256"] == traced["setup_sha256"], f"{workload}: one seed generates the same inputs")
        expect(first["output_sha256"] == traced["output_sha256"], f"{workload}: traced outputs match untraced bytes")
        counts = [m["name"] for m in declared["per_layer"] if m["unit"] in ("count", "bytes")]
        expect(
            all(traced["metrics"][k]["value"] == again["metrics"][k]["value"] for k in counts),
            f"{workload}: count metrics repeat exactly for one seed",
        )

    rc, lines = bench("smoke", 1, 0, "--inject-failure")
    result = json.loads(lines[-1]) if lines else {}
    report = json.loads(lines[-2]) if len(lines) > 1 else {"metrics": {}}
    failed_ops = report["metrics"].get("failed_ops", {})
    expect(
        rc == 1 and result.get("failed") == 1 and result.get("correct") is True
        and failed_ops.get("value", 0) == 1 / result["attempted"] and failed_ops.get("samples") == result["attempted"],
        "a forced non-zero exit counts in failed and failed_ops, and fails the run",
    )

    shutil.rmtree(BARE, ignore_errors=True)
    (BARE / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for path in HERE.glob("*.py"):
        shutil.copy(path, BARE / "perfbench")
    rc, lines = bench("smoke", 1, 0, cwd=BARE)
    shutil.rmtree(BARE)
    expect(rc != 0 and not any(line.startswith("{") for line in lines), "without the source tree: non-zero exit, no result")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""thermoslam benchmark: one workload, timed or traced, checked against ground truth.

    python3 perfbench/run.py --workload smoke --seed 1 --seconds 20 --trace 0

``selftest.py`` checks the benchmark itself on tiny sessions.

Run it from anywhere; it uses the source tree next to this directory
(``src/thermoslam``) and exits 2 without a result when that tree is missing.

Load model: a closed loop. One process runs one CLI call at a time through
``thermoslam.cli_io.cli.main`` in process, and the next call starts when the
previous one returns, as a batch tool is used. Set-up (simulate and save the
sessions; for monitor also map the epochs) runs several times in a child
process first (``generate.py``), so it cannot set this process's peak RSS.
Then one untimed warm-up job runs, and timed jobs run back to back until
``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced jobs and prints the per-layer metrics, taken
by wrapping each layer's public functions from outside (``tracing.py``).
The last stdout line is the result object; the line before it is the full
report: every metric of the workload with unit and sample count, the host,
output digests and, when traced, self time per layer. The report and the
trace (all spans, written once at the end) also land in
``.perfbench_work/results/``.

Exit status: 0 when every output checks out and no call failed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_TIMEOUT_S = 150.0


def summary(values: list[float], unit: str) -> dict:
    """Median with sample count and every sample, plus the highest tail
    percentile that has at least ten samples beyond it."""
    out = {"value": statistics.median(values), "unit": unit, "samples": len(values), "all": values}
    for q in (99, 90):
        if len(values) * (100 - q) >= 1000:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    fn = getattr(handle, symbol)
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def host_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class Calls:
    """Runs CLI calls in process and records (command, seconds, exit code, stderr)."""

    def __init__(self, main, recorder=None):
        self.main = main
        self.recorder = recorder
        self.records: list[tuple[str, float, int, str]] = []

    def __call__(self, argv: list[str]) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        span = self.recorder.open("cli." + argv[0]) if self.recorder else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.main(argv)
        except Exception:  # a crash counts as a failed call, with its traceback kept
            rc = 1
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        if span is not None:
            self.recorder.close(span)
        self.records.append((argv[0], seconds, rc, stderr.getvalue().strip()))


def run_setup(args, work: Path) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).with_name("generate.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
        "--trace", str(args.trace), "--out", str(work),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the self-test sizes")
    parser.add_argument(
        "--inject-failure", action="store_true", help="add one call on a missing session (self-test of failed_ops)"
    )
    args = parser.parse_args()

    if not (SRC / "thermoslam" / "__init__.py").is_file():
        print(f"error: no thermoslam source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import thermoslam

    if Path(thermoslam.__file__).resolve().parent != (SRC / "thermoslam").resolve():
        print(f"error: imported thermoslam from {thermoslam.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from thermoslam.cli_io.cli import main as cli_main

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, workload, work, results, tag, cli_main)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, workload, work: Path, results: Path, tag: str, cli_main) -> int:
    setup = run_setup(args, work / "setup")
    inputs = work / "setup" / "inputs"
    recorder = tracing.Recorder() if args.trace else None

    jobs: list[dict] = []
    reference: dict[str, bytes] | None = None
    reference_dir = None
    mismatched: list[str] = []

    def run_job(traced: bool, warmup: bool = False) -> None:
        nonlocal reference, reference_dir
        out = work / "out" / f"job{len(jobs)}"
        out.mkdir(parents=True)
        calls = Calls(cli_main, recorder if traced else None)
        gc.collect()
        with recorder.installed() if traced else contextlib.nullcontext():
            root = recorder.open("job") if traced else None
            t0 = time.perf_counter()
            workload.job(inputs, out, calls)
            seconds = time.perf_counter() - t0
            if traced:
                recorder.close(root)
        jobs.append({"seconds": seconds, "calls": calls.records, "traced": traced, "root": root, "warmup": warmup})
        if any(rc != 0 for _, _, rc, _ in calls.records):
            return
        produced = tree_bytes(out)
        if reference is None:
            reference, reference_dir = produced, out
            return
        if produced != reference:
            mismatched.append(f"job {len(jobs) - 1} ({'traced' if traced else 'untraced'})")
        shutil.rmtree(out)

    failures = Calls(cli_main)
    # The first job in a process pays for fresh memory and lazy imports, and
    # its time varies most between runs; it is checked but not timed.
    run_job(traced=False, warmup=True)
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while True:
        # Traced runs alternate the order of each untraced/traced pair, so a
        # host that speeds up or slows down during the run biases neither.
        for traced in ((False, True), (True, False))[rounds % 2] if args.trace else (False,):
            run_job(traced)
        rounds += 1
        if args.inject_failure and not failures.records:
            failures(["map", "--session", str(work / "no_such_session"), "--out", str(work / "out" / "failed")])
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    calls = [c for job in jobs for c in job["calls"]] + failures.records
    failed = [c for c in calls if c[2] != 0]
    for command, _, rc, err in failed:
        print(f"failed call: {command} exited {rc}: {err.splitlines()[-1] if err else ''}", file=sys.stderr)
    problems = []
    if mismatched:
        problems.append("outputs differ from the first job's in " + ", ".join(mismatched))
    accuracy: dict[str, float] = {}
    if reference_dir is None:
        problems.append("no job completed")
    else:
        try:
            accuracy = workload.check(inputs, reference_dir)
        except (checks.CheckFailed, OSError, ValueError, KeyError, StopIteration) as exc:
            problems.append(f"check failed: {exc!r}")

    untraced = [j for j in jobs if not j["traced"] and not j["warmup"]]
    report: dict[str, dict] = {"job_s": summary([j["seconds"] for j in untraced], "s")}
    for command in workload.commands:
        times = [s for j in untraced for cmd, s, rc, _ in j["calls"] if cmd == command and rc == 0]
        if times:
            report[f"{command}_s"] = summary(times, "s")
    if not args.trace:
        report["setup_s"] = summary(setup["seconds"], "s")
    report["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "samples": 1}
    report["failed_ops"] = {"value": len(failed) / len(calls), "unit": "ratio", "samples": len(calls)}
    for name, value in accuracy.items():
        report[name] = {"value": value, "unit": checks.UNITS[name], "samples": 1}

    extra: dict[str, object] = {}
    if args.trace:
        spans = tracing.merged(setup["spans"], recorder)
        offset = len(setup["spans"])
        setup_rows = [
            tracing.setup_metrics(spans, tracing.subtree(spans, i)) for i, s in enumerate(spans) if s[0] == "setup"
        ]
        traced_jobs = [j for j in jobs if j["traced"]]
        job_rows = [tracing.job_metrics(spans, tracing.subtree(spans, offset + j["root"])) for j in traced_jobs]
        layer = tracing.median_over(setup_rows) | tracing.median_over(job_rows)
        counts = [k for k, unit in tracing.JOB_METRICS.items() if unit == "count"]
        if any(row[k] != job_rows[0][k] for row in job_rows for k in counts):
            problems.append("per-layer counts differ between traced jobs of one input")
        for k in counts:
            layer[k] = job_rows[0][k]
        overhead = statistics.median(j["seconds"] for j in traced_jobs) / statistics.median(
            j["seconds"] for j in untraced
        )
        units_of = tracing.SETUP_METRICS | tracing.JOB_METRICS
        samples = {k: len(setup_rows) for k in tracing.SETUP_METRICS}
        for k, v in layer.items():
            report[k] = {"value": v, "unit": units_of[k], "samples": samples.get(k, len(job_rows))}
        report["trace_overhead"] = {"value": overhead, "unit": "ratio", "samples": len(traced_jobs)}
        first_job = tracing.subtree(spans, offset + traced_jobs[0]["root"])
        extra["self_s_by_layer"] = tracing.self_by_layer(spans, first_job)
        trace_file = results / f"{tag}.trace.json"
        tracing.write_trace(trace_file, spans)
        extra["trace_file"] = str(trace_file.relative_to(ROOT))
        extra["spans"] = len(spans)

    correct = not problems
    report_doc = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "correct": correct,
        "problems": problems,
        "host": host_record(),
        "setup_sha256": setup["setup_sha256"],
        "output_sha256": {k: hashlib.sha256(v).hexdigest() for k, v in (reference or {}).items()},
        "metrics": report,
        **extra,
    }
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(report_doc, indent=1) + "\n", encoding="ascii")

    with open(ROOT / "BENCHMARK.json", encoding="ascii") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": report[m["name"]]["value"], "unit": m["unit"]} for m in declared}
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(report_doc))
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": len(failed), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one round of a workload, or only its set-up, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --rounds 0|1 [--trace-file PATH]

A round sends the workload's requests to ``cyclojones.cli.main``
in-process as a closed loop (one client; each request waits for the
previous one) and checks every output against digests.json.  Untraced,
set-up and the round run under a SpeedSampler (speed.py), and each time
is given at the reference speed (``wall_s``, ``setup_s``, ``stages``)
and raw (``wall_raw_s``, ``setup_raw_s``, ``stages_raw``), with the
median calibration-kernel time of the round (``kernel_s``).  The last
line of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import speed
import workloads
from layers import LayerTracer
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"


def call(main, argv: list[str]) -> tuple[int | None, bytes, str]:
    """Invoke the CLI in-process: (exit code or None, stdout bytes, stderr)."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a failed request is counted, not fatal
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
    out.flush()
    out.detach()
    return code, raw.getvalue(), err.getvalue()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def problem(workload: str, key: str, code, output: bytes, err: str,
            expected: dict[str, str], first: dict[str, bytes]) -> str | None:
    """Why a request failed, or None when its output is correct."""
    if code != 0:
        return f"exit code {code}: {err.strip()[-200:]}"
    if digest(output) != expected.get(key):
        return "output differs from the reference digest"
    if workload == "verify-all":
        report = json.loads(output)
        if not report["ok"] or len(report["checks"]) != workloads.VERIFY_CHECKS:
            return "verify report is not ok over all checks"
    if first.setdefault(key, output) != output:
        return "warm output differs from the cold output"
    return None


def unscaled(start: float, end: float) -> tuple[float, float]:
    return end - start, end - start


def run_round(main, plan) -> tuple[float, float, list]:
    """Send the plan's requests in order, each after the previous one has ended."""
    results = []
    start = time.perf_counter()
    for _, argv, _ in plan:
        t = time.perf_counter()
        code, output, err = call(main, argv)
        results.append((t, time.perf_counter(), code, output, err))
    return start, time.perf_counter(), results


def score_round(workload: str, plan, expected: dict[str, str], run, measure) -> dict:
    """Check a round's outputs and time it; measure(a, b) gives (raw, scaled) seconds."""
    start, end, results = run
    stages: defaultdict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    errors, first = [], {}
    for (key, _, stage), (t0, t1, code, output, err) in zip(plan, results):
        raw, scaled = measure(t0, t1)
        stages[stage][0] += raw
        stages[stage][1] += scaled
        why = problem(workload, key, code, output, err, expected, first)
        if why:
            errors.append(f"{key}: {why}")
    wall_raw, wall = measure(start, end)
    return {
        "wall_s": wall,
        "wall_raw_s": wall_raw,
        "stages": {stage: stages[stage][1] for stage in workloads.STAGES[workload]},
        "stages_raw": {stage: stages[stage][0] for stage in workloads.STAGES[workload]},
        "attempted": len(plan),
        "failed": len(errors),
        "errors": errors[:5],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, choices=(0, 1), default=1)
    parser.add_argument("--trace-file", type=Path, default=None)
    args = parser.parse_args()

    # set-up: import, inputs and temporary directories, before the first request
    speed.time_kernel()  # warm the kernel, so it is not timed cold
    with speed.SpeedSampler() as setup_speed:
        t0 = time.perf_counter()
        os.environ.pop("CYCLOJONES_CACHE", None)  # it would override --cache-dir
        (STATE / "tmp").mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = str(STATE / "tmp")
        sys.path.insert(0, str(SRC))
        import cyclojones
        from cyclojones import cli

        if Path(cyclojones.__file__).resolve().parent != SRC / "cyclojones":
            sys.exit(f"cyclojones was imported from {cyclojones.__file__}, not from {SRC}")
        run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-")
        plan = workloads.requests(args.workload, args.seed, os.path.join(run_dir, "cache"))
        expected = json.loads(DIGESTS.read_text())[args.workload]
        t1 = time.perf_counter()
    setup_raw, setup = setup_speed.span(t0, t1)
    result: dict = {"setup_s": setup, "setup_raw_s": setup_raw}

    try:
        if args.rounds and args.trace_file is not None:
            tracer = LayerTracer(SpanRecorder())
            tracer.install(cyclojones)
            run = run_round(cli.main, plan)
            result.update(score_round(args.workload, plan, expected, run, unscaled))
            result["per_layer"] = tracer.metrics()
            tracer.rec.write(args.trace_file)
        elif args.rounds:
            with speed.SpeedSampler() as round_speed:
                run = run_round(cli.main, plan)
            result.update(score_round(args.workload, plan, expected, run, round_speed.span))
            result["kernel_s"] = statistics.median(k for _, k in round_speed.ticks)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    import mpmath

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["mpmath"] = mpmath.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main()

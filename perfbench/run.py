"""cyclojones benchmark: end-to-end and traced per-layer runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is coeffs-jones, verify-all, cache-cli, or all (every workload in
turn, untraced).  Each round of a workload runs in its own fresh worker
process (perfbench/worker.py), so peak RSS and QSymbolCache state are
per round.  Untraced, rounds repeat while the next one is expected to
end within S seconds (at least one runs), then set-up alone is repeated
until SETUP_SAMPLES set-ups were timed; timings are medians.  Untraced
times are scaled to a reference machine speed sampled through each
round and set-up (speed.py); the raw times are printed beside them as
*_raw_s.  Traced, one untraced and one traced round run, and the
difference of their raw wall times is the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed, and the metrics (end-to-end untraced, per-layer traced).  The
lines before it name every metric with its unit and the run's facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layers import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170  # a run must end well within 180 s

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The harness could not measure (a worker crashed or timed out)."""


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def facts(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
        "seed": seed,
    }


class Runner:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.deadline = 0.0
        self.mpmath = "unknown"

    def worker(self, workload: str, rounds: int, trace_file: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.seed), "--rounds", str(rounds)]
        if trace_file is not None:
            cmd += ["--trace-file", str(trace_file)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next worker")
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            raise BenchError(f"{workload} worker did not finish within {timeout:.0f} s") from None
        if done.returncode != 0:
            raise BenchError(f"{workload} worker exited {done.returncode}: {done.stderr[-2000:]}")
        result = json.loads(done.stdout.splitlines()[-1])
        self.mpmath = result["mpmath"]
        return result

    def untraced(self, workload: str, seconds: float) -> dict:
        start = time.monotonic()
        rounds = [self.worker(workload, 1)]
        while True:
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(rounds) > seconds:
                break
            rounds.append(self.worker(workload, 1))
        setups = list(rounds)
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.worker(workload, 0))

        def median(key: str, of=rounds) -> float:
            return statistics.median(r[key] for r in of)

        metrics = {
            "wall_s": median("wall_s"),
            "setup_s": median("setup_s", setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        }
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        extra = {"fail_frac": failed / attempted, "wall_raw_s": median("wall_raw_s"),
                 "setup_raw_s": median("setup_raw_s", setups)}
        for stage in workloads.STAGES[workload]:
            extra[stage] = statistics.median(r["stages"][stage] for r in rounds)
            extra[raw_name(stage)] = statistics.median(r["stages_raw"][stage] for r in rounds)
        return {"metrics": metrics, "extra": extra, "attempted": attempted, "failed": failed,
                "rounds": rounds, "setups": [(r["setup_s"], r["setup_raw_s"]) for r in setups]}

    def traced(self, workload: str) -> dict:
        trace_file = STATE / "traces" / f"{workload}-seed{self.seed}.spans"
        base = self.worker(workload, 1)
        traced = self.worker(workload, 1, trace_file)
        layers = dict(traced["per_layer"])
        layers["trace.overhead_s"] = traced["wall_raw_s"] - base["wall_raw_s"]
        return {"metrics": layers, "attempted": base["attempted"] + traced["attempted"],
                "failed": base["failed"] + traced["failed"], "rounds": [base, traced],
                "trace_file": str(trace_file.relative_to(ROOT))}


def raw_name(stage: str) -> str:
    """coeffs_half_s -> coeffs_half_raw_s"""
    return stage.removesuffix("_s") + "_raw_s"


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cyclojones" / "cli.py").is_file():
        print(f"error: no cyclojones sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace and args.workload == "all":
        parser.error("--trace 1 needs a single workload")

    run_facts = facts(args.seed)
    runner = Runner(args.seed)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results, report = {}, {}
    try:
        for workload in names:
            runner.deadline = time.monotonic() + RUN_LIMIT_S
            if args.trace:
                out = runner.traced(workload)
                units = {name: unit for name, unit, _ in METRICS}
            else:
                out = runner.untraced(workload, args.seconds)
                units = dict(E2E_UNITS)
                out["metrics"].update(out.pop("extra"))
                units.update(fail_frac="ratio", wall_raw_s="s", setup_raw_s="s")
                for stage in workloads.STAGES[workload]:
                    units[stage] = units[raw_name(stage)] = "s"
            results[workload] = out
            report[workload] = with_units(out["metrics"], units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run_facts["loadavg_end"] = os.getloadavg()
    run_facts["mpmath"] = runner.mpmath

    for workload, metrics in report.items():
        for name, m in metrics.items():
            print(f"{workload:13s} {name:40s} {m['value']:>16.6f} {m['unit']}")
        for error in (e for r in results[workload]["rounds"] for e in r.get("errors", ())):
            print(f"{workload:13s} failed: {error}")
    print("facts " + json.dumps(run_facts))

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{w}.{name}": m for w, ms in report.items() for name, m in ms.items()}
    elif args.trace:
        metrics = report[args.workload]
    else:  # exactly the end-to-end metrics BENCHMARK.json declares
        metrics = {name: report[args.workload][name] for name in E2E_UNITS}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    STATE.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"facts": run_facts, "results": results, "summary": summary},
                                 indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

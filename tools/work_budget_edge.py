"""Time a seeded sample of requests just inside cli.WORK_BUDGET.

Draws coeffs --cross-check knots and verify grids at random, raises max_k (or
max_n) to the largest value the CLI accepts, and runs each request in a fresh
``python -B`` process with a timeout, printing its wall time and peak RSS:

    python tools/work_budget_edge.py
"""

import contextlib
import io
import random
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from cyclojones import cli  # noqa: E402

SEED, COUNT, TIMEOUT = 34, 32, 120  # the sample's seed and size, and each run's limit in s

RUN = """
import resource, sys, time
from cyclojones import cli
sys.stdout = open("/dev/null", "w")
start = time.perf_counter()
code = cli.main(sys.argv[1:])
wall = time.perf_counter() - start
print(f"{code} {wall:.2f} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}", file=sys.stderr)
"""


def units(argv: list[str]) -> int | None:
    """The request's work units, or None when the CLI refuses it."""
    seen = []
    check, cli._check_work = cli._check_work, lambda parser, units: seen.append(units) or check(parser, units)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.config_from_args(cli.build_parser().parse_args(cli._glue_dashed_values(argv)))
    except SystemExit:
        return None
    finally:
        cli._check_work = check
    return seen[-1]


def largest(template: str, top: int) -> tuple[list[str], int] | None:
    """template with {} set to the largest value in 1..top the CLI accepts."""
    for value in range(top, 0, -1):
        argv = template.format(value).split()
        if (work := units(argv)) is not None:
            return argv, work
    return None


def draw(rng: random.Random) -> tuple[list[str], int] | None:
    if rng.random() < 0.5:
        p = rng.choice((-1, 1)) * int(round(2 ** rng.uniform(0, 7.7)))
        if rng.random() < 0.7:
            second = f"--s {rng.randrange(-41, 42, 2)}"
        else:
            second = f"--r {rng.choice((-1, 1)) * rng.randint(1, 80)}"
        return largest(f"coeffs --p {p} {second} --max-k {{}} --cross-check --no-cache", cli.MAX_INDEX)
    lo = rng.randint(-6, 3)
    ranges = f"--p-range={lo}..{lo + rng.randint(0, 10)} --m-range=1..{rng.randint(1, 40)}"
    if rng.random() < 0.5:
        return largest(f"verify {ranges} --max-n {rng.randint(1, 24)} --max-k {{}}", cli.VERIFY_MAX_INDEX)
    return largest(f"verify {ranges} --max-k {rng.randint(0, 24)} --max-n {{}}", cli.VERIFY_MAX_INDEX)


def main() -> None:
    rng, requests = random.Random(SEED), []
    while len(requests) < COUNT:
        if (request := draw(rng)) is not None and request[1] > cli.WORK_BUDGET // 3:
            requests.append(request)
    for argv, work in requests:
        try:
            done = subprocess.run([sys.executable, "-B", "-c", RUN, *argv], capture_output=True, text=True,
                                  timeout=TIMEOUT, env={"PYTHONPATH": str(SRC)})
            code, wall, rss = done.stderr.split()[-3:]
        except subprocess.TimeoutExpired:
            code, wall, rss = "timeout", f">{TIMEOUT}", "-"
        print(f"{work / 1e6:6.2f}M units  exit {code}  {wall} s  {rss} MB  {' '.join(argv)}", flush=True)


if __name__ == "__main__":
    main()

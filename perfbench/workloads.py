"""The benchmark's workloads: fixed requests to the cyclojones CLI.

The inputs are fixed; the seed only sets the order of the requests.
Each request is a (key, argv, stage) triple.  The key names the request
in digests.json, so it leaves out the per-run cache directory; the stage
names the end-to-end metric the request's time counts towards.
"""

from __future__ import annotations

import random

COEFFS_JONES = (
    ("coeffs_half_s", "coeffs --p -3 --s 5 --max-k 16 --no-cache --format json"),
    ("coeffs_full_s", "coeffs --p 3 --r -2 --max-k 20 --no-cache --format json"),
    ("jones_s", "jones --p 2 --s 1 --N 16 --route both --format json"),
)
VERIFY_ALL = "verify --suite all --format json --jobs 1"
VERIFY_CHECKS = 31
TWISTS = (-3, -2, -1, 1, 2, 3)
CACHE_KNOTS = tuple(f"--p {p} --s {s}" for p in TWISTS for s in (1, 3, 5)) + tuple(
    f"--p {p} --r {r}" for p in TWISTS for r in TWISTS
)

WORKLOADS = ("coeffs-jones", "verify-all", "cache-cli")

# end-to-end metrics measured per request stage, beside wall_s, setup_s,
# peak_rss_mb and fail_frac, which every workload reports
STAGES = {
    "coeffs-jones": tuple(stage for stage, _ in COEFFS_JONES),
    "verify-all": (),
    "cache-cli": ("cold_s", "warm_s"),
}


def requests(workload: str, seed: int, cache_dir: str) -> list[tuple[str, list[str], str]]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "coeffs-jones":
        plan = [(cmd, cmd.split(), stage) for stage, cmd in COEFFS_JONES]
        rng.shuffle(plan)
        return plan
    if workload == "verify-all":
        return [(VERIFY_ALL, VERIFY_ALL.split(), "verify")]
    if workload == "cache-cli":
        keys = [f"coeffs {knot} --max-k 8 --format json" for knot in CACHE_KNOTS]
        plan = []
        for stage in ("cold_s", "warm_s"):
            order = keys[:]
            rng.shuffle(order)
            plan += [(key, key.split() + ["--cache-dir", cache_dir], stage) for key in order]
        return plan
    raise ValueError(f"unknown workload {workload!r} (want one of {', '.join(WORKLOADS)})")

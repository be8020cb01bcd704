"""Tests of the benchmark's own code:  python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from spans import SpanRecorder, self_times, totals  # noqa: E402


def test_self_time_on_synthetic_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    root = rec.begin(rec.name_id("root"))
    a = rec.begin(rec.name_id("a"))
    g = rec.begin(rec.name_id("g"))
    rec.finish(g)
    rec.finish(a)
    b = rec.begin(rec.name_id("b"))
    rec.finish(b)
    rec.finish(root)

    assert list(rec.parent) == [-1, root, a, root]
    assert self_times(rec.parent, rec.start, rec.end) == [3.0, 2.0, 1.0, 4.0]
    assert totals(rec) == {
        "root": (1, 3.0, 10.0), "a": (1, 2.0, 3.0), "g": (1, 1.0, 1.0), "b": (1, 4.0, 4.0),
    }


def test_self_time_sums_repeated_names():
    # f [0, 6] calls f [1, 3] then f [4, 5]: 3 calls, self 3 + 2 + 1 = 6
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    nid = rec.name_id("f")
    outer = rec.begin(nid)
    for _ in range(2):
        rec.finish(rec.begin(nid))
    rec.finish(outer)
    calls, self_s, _ = totals(rec)["f"]
    assert (calls, self_s) == (3, 6.0)


def test_mul_band_edges():
    assert layers.mul_band(0) == "small"
    assert layers.mul_band(499) == "small"
    assert layers.mul_band(500) == "mid"
    assert layers.mul_band(19_999) == "mid"
    assert layers.mul_band(20_000) == "large"


def test_speed_scaling_on_synthetic_ticks():
    # kernel samples at 0 (1 s), 3 (1 s) and 6 (3 s): program stretches
    # [1, 3] at kernel mean 1 s and [4, 6] at kernel mean 2 s
    sampler = speed.SpeedSampler()
    sampler.ticks = [(0.0, 1.0), (3.0, 1.0), (6.0, 3.0)]
    ref = speed.KERNEL_REF_S
    raw, scaled = sampler.span(0.0, 10.0)
    assert raw == 4.0 and abs(scaled - 3 * ref) < 1e-12
    raw, scaled = sampler.span(2.0, 5.0)
    assert raw == 2.0 and abs(scaled - 1.5 * ref) < 1e-12


def test_speed_sampler_ticks_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        end = time.perf_counter() + 4 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.ticks) >= 4
    raw, scaled = sampler.span(sampler.ticks[0][0], sampler.ticks[-1][0])
    assert 0 < raw < 5 * speed.INTERVAL_S and scaled > 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in layers.METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit, _ in layers.METRICS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS


_TRACED_REQUEST = """
import io, contextlib, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import cyclojones
from cyclojones import cli
from layers import LayerTracer
from spans import SpanRecorder
from worker import call

argv = "coeffs --p 2 --s 1 --max-k 3 --no-cache --format json".split()
plain = call(cli.main, argv)
tracer = LayerTracer(SpanRecorder())
tracer.install(cyclojones)
traced = call(cli.main, argv)
print(json.dumps({{
    "same": plain == traced,
    "code": traced[0],
    "metrics": tracer.metrics(),
}}))
"""


def test_wrappers_leave_output_bytes_unchanged():
    script = _TRACED_REQUEST.format(src=str(ROOT / "src"), bench=str(BENCH))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["same"] and out["code"] == 0
    metrics = out["metrics"]
    assert set(metrics) == {name for name, _, _ in layers.METRICS} - {"trace.overhead_s"}
    assert metrics["cli.main.calls"] == 1
    assert metrics["cyclotomic.h_coeff_half.calls"] == 4
    assert metrics["laurent.mul.calls"] > 0 and metrics["laurent.mul.products"] > 0
    assert metrics["bailey.beta_from_alpha.calls"] == 0
    assert metrics["laurent.frac_add.calls"] == 0

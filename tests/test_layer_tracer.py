"""The benchmark's layer tracer around cached coeffs requests.

perfbench/layers.LayerTracer wraps CoeffCache.get, put and should_spot_check
by name and, after a hit or a put, stats store._path(knot, max_k).  This runs
a cold-then-warm pair under the tracer, in a fresh process as
perfbench/tests/test_bench.py does, so a signature it relies on cannot
change unseen.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TRACED_PAIR = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import cyclojones
from cyclojones import cli
from layers import LayerTracer
from spans import SpanRecorder
from worker import call

argv = "coeffs --p -2 --s 3 --max-k 8 --format json --cache-dir".split()
plain = call(cli.main, argv + [{plain_dir!r}])
tracer = LayerTracer(SpanRecorder())
tracer.install(cyclojones)
cold = call(cli.main, argv + [{traced_dir!r}])
warm = call(cli.main, argv + [{traced_dir!r}])
print(json.dumps({{
    "codes": [plain[0], cold[0], warm[0]],
    "errors": [plain[2], cold[2], warm[2]],
    "same": plain[1] == cold[1] == warm[1],
    "metrics": tracer.metrics(),
}}))
"""


def test_tracer_wraps_a_cold_then_warm_cached_request(tmp_path):
    script = _TRACED_PAIR.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"),
                                 plain_dir=str(tmp_path / "plain"),
                                 traced_dir=str(tmp_path / "traced"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0], out["errors"]
    assert out["same"]
    metrics = out["metrics"]
    assert metrics["serialize.get.calls"] == 2
    assert metrics["serialize.get.misses"] == 1 and metrics["serialize.get.hits"] == 1
    assert metrics["serialize.get.bytes_read"] > 0
    assert metrics["serialize.put.calls"] == 1 and metrics["serialize.put.bytes_written"] > 0
    assert metrics["serialize.spot_checks"] == 1

import csv
import hashlib
import io
import json
import timeit
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclojones.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_half(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "1",
        "--format", "text", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert out == "H_0 = 1\nH_1 = -𝔮^-4\n"


def test_coeffs_int(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "coeffs", "--p", "1", "--r", "1", "--max-k", "1",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert out == "H_0 = 1\nH_1 = -𝔮^4\n"


def test_coeffs_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["coeffs", "--p", "0", "--s", "1", "--max-k", "1"])
    assert err.value.code == 2


def test_usage_errors_print_the_usage_of_the_misused_subcommand(capsys):
    with pytest.raises(SystemExit) as err:
        main(["coeffs", "--p", "2", "--s", "1", "--max-k", "99"])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: cyclojones coeffs ")
    assert lines[-1] == "cyclojones coeffs: error: --max-k must be in 0..48"


def test_coeffs_requires_region(capsys):
    with pytest.raises(SystemExit) as err:
        main(["coeffs", "--p", "1", "--max-k", "1"])
    assert err.value.code == 2


def test_coeffs_cache_reuse_is_deterministic(capsys, tmp_path):
    args = ("coeffs", "--p", "2", "--s", "3", "--max-k", "3",
            "--format", "json", "--cache-dir", str(tmp_path))
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)  # second run hits the cache
    assert code1 == code2 == 0
    assert out1 == out2
    assert list(tmp_path.glob("*.json"))


def test_cache_cli_outputs_match_reference_digests(capsys, tmp_path):
    # the benchmark's cache-cli requests, cold and then warm from one cache
    # directory, against the recorded SHA-256 of each output
    digests = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "digests.json").read_text()
    )["cache-cli"]
    assert digests
    for _ in ("cold", "warm"):
        for request, expected in digests.items():
            code, out, err = run_cli(capsys, *request.split(), "--cache-dir", str(tmp_path))
            assert code == 0, err
            assert hashlib.sha256(out.encode()).hexdigest() == expected, request


def test_coeffs_jones_outputs_match_reference_digests(capsys):
    # the benchmark's coeffs-jones requests against the recorded SHA-256 of each output
    digests = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "digests.json").read_text()
    )["coeffs-jones"]
    assert len(digests) == 3
    for request, expected in digests.items():
        code, out, err = run_cli(capsys, *request.split())
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == expected, request


# SHA-256 of `coeffs --p -3 --s 5 --max-k 24 --no-cache --format json`, recorded
# before the in-place sums and dense q-Pascal rows; the benchmark stops at max_k 20
MAX_K_24_DIGEST = "b0e884f09b1114b590926373a6333e17c8e875d77de2ceb3688bcc8e55c77e28"


# and at max_k 32, recorded before lincomb added its products in place: the
# k-sum's Kronecker products there pack wider limbs than any request above
MAX_K_32_DIGEST = "f238c4198ecd53f2fbb1379165679369f3786118f203b7885a6a196ab5540851"


def test_large_half_twist_table_matches_its_recorded_digest(capsys):
    request = "coeffs --p -3 --s 5 --max-k 24 --no-cache --format json"
    code, out, err = run_cli(capsys, *request.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == MAX_K_24_DIGEST


def test_max_k_32_half_twist_table_matches_its_recorded_digest(capsys):
    request = "coeffs --p -3 --s 5 --max-k 32 --no-cache --format json"
    code, out, err = run_cli(capsys, *request.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == MAX_K_32_DIGEST


# SHA-256 of the csv, latex and text outputs of two requests, recorded before the
# writers walked the stored coefficient lists; no benchmark digest covers them
TEXT_FORMAT_DIGESTS = {
    ("coeffs --p -3 --s 5 --max-k 6 --no-cache", "csv"):
        "0cc907350b2c5514eebee6006b8d99770fee017789394a629e2d62fdd4404a02",
    ("coeffs --p -3 --s 5 --max-k 6 --no-cache", "latex"):
        "a2b697f442d6e210b4f1cf25f1e5391c4335c477c1e22f1b14a9aad63487e13f",
    ("coeffs --p -3 --s 5 --max-k 6 --no-cache", "text"):
        "d5d2a3dd1296738f167ad6b02e1aabe02332c8ec6eeb695012b35a212d0032b1",
    ("jones --p 2 --s 1 --N 5 --route both", "csv"):
        "6a4f15f7f26d302d0e727e2864411086cbb53739179c4485e38ea7a44f5a1e3d",
    ("jones --p 2 --s 1 --N 5 --route both", "latex"):
        "38c4741c74e978e34bf04ae4b000ef07f79103a1ab5cfe7e854437cd659325b0",
    ("jones --p 2 --s 1 --N 5 --route both", "text"):
        "39db577cb72ed5a2bcbfbc46a7230b5f962e1e1396e0e7d390ed77c23232d562",
}


# SHA-256 of multi-sum requests with chains of length 4 and 5, recorded while
# the sums listed every chain; the default verify grid has no chain longer than 3
LONG_CHAIN_DIGESTS = {
    "verify --suite cross --p-range=-5..5 --m-range=1..5 --format json":
        "7c99c763c5c3a9ac763da9a5f5022a0b5dec1e4a97d29831e04ee9faca90a02b",
    "coeffs --p 5 --s 1 --max-k 10 --cross-check --no-cache --format json":
        "7921be90058b1426f06f7727d07f00a13a10513e2eb9894f1fb43ecdbd2a0417",
    "coeffs --p -5 --r 4 --max-k 10 --cross-check --no-cache --format json":
        "7f2fde7e78b522f5e2c043d18483b7a4cbd2155c330b790b14bd38164f790009",
}


@pytest.mark.parametrize("request_", sorted(LONG_CHAIN_DIGESTS))
def test_long_chain_multisums_match_their_recorded_digests(request_, capsys):
    code, out, err = run_cli(capsys, *request_.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_CHAIN_DIGESTS[request_]


@pytest.mark.parametrize("request_, fmt", sorted(TEXT_FORMAT_DIGESTS))
def test_text_formats_match_their_recorded_digests(request_, fmt, capsys):
    code, out, err = run_cli(capsys, *request_.split(), "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_FORMAT_DIGESTS[request_, fmt]


def test_verify_timings_leave_the_payload_unchanged(capsys):
    # one stderr timing line per check, and the report keeps its digest
    (request, expected), = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "digests.json").read_text()
    )["verify-all"].items()
    code, out, err = run_cli(capsys, *request.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == expected
    timed = [line.split()[1] for line in err.splitlines() if line.startswith("timing: ")]
    assert timed == [check["id"] for check in json.loads(out)["checks"]]


def test_cache_dir_under_a_file_exits_one(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "1",
                             "--cache-dir", str(blocker / "sub"))
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: cache directory {blocker / 'sub'} is unusable: ")


def test_cache_env_naming_a_file_exits_one(capsys, tmp_path, monkeypatch):
    from cyclojones.serialize import CACHE_ENV

    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv(CACHE_ENV, str(blocker))
    code, out, err = run_cli(capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "1",
                             "--cache-dir", str(tmp_path / "unused"))
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: cache directory {blocker} is unusable: ")


def test_empty_cache_env_counts_as_unset(capsys, tmp_path, monkeypatch):
    # Path("") is the working directory: an empty value once put the cache there
    from cyclojones.serialize import CACHE_ENV

    monkeypatch.setenv(CACHE_ENV, "")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "2",
                           "--cache-dir", str(tmp_path / "cache"))
    assert code == 0 and out.startswith("H_0 = 1\n")
    assert [path.name for path in tmp_path.iterdir()] == ["cache"]
    assert [path.name for path in (tmp_path / "cache").iterdir()] == ["h_v2_3_1.json"]


def test_jones_display(capsys):
    code, out, _ = run_cli(capsys, "jones", "--p", "2", "--s", "1", "--N", "2",
                           "--display", "𝔮")
    assert code == 0
    assert out == "𝔮^-2 + 𝔮^-6 - 𝔮^-8\n"


def test_jones_trivial(capsys):
    code, out, _ = run_cli(capsys, "jones", "--p", "1", "--s", "1", "--N", "1")
    assert code == 0
    assert out == "1\n"


def test_jones_both_routes(capsys):
    code, out, _ = run_cli(capsys, "jones", "--p", "1", "--s", "1", "--N", "2",
                           "--route", "both")
    assert code == 0
    assert out == "theorem: 1\nwalsh: 1\n"


def test_jones_both_routes_nontrivial(capsys):
    code, out, _ = run_cli(capsys, "jones", "--p", "-2", "--s", "5", "--N", "4",
                           "--route", "both", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    values = [json.loads(line)["value"] for line in lines]
    assert values[0] == values[1]
    routes = [json.loads(line)["route"] for line in lines]
    assert routes == ["theorem", "walsh"]


def test_jones_both_routes_csv_is_one_table(capsys):
    code, out, _ = run_cli(capsys, "jones", "--p", "-2", "--s", "5", "--N", "3",
                           "--route", "both", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["route", "N", "polynomial"]
    assert [row[:2] for row in rows[1:]] == [["theorem", "3"], ["walsh", "3"]]
    assert rows[1][2] == rows[2][2] != ""


def test_jones_both_routes_latex_labels_each_line(capsys):
    code, out, _ = run_cli(capsys, "jones", "--p", "-2", "--s", "5", "--N", "3",
                           "--route", "both", "--format", "latex")
    assert code == 0
    _, single, _ = run_cli(capsys, "jones", "--p", "-2", "--s", "5", "--N", "3",
                           "--format", "latex")
    assert out == f"\\text{{theorem}}: {single}\\text{{walsh}}: {single}"


def test_jones_walsh_needs_half_twists(capsys):
    with pytest.raises(SystemExit) as err:
        main(["jones", "--p", "1", "--r", "2", "--N", "2", "--route", "walsh"])
    assert err.value.code == 2


def test_jones_json_schema(capsys):
    code, out, _ = run_cli(capsys, "jones", "--p", "2", "--s", "1", "--N", "2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == {"variable": "A", "terms": [[-4, "1"], [-12, "1"], [-16, "-1"]]}
    assert obj["knot"] == {"p": 2, "region": {"kind": "half", "s": 1}}


def test_verify_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "qcalc", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert any(c["id"] == "qcalc/delta-square" for c in report["checks"])
    assert "wall time" in err


def test_verify_bailey_max_k(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bailey", "--max-k", "8")
    assert code == 0
    assert "suite bailey: OK" in out


def test_verify_cross_ranged(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "cross", "--max-k", "5",
        "--p-range", "-2..2", "--m-range", "1..2",
    )
    assert code == 0
    assert "suite cross: OK" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nope"])
    assert err.value.code == 2


def test_verify_jobs(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "io", "--jobs", "2",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)


def test_verify_jobs_matches_serial(capsys):
    for suite, jobs in (("laurent", "3"), ("cross", "2")):
        args = ("verify", "--suite", suite, "--format", "json")
        _, serial, _ = run_cli(capsys, *args)
        _, parallel, _ = run_cli(capsys, *args, "--jobs", jobs)
        assert serial == parallel, suite


def _count_caches(monkeypatch) -> list:
    from cyclojones.qcalc import QSymbolCache

    built, init = [], QSymbolCache.__init__
    monkeypatch.setattr(QSymbolCache, "__init__", lambda self: built.append(1) or init(self))
    return built


def test_serial_verify_builds_one_cache(monkeypatch):
    # the 31 checks, and the Bailey pairs they build, share one QSymbolCache
    from cyclojones import verify

    built = _count_caches(monkeypatch)
    report = verify.run_suite("all", verify.VerifyGrid())
    assert report.ok and len(report.results) == 31 and len(built) == 1


def test_verify_jobs_are_capped(capsys, monkeypatch):
    # the pool starts every worker at once: no more than checks or cores
    import concurrent.futures
    import os

    from cyclojones.verify import suite_checks

    started, groups = [], []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            groups.extend(items)
            return map(fn, groups)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    built = _count_caches(monkeypatch)
    args = ("verify", "--suite", "qcalc", "--format", "json")
    _, serial, _ = run_cli(capsys, *args)
    checks = suite_checks("qcalc")
    for cores, expect in ((3, [3]), (64, [5]), (1, []), (None, [])):
        started.clear()
        groups.clear()
        built.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        code, out, _ = run_cli(capsys, *args, "--jobs", "10000")
        assert code == 0 and out == serial
        assert started == expect
        # the checks are dealt in order, one group and one cache per worker
        workers = expect[0] if expect else 1
        assert groups == ([checks[i::workers] for i in range(workers)] if expect else [])
        assert len(built) == workers


def test_verify_output_is_deterministic(capsys):
    args = ("verify", "--suite", "qcalc", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_eval_unknot_normalization(capsys):
    code, out, _ = run_cli(capsys, "eval", "--p", "1", "--s", "1", "--N", "1",
                           "--root", "3/7", "--digits", "30")
    assert code == 0
    assert "N=1: 1.0" in out.replace("(1.0 + 0.0j)", "1.0")


def test_eval_at_one_is_normalized(capsys):
    # A = exp(2*pi*i*0/1) = 1: every J'_N evaluates to 1
    code, out, _ = run_cli(capsys, "eval", "--p", "2", "--s", "1", "--N", "4",
                           "--root", "0/1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    for row in obj["values"]:
        assert row["re"].startswith("1.0") and row["im"] == "0.0"


def test_eval_takes_a_negative_root_after_a_space(capsys):
    # argparse reads "-1/4" as an option unless it is glued to --root
    code, spaced, err = run_cli(capsys, "eval", "--p", "2", "--r", "3", "--N", "2", "--root", "-1/4")
    assert code == 0, err
    code, glued, _ = run_cli(capsys, "eval", "--p", "2", "--r", "3", "--N", "2", "--root=-1/4")
    assert code == 0 and spaced == glued
    assert spaced.startswith("J'_N(K(2, 3)) at A = exp(2*pi*i*-1/4)\n")


def test_eval_rows_and_json(capsys):
    code, out, _ = run_cli(capsys, "eval", "--p", "2", "--s", "1", "--N", "3",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert [row["N"] for row in obj["values"]] == [1, 2, 3]
    assert obj["values"][0]["re"].startswith("1.0")
    # J'_2(K(2,1/2)) at A = exp(2*pi*i/16): -i + i - 1 = -1
    assert obj["values"][1]["re"].startswith("-1.0")


def test_env_cache_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CYCLOJONES_CACHE", str(tmp_path / "envcache"))
    code, _, _ = run_cli(capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "1")
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.json"))


def test_verify_failure_exits_one(capsys, monkeypatch):
    import cyclojones.verify as verify_mod
    from cyclojones.verify import CheckResult, VerificationReport

    failing = VerificationReport(
        "qcalc",
        (CheckResult("qcalc/pascal", "n <= 16", False, "1/10 failed: (3, 1)"),),
        0.1,
    )
    monkeypatch.setattr(verify_mod, "run_suite", lambda *a, **kw: failing)
    code, out, _ = run_cli(capsys, "verify", "--suite", "qcalc")
    assert code == 1
    assert "suite qcalc: FAILED" in out


def test_integrality_failure_exits_one(capsys, tmp_path, monkeypatch):
    from cyclojones import IntegralityFailure, LaurentFraction, LaurentPoly
    import cyclojones.cli as cli_mod

    # (A - 1) / (Φ_1(A) Φ_3(A)): Φ_1 cancels, Φ_3 does not
    residual = LaurentFraction.over_cyclotomic(LaurentPoly({1: 1, 0: -1}), {1: 1, 3: 1})

    def boom(*args, **kwargs):
        raise IntegralityFailure("synthetic failure", residual)

    monkeypatch.setattr(cli_mod.cyclotomic, "h_coeff", boom)
    code, _, err = run_cli(capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "1",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    assert "synthetic failure" in err
    assert "residual: Φ_3(A) did not cancel: exponent 1 of 1 left\n" in err


def test_integrality_failure_names_the_factor(capsys, tmp_path, monkeypatch):
    import re

    import cyclojones.cyclotomic as cyclotomic_mod

    right = cyclotomic_mod.c_prime

    def wrong(k, p, cache=None):
        return right(k, p, cache) + (1 if k == 2 else 0)

    monkeypatch.setattr(cyclotomic_mod, "c_prime", wrong)
    code, out, err = run_cli(capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "3",
                             "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert "H_2(K(2, 1/2)) did not collapse" in err
    assert re.search(r"residual: Φ_\d+\(A\) did not cancel: exponent \d+ of \d+ left", err)
    assert len(err.splitlines()) == 2


def test_cache_mismatch_exits_one(capsys, tmp_path, cache):
    from cyclojones import KnotSpec
    from cyclojones.cyclotomic import h_coeff
    from cyclojones.serialize import CoeffCache

    knot = KnotSpec.half(2, 1)
    store = CoeffCache(tmp_path)
    wrong = h_coeff(0, knot, cache) + h_coeff(0, knot, cache)  # 2, not H_1
    store.put(knot, 1, [h_coeff(0, knot, cache), wrong])  # valid digest, wrong value
    code, _, err = run_cli(capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "1",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    assert "disagrees with recomputation" in err


@pytest.mark.parametrize("knot_args", [("--s", "3"), ("--r", "-2")])
def test_wrong_cache_entry_at_any_k_exits_one(capsys, tmp_path, cache, knot_args):
    # every hit is checked at a point, not only hits 1, 9, 17, ...
    from cyclojones import LaurentPoly
    from cyclojones.cli import build_parser, config_from_args
    from cyclojones.cyclotomic import coefficient_table
    from cyclojones.serialize import CoeffCache

    argv = ["coeffs", "--p", "-2", *knot_args, "--max-k", "8"]
    knot = config_from_args(build_parser().parse_args(argv)).knot
    table = coefficient_table(knot, 8, cache)
    for k in range(9):
        values = list(table.values)
        values[k] += LaurentPoly.monomial(2 * k - 4)
        CoeffCache(tmp_path / str(k)).put(knot, 8, values)  # valid digest
        code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path / str(k)))
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: cache entry for {knot} k={k} disagrees with recomputation at A = ")
        assert "mod 2^127 - 1: entry " in line and ", formula " in line


def test_cache_entry_with_a_far_exponent_is_refused_before_it_is_built(capsys, tmp_path):
    # three terms over a span of 10^7: the dense list would take about 90 MB
    import tracemalloc

    from cyclojones import KnotSpec
    from cyclojones.serialize import CoeffCache, knot_to_obj

    knot = KnotSpec.half(2, 1)
    values = [{"variable": "A", "terms": [[0, "1"]]},
              {"variable": "A", "terms": [[10 ** 7, "1"], [1, "1"], [0, "1"]]}]
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    table = {"cache": 2, "knot": knot_to_obj(knot), "k": 1, "values": values,
             "digest": hashlib.sha256(text.encode()).hexdigest()}
    CoeffCache(tmp_path)._path(knot, 1).write_text(
        json.dumps(table, sort_keys=True, separators=(",", ":")) + "\n")  # as put lays it out
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "1",
                                 "--cache-dir", str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert "malformed value" in err and "k=1 exceeds" in err
    assert peak < 5 * 2 ** 20


def test_corrupt_cache_entry_exits_one(capsys, tmp_path):
    from cyclojones import KnotSpec
    from cyclojones.serialize import CoeffCache

    CoeffCache(tmp_path)._path(KnotSpec.half(2, 1), 0).write_text("{truncated")
    code, out, err = run_cli(capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "1",
                             "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert "unreadable cache file" in err


def test_renamed_cache_entry_exits_one(capsys, tmp_path, cache):
    from cyclojones import KnotSpec
    from cyclojones.cyclotomic import h_coeff
    from cyclojones.serialize import CoeffCache

    store = CoeffCache(tmp_path)
    source, target = KnotSpec.half(2, 1), KnotSpec.half(3, 1)
    store.put(target, 2, [h_coeff(k, target, cache) for k in range(3)])
    store.put(source, 2, [h_coeff(k, source, cache) for k in range(3)])
    store._path(source, 2).replace(store._path(target, 2))
    code, out, err = run_cli(capsys, "coeffs", "--p", "3", "--s", "1", "--max-k", "2",
                             "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert "is not a table for" in err


def _h_coeff_calls(monkeypatch):
    import cyclojones.cyclotomic as cyclotomic_mod

    calls, h_coeff = [], cyclotomic_mod.h_coeff
    monkeypatch.setattr(cyclotomic_mod, "h_coeff",
                        lambda k, knot, cache=None: calls.append(k) or h_coeff(k, knot, cache))
    return calls


def _coeffs(capsys, tmp_path, max_k):
    code, out, err = run_cli(capsys, "coeffs", "--p", "-2", "--s", "3", "--max-k", str(max_k),
                             "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0, err
    return out


def test_cold_request_leaves_one_file_per_knot(capsys, tmp_path):
    _coeffs(capsys, tmp_path, 8)
    (path,) = tmp_path.iterdir()
    assert path.name == "h_v2_13_4.json"
    assert len(json.loads(path.read_text())["values"]) == 9


def test_longer_request_computes_only_the_missing_entries(capsys, tmp_path, monkeypatch):
    calls = _h_coeff_calls(monkeypatch)
    _coeffs(capsys, tmp_path, 8)
    assert calls == list(range(9))
    calls.clear()
    longer = _coeffs(capsys, tmp_path, 12)
    assert calls == [9, 10, 11, 12]
    (path,) = tmp_path.iterdir()
    assert json.loads(path.read_text())["k"] == 12
    calls.clear()
    assert _coeffs(capsys, tmp_path, 12) == longer and calls == []
    assert longer == _coeffs(capsys, tmp_path / "fresh", 12)


def test_shorter_request_serves_a_prefix_and_keeps_the_file(capsys, tmp_path, monkeypatch):
    _coeffs(capsys, tmp_path, 8)
    (path,) = tmp_path.iterdir()
    before = path.read_bytes()
    calls = _h_coeff_calls(monkeypatch)
    prefix = _coeffs(capsys, tmp_path, 4)
    assert calls == [] and path.read_bytes() == before
    assert prefix == _coeffs(capsys, tmp_path / "fresh", 4)


def _double_a_coefficient(path, k):
    """Double H_k's first coefficient in a cache file and recompute its digest."""
    obj = json.loads(path.read_text())
    obj["values"][k]["terms"][0][1] = str(int(obj["values"][k]["terms"][0][1]) * 2)
    text = json.dumps(obj["values"], sort_keys=True, separators=(",", ":"))
    obj["digest"] = hashlib.sha256(text.encode()).hexdigest()
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")  # put's layout


def test_tampered_entry_inside_a_table_exits_one(capsys, tmp_path, cache):
    # H_5 of a 9-entry table changed and the digest recomputed: only the
    # point check can refuse it, and it names k = 5.  The coefficient is
    # doubled, not incremented, so that it stays nonzero: the reader refuses
    # a zero coefficient as malformed before any point check
    from cyclojones import KnotSpec
    from cyclojones.serialize import CoeffCache

    _coeffs(capsys, tmp_path, 8)
    (path,) = tmp_path.iterdir()
    _double_a_coefficient(path, 5)
    assert CoeffCache(tmp_path).get(KnotSpec.half(-2, 3), 8) is not None  # it passes the vetting
    code, out, err = run_cli(capsys, "coeffs", "--p", "-2", "--s", "3", "--max-k", "8",
                             "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: cache entry for K(-2, 3/2) k=5 disagrees with recomputation")


def test_version_1_entry_beside_the_table_is_ignored(capsys, tmp_path, monkeypatch):
    cold = _coeffs(capsys, tmp_path, 8)
    old = tmp_path / "h_v1_p-2_s3_k1.json"
    old.write_text('{"schema": 1, "k": 1, "value": {"variable": "A", "terms": [[0, "7"]]}}')
    calls = _h_coeff_calls(monkeypatch)
    assert _coeffs(capsys, tmp_path, 8) == cold and calls == []
    assert sorted(path.name for path in tmp_path.iterdir()) == [old.name, "h_v2_13_4.json"]


_PARTNER = ("coeffs", "--p", "-2", "--r", "3", "--max-k", "4", "--format", "json")


def _partner_file(capsys, tmp_path):
    """The file K(3, -2) stores, which its other name K(-2, 3) reads."""
    code, _, err = run_cli(capsys, "coeffs", "--p", "3", "--r", "-2", "--max-k", "4",
                           "--cache-dir", str(tmp_path))
    assert code == 0, err
    (path,) = tmp_path.iterdir()
    return path


def test_a_knots_other_name_is_served_the_stored_table(capsys, tmp_path, monkeypatch):
    import cyclojones.cyclotomic as cyclotomic_mod

    path = _partner_file(capsys, tmp_path)
    code, uncached, err = run_cli(capsys, *_PARTNER, "--no-cache")
    assert code == 0, err
    monkeypatch.setattr(cyclotomic_mod, "h_coeff", lambda *args: pytest.fail("recomputed"))
    code, out, err = run_cli(capsys, *_PARTNER, "--cache-dir", str(tmp_path))
    assert code == 0 and out == uncached, err
    assert list(tmp_path.iterdir()) == [path]


def test_a_wrong_entry_served_to_another_name_exits_one(capsys, tmp_path):
    # the stored K(3, -2) table with H_3 changed and re-digested is point
    # checked against the formula of the knot asked for, K(-2, 3)
    _double_a_coefficient(_partner_file(capsys, tmp_path), 3)
    code, out, err = run_cli(capsys, *_PARTNER, "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: cache entry for K(-2, 3) k=3 disagrees with recomputation")


def test_a_table_of_the_mirror_under_the_knots_name_exits_one(capsys, tmp_path, cache):
    # K(-3, 2), the mirror of K(3, -2) = K(-2, 3), has the same α and its own file
    from cyclojones import KnotSpec
    from cyclojones.cyclotomic import h_coeff
    from cyclojones.serialize import CoeffCache

    store, mirror = CoeffCache(tmp_path), KnotSpec.full(-3, 2)
    store.put(mirror, 4, [h_coeff(k, mirror, cache) for k in range(5)])
    store._path(mirror).replace(store._path(KnotSpec.full(-2, 3)))
    code, out, err = run_cli(capsys, *_PARTNER, "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert "is not a table for K(-2, 3)" in err


def _poly_to_json_calls(monkeypatch):
    from cyclojones import serialize

    calls, poly_to_json = [], serialize.poly_to_json
    monkeypatch.setattr(serialize, "poly_to_json", lambda h: calls.append(h) or poly_to_json(h))
    return calls


def test_a_json_table_is_serialized_once_cold_and_never_warm(capsys, tmp_path, monkeypatch):
    # the cold request prints the entry texts put wrote, a hit those get vetted
    calls = _poly_to_json_calls(monkeypatch)
    cold = _coeffs(capsys, tmp_path, 8)
    assert len(calls) == 9
    calls.clear()
    assert _coeffs(capsys, tmp_path, 8) == cold and calls == []


def test_a_grown_table_serializes_only_its_new_entries(capsys, tmp_path, monkeypatch):
    # the served prefix H_0..H_3 keeps the texts get vetted; the file and the
    # printed table are the bytes a cold request writes and prints
    _coeffs(capsys, tmp_path, 3)
    calls = _poly_to_json_calls(monkeypatch)
    grown = _coeffs(capsys, tmp_path, 6)
    assert len(calls) == 3
    (path,) = tmp_path.iterdir()
    assert grown == _coeffs(capsys, tmp_path / "fresh", 6)
    assert path.read_bytes() == (tmp_path / "fresh" / path.name).read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv", "latex", "text"])
@pytest.mark.parametrize("knot_args", [("--p", "-2", "--s", "3"), ("--p", "2", "--r", "-1")])
def test_cold_and_warm_requests_print_the_same_bytes(capsys, tmp_path, fmt, knot_args):
    def coeffs(max_k, *cache_args):
        code, out, err = run_cli(capsys, "coeffs", *knot_args, "--max-k", str(max_k),
                                 "--format", fmt, *cache_args)
        assert code == 0, err
        return out

    short, long = coeffs(3, "--no-cache"), coeffs(6, "--no-cache")
    cached = ("--cache-dir", str(tmp_path))
    assert coeffs(3, *cached) == short  # cold
    assert coeffs(3, *cached) == short  # a full hit
    assert coeffs(6, *cached) == long  # a partial hit: stored k = 3 < 6
    assert coeffs(6, *cached) == long
    assert coeffs(3, *cached) == short  # a longer stored table: k = 6 > 3


def test_a_cache_file_in_another_json_layout_exits_one(capsys, tmp_path):
    # the same fields and the digest of the same values text, re-written with
    # json.dumps's default separators: served entries are printed as stored,
    # so only put's layout is read
    cold = _coeffs(capsys, tmp_path, 4)
    (path,) = tmp_path.iterdir()
    path.write_text(json.dumps(json.loads(path.read_text())))
    code, out, err = run_cli(capsys, "coeffs", "--p", "-2", "--s", "3", "--max-k", "4",
                             "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"error: cache file {path} is not laid out as put writes it\n"
    path.unlink()
    assert _coeffs(capsys, tmp_path, 4) == cold


@pytest.mark.parametrize(
    "argv",
    [
        "coeffs --p -3 --s 5 --max-k {} --no-cache",
        "jones --p 2 --s 1 --N {} --route both",
        "eval --p 2 --s 1 --N {}",
    ],
)
def test_requests_above_the_index_bound_are_usage_errors(argv, capsys):
    # checked while the arguments are read, before any computation starts
    from cyclojones.cli import MAX_INDEX, build_parser, config_from_args

    parser = build_parser()
    config_from_args(parser.parse_args(argv.format(MAX_INDEX).split()))
    for value in (MAX_INDEX + 1, 5000):
        with pytest.raises(SystemExit) as err:
            config_from_args(parser.parse_args(argv.format(value).split()))
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: ")
        assert lines[-1].endswith(f"must be in {0 if 'max-k' in argv else 1}..{MAX_INDEX}")


@pytest.mark.parametrize(
    "argv, accepted",
    [
        # refused: 20 s and 745 MB; accepted: 1.4 s and 78 MB (README)
        ("coeffs --p 2000 --s 1 --max-k 12 --no-cache", "coeffs --p 200 --s 1 --max-k 12 --no-cache"),
        # the K(-3, 5/2) table at the largest index stays in; ten twists are refused there
        ("coeffs --p 10 --s 1 --max-k 48 --no-cache", "coeffs --p -3 --s 5 --max-k 48 --no-cache"),
        ("coeffs --p 1 --r -2000000 --max-k 0 --no-cache", "coeffs --p 1 --r -2 --max-k 48 --no-cache"),
        ("jones --p 2 --s 401 --N 20", "jones --p 2 --s 1 --N 48 --route both"),
        ("eval --p -200 --r 1 --N 20", "eval --p -100 --r 1 --N 20"),
    ],
)
def test_requests_above_the_lattice_budget_are_usage_errors(argv, accepted, capsys, monkeypatch):
    # counted from |p|, s or r and max_k or N while the arguments are read
    from cyclojones import cli, cyclotomic

    monkeypatch.setattr(cyclotomic, "coefficient_table", lambda *a: pytest.fail("table started"))
    parser = cli.build_parser()
    assert cli.config_from_args(parser.parse_args(accepted.split())).knot
    with pytest.raises(SystemExit) as err:
        cli.config_from_args(parser.parse_args(argv.split()))
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: ")
    assert lines[-1].endswith(f"units of lattice slots, over the budget of {cli.LATTICE_BUDGET}")
    with pytest.raises(SystemExit) as err:
        cli.main(argv.split())
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag, low, field", [("--max-k", 0, "max_k"), ("--max-n", 1, "max_n")])
def test_verify_grid_above_its_bound_is_a_usage_error(flag, low, field, capsys, monkeypatch):
    # checked while the arguments are read: no check of the suite starts
    from cyclojones import cli, verify

    monkeypatch.setattr(verify, "run_suite", lambda *args, **kwargs: pytest.fail("verify started"))
    parser = cli.build_parser()
    bound = cli.VERIFY_MAX_INDEX
    config = cli.config_from_args(parser.parse_args(["verify", flag, str(bound)]))
    assert getattr(config.grid, field) == bound
    for value in (bound + 1, 5000):
        argv = ["verify", "--suite", "cross", flag, str(value)]
        with pytest.raises(SystemExit) as err:
            cli.config_from_args(parser.parse_args(argv))
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: ")
        assert lines[-1].endswith(f"{flag} must be in {low}..{bound}")
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""


def test_verify_grid_is_the_four_values_a_caller_sets():
    from cyclojones import KnotSpec
    from cyclojones.cli import build_parser, config_from_args
    from cyclojones.verify import VerifyGrid

    assert list(VerifyGrid._fields) == ["max_k", "max_n", "p_values", "m_values"]
    # the default grid's derived values, which the pinned verify-all digest holds
    grid = VerifyGrid()
    assert (grid.bailey_k, grid.bridge_k) == (12, 8)
    assert grid.half_knots() == [KnotSpec.half(p, s) for p in grid.p_values for s in (1, 3, 5)]
    assert grid.full_knots() == [KnotSpec.full(p, r) for p in grid.p_values for r in grid.p_values]
    # the default written out is the default
    parser = build_parser()
    assert config_from_args(parser.parse_args(["verify", "--max-k", "10"])).grid == grid
    argv = ["verify", "--p-range=-2..2", "--m-range=1..2"]
    narrow = config_from_args(parser.parse_args(argv)).grid
    assert narrow == VerifyGrid(p_values=(-2, -1, 1, 2), m_values=(1, 2))
    assert narrow.full_knots() == [KnotSpec.full(p, r) for p in (-2, -1, 1, 2) for r in (-2, -1, 1, 2)]
    assert narrow.half_knots() == [KnotSpec.half(p, s) for p in (-2, -1, 1, 2) for s in (1, 3)]


@pytest.mark.parametrize(
    "argv, accepted",
    [
        ("verify --max-k 1 --p-range=-500..500", "verify --max-k 1 --p-range=-5..5 --m-range=1..5"),
        # long ranges of twists or of colors
        ("verify --p-range=-40..40", "verify --p-range=-5..5 --m-range=1..5"),
        ("verify --m-range=1..1000", "verify --max-k 0 --m-range=1..19"),
        ("verify --max-k 0 --p-range=1..1 --m-range=1..150",
         "verify --max-k 0 --p-range=1..1 --m-range=1..149"),
        ("verify --max-k 0 --p-range=-1000000..1000000", "verify --max-k 0 --p-range=-3..3 --m-range=1..19"),
        # past 2**63 - 1 values, where len() of a range overflows
        ("verify --max-k 0 --p-range=1..9999999999999999999",
         "verify --max-k 0 --p-range=1..1 --m-range=1..149"),
        ("verify --max-k 0 --m-range=1..99999999999999999999", "verify --max-k 0 --m-range=1..19"),
    ],
)
def test_verify_grids_above_the_knot_bound_are_usage_errors(argv, accepted, capsys, monkeypatch):
    # counted from the range ends while the arguments are read: no suite starts
    from cyclojones import cli, verify

    monkeypatch.setattr(verify, "run_suite", lambda *args, **kwargs: pytest.fail("verify started"))
    parser = cli.build_parser()
    grid = cli.config_from_args(parser.parse_args(accepted.split())).grid
    assert len(grid.full_knots()) + len(grid.half_knots()) == cli.VERIFY_MAX_KNOTS
    with pytest.raises(SystemExit) as err:
        cli.main(argv.split())
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()  # verify's usage, wrapped over several lines
    assert lines[0].startswith("usage: cyclojones verify ")
    assert lines[-1].endswith(f"knots, more than {cli.VERIFY_MAX_KNOTS}")


@pytest.mark.parametrize(
    "argv, accepted",
    [
        # refused: 50 million units (31.5 s); accepted: 26 million units (at 46, 39 million: 24.8 s)
        ("coeffs --p 2 --s 1 --max-k 48 --cross-check", "coeffs --p 2 --s 1 --max-k 43 --cross-check"),
        # refused: 38 million units (26.6 s); accepted: 29 million units (K(1, 1/2) at 37 took 5.9 s)
        ("coeffs --p -1 --s -1 --max-k 48 --cross-check", "coeffs --p 1 --s 1 --max-k 46 --cross-check"),
        # max_k 32 took 5.6 s and is accepted; max_k 40 is 46 million units
        ("coeffs --p 3 --s 5 --max-k 40 --cross-check", "coeffs --p 3 --s 5 --max-k 32 --cross-check"),
        ("coeffs --p 200 --s 1 --max-k 12 --cross-check", "coeffs --p 40 --s 1 --max-k 10 --cross-check"),
    ],
)
def test_cross_checks_above_the_work_budget_are_usage_errors(argv, accepted, capsys, monkeypatch):
    # every multi-sum and comparison of the request is counted while the arguments are read
    from cyclojones import bailey, cli, cyclotomic

    monkeypatch.setattr(bailey, "chain_sum", lambda *a: pytest.fail("chains summed"))
    monkeypatch.setattr(cyclotomic, "coefficient_table", lambda *a: pytest.fail("table started"))
    parser = cli.build_parser()
    assert cli.config_from_args(parser.parse_args(accepted.split())).cross_check
    with pytest.raises(SystemExit) as err:
        cli.config_from_args(parser.parse_args(argv.split()))
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: ")
    assert lines[-1].endswith(f"units of work, over the budget of {cli.WORK_BUDGET}")
    with pytest.raises(SystemExit) as err:
        cli.main(argv.split())
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, accepted",
    [
        # refused: 33 million units (19.8 s at --max-k 10, 85 s before the skein recurrences);
        # accepted: 17 million units, 8.7 s
        ("verify --max-k 0 --max-n 24 --p-range=-5..5 --m-range=1..5", "verify --max-n 24 --m-range=1..5"),
        # refused: still running at 300 s; accepted: 13 million units, 5.0 s
        ("verify --max-k 0 --max-n 24 --p-range=1..1 --m-range=1..149",
         "verify --max-k 0 --p-range=1..1 --m-range=1..149"),
        ("verify --max-k 0 --p-range=100000..100000", "verify --max-n 24"),
    ],
)
def test_route_agreement_above_the_work_budget_is_a_usage_error(argv, accepted, capsys, monkeypatch):
    # counted from --max-n and the range ends while the arguments are read: no suite starts
    from cyclojones import cli, verify

    monkeypatch.setattr(verify, "run_suite", lambda *args, **kwargs: pytest.fail("verify started"))
    parser = cli.build_parser()
    cli.config_from_args(parser.parse_args(accepted.split()))
    with pytest.raises(SystemExit) as err:
        cli.main(argv.split())
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()  # verify's usage, wrapped over several lines
    assert lines[0].startswith("usage: cyclojones verify ")
    assert lines[-1].endswith(f"units of work, over the budget of {cli.WORK_BUDGET}")


@pytest.mark.parametrize(
    "argv",
    [
        "coeffs --p 12 --r 1 --max-k 8 --cross-check --no-cache",
        "coeffs --p 40 --s 1 --max-k 10 --cross-check --no-cache",
        "verify --p-range=1..1 --m-range=1..20",
        "verify --max-k 16 --p-range=-4..4",
    ],
)
def test_cheap_multisum_requests_are_accepted(argv, capsys):
    # each runs in 0.04-4.4 s on a 2-core host with Python 3.11
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0, err
    if argv.startswith("coeffs --p 12"):
        assert out == run_cli(capsys, *argv.replace(" --cross-check", "").split())[1]


@pytest.mark.parametrize("suite", ["io", "laurent", "qcalc"])
def test_suites_no_range_enters_are_accepted_on_the_largest_grid(suite, capsys):
    # each took 0.10-0.14 s on a 2-core host with Python 3.11; the grid's suites
    # together count 84 million units, and --suite all stays refused
    from cyclojones.cli import _verify_work
    from cyclojones.verify import SUITES

    grid = ("--max-k", "24", "--max-n", "24", "--p-range=-5..5", "--m-range=1..5")
    code, out, err = run_cli(capsys, "verify", "--suite", suite, *grid)
    assert code == 0, err
    assert out.splitlines()[-1].startswith(f"suite {suite}: OK")
    # all counts the terms of every suite (51,515,283 units at the default --max-n 8), and
    # one suite never more: no request turns from accepted to refused
    ranges = (24, 24, (-5, 5), (1, 5))
    assert _verify_work(*ranges, suite) == 0
    default_n = (24, 8, (-5, 5), (1, 5))
    assert _verify_work(*default_n, "all") == _verify_work(*default_n) == 51_515_283
    assert _verify_work(*ranges, "all") == sum(_verify_work(*ranges, name) for name in SUITES) - \
        _verify_work(*ranges, "bailey") == 84_283_283
    assert _verify_work(*ranges, "bailey") == _verify_work(*ranges, "skein") > 0


@pytest.mark.parametrize(
    "argv",
    [
        "verify --max-k 1 --p-range=-500..500",
        "verify --suite all --max-n 24 --p-range=-5..5 --m-range=1..5",
        "verify --suite all --max-k 24 --max-n 24 --p-range=-5..5 --m-range=1..5",
        "verify --suite cross --max-n 24 --p-range=-5..5 --m-range=1..5",
        "verify --suite io --max-k 1 --p-range=-500..500",
        "coeffs --p 2 --s 1 --max-k 48 --cross-check",
        "coeffs --p 200 --s 1 --max-k 12 --cross-check",
        "coeffs --p 1 --s 1 --max-k 49",
        "verify --m-range 0..2",
    ],
)
def test_the_robustness_requests_stay_usage_errors(argv, capsys, monkeypatch):
    # the ROADMAP Baseline's list, and the knot bound for a suite no range enters
    from cyclojones import cyclotomic, verify

    monkeypatch.setattr(verify, "run_suite", lambda *args, **kwargs: pytest.fail("verify started"))
    monkeypatch.setattr(cyclotomic, "coefficient_table", lambda *a: pytest.fail("table started"))
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: cyclojones {argv.split()[0]} ")


def test_coeffs_and_jones_requests_build_no_fraction(capsys, fractions_built):
    # every quotient of a table or of the Walsh route is divided straight by its
    # braces (qcalc.brace_quotient), and --cross-check compares the multi-sums'
    # numerators (bailey.multisum_agreement): no LaurentFraction is built
    from cyclojones.laurent import LaurentFraction

    for argv in (
        "coeffs --p -3 --s 5 --max-k 8 --no-cache",
        "coeffs --p 3 --r -2 --max-k 8 --no-cache",
        "jones --p 2 --s 1 --N 6 --route both",
        "coeffs --p 2 --s 3 --max-k 8 --no-cache --cross-check",
        "coeffs --p 2 --s -3 --max-k 8 --no-cache --cross-check",
        "coeffs --p 3 --r -2 --max-k 8 --no-cache --cross-check",
    ):
        assert main(argv.split()) == 0
    capsys.readouterr()
    assert fractions_built == []
    LaurentFraction(2) * LaurentFraction(3)  # the counters see the fractions that are built
    assert fractions_built == ["__init__", "__init__", "_make"]


def test_route_disagreement_exits_one(capsys, monkeypatch):
    import cyclojones.cyclotomic as cyclotomic_mod

    walsh = cyclotomic_mod.jones_walsh

    def wrong(N, knot, cache):  # J'_N times A^4
        value = walsh(N, knot, cache).value * cyclotomic_mod.LaurentPoly.monomial(4)
        return cyclotomic_mod.JonesResult(knot, N, value, "walsh")

    monkeypatch.setattr(cyclotomic_mod, "jones_walsh", wrong)
    code, out, err = run_cli(capsys, "jones", "--p", "2", "--s", "1", "--N", "2", "--route", "both")
    assert code == 1 and out == ""
    assert err == ("route disagreement for K(2, 1/2), N=2:\n"
                   "  theorem: A^-4 + A^-12 - A^-16\n  walsh:   1 + A^-8 - A^-12\n")


def cross_check_work(max_k, p, t, half):
    """The units config_from_args counts for coeffs --cross-check, t = |r| or (|s| + 1)/2."""
    from cyclojones.cli import _sum_work, _sums

    return _sum_work(max_k, _sums(p, p), _sums(t, t), half)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 48), st.integers(1, 400), st.integers(1, 400), st.booleans(),
       st.integers(1, 24), st.integers(-100, 100), st.integers(0, 100), st.integers(1, 100))
def test_work_never_falls_as_a_request_grows(max_k, p, t, half, max_n, lo, width, m_hi):
    from cyclojones.cli import _verify_work

    work = cross_check_work(max_k, p, t, half)
    assert work <= min(cross_check_work(max_k + 1, p, t, half), cross_check_work(max_k, p + 1, t, half),
                       cross_check_work(max_k, -p - 1, t, half), cross_check_work(max_k, p, t + 1, half))
    k = max_k % 25
    grid = (k, max_n, (lo, lo + width), (1, m_hi))
    work = _verify_work(*grid)
    assert work <= min(_verify_work(k + 1, *grid[1:]), _verify_work(k, max_n + 1, *grid[2:]),
                       _verify_work(k, max_n, (lo - 1, lo + width), (1, m_hi)),
                       _verify_work(k, max_n, (lo, lo + width + 1), (1, m_hi)),
                       _verify_work(k, max_n, (lo, lo + width), (1, m_hi + 1)))


def test_work_is_closed_form_and_orders_requests_as_measured():
    from cyclojones.cli import _verify_work

    for end in (2**63, 10**20, 10**40):  # nothing is listed: each answer takes under 1 ms
        assert _verify_work(24, 24, (-end, end), (1, end)) > _verify_work(24, 24, (-5, 5), (1, 5))
        assert min(timeit.repeat(lambda: _verify_work(24, 24, (-end, end), (1, end)), number=1)) < 1e-3
    # K(1, 1/2) at max_k 37 took 5.9 s, K(3, 5/2) at max_k 26 2.0 s (README)
    assert cross_check_work(37, 1, 1, True) > 2 * cross_check_work(26, 3, 3, True)


def test_long_cross_check_chains_exit_zero(capsys):
    # 1200 twists at max_k 0 is one chain of 1200 parts
    code, out, _ = run_cli(capsys, "coeffs", "--p", "1200", "--s", "1", "--max-k", "0",
                           "--cross-check", "--no-cache")
    assert code == 0
    assert out == "H_0 = 1\n"


def test_parser_is_built_once_and_keeps_no_state():
    from cyclojones.cli import build_parser, config_from_args

    parser = build_parser()
    assert build_parser() is parser
    knot = ["coeffs", "--p", "2", "--s", "1", "--max-k", "3"]
    first = config_from_args(parser.parse_args(knot + ["--cross-check", "--no-cache"]))
    second = config_from_args(parser.parse_args(knot))
    assert first.cross_check and first.cache_dir is None
    assert not second.cross_check and second.cache_dir is not None


def test_eval_digits_above_the_evaluation_precision_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--p", "2", "--s", "1", "--N", "2", "--root", "1/7", "--digits", "51"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith("--digits must be in 1..50")


def test_eval_fifty_digits_match_a_high_precision_reference(capsys):
    import mpmath

    from cyclojones import KnotSpec, QSymbolCache
    from cyclojones.cyclotomic import jones_half

    code, out, _ = run_cli(capsys, "eval", "--p", "2", "--s", "1", "--N", "4",
                           "--root", "3/7", "--digits", "50", "--format", "json")
    assert code == 0
    cache = QSymbolCache()
    with mpmath.workdps(400):
        for row in json.loads(out)["values"]:
            poly = jones_half(row["N"], KnotSpec.half(2, 1), cache).value
            ref = mpmath.fsum(c * mpmath.expjpi(mpmath.mpf(6 * e) / 7) for e, c in poly.items())
            for part, expect in (("re", ref.real), ("im", ref.imag)):
                # 50 significant digits: within half a unit of the 50th
                assert abs(mpmath.mpf(row[part]) - expect) <= abs(expect) * mpmath.mpf("5e-50"), (
                    row["N"], part)

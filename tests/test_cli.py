import json

import pytest

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
    args = ("verify", "--suite", "laurent", "--format", "json")
    _, serial, _ = run_cli(capsys, *args)
    _, parallel, _ = run_cli(capsys, *args, "--jobs", "3")
    assert serial == parallel


def test_verify_jobs_are_capped(capsys, monkeypatch):
    # the pool starts every worker at once: no more than checks or cores
    import os

    from cyclojones import verify

    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", FakePool)
    args = ("verify", "--suite", "qcalc", "--format", "json")
    _, serial, _ = run_cli(capsys, *args)
    for cores, expect in ((3, [3]), (64, [5]), (1, []), (None, [])):
        started.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        code, out, _ = run_cli(capsys, *args, "--jobs", "10000")
        assert code == 0 and out == serial
        assert started == expect


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
    import cyclojones.cli as cli_mod
    from cyclojones.verify import CheckResult, VerificationReport

    failing = VerificationReport(
        "qcalc",
        (CheckResult("qcalc/pascal", "n <= 16", False, "1/10 failed: (3, 1)"),),
        0.1,
    )
    monkeypatch.setattr(cli_mod, "run_suite", lambda *a, **kw: failing)
    code, out, _ = run_cli(capsys, "verify", "--suite", "qcalc")
    assert code == 1
    assert "suite qcalc: FAILED" in out


def test_integrality_failure_exits_one(capsys, tmp_path, monkeypatch):
    from cyclojones import IntegralityFailure, LaurentFraction
    import cyclojones.cli as cli_mod

    def boom(*args, **kwargs):
        raise IntegralityFailure("synthetic failure", LaurentFraction(1, 2))

    monkeypatch.setattr(cli_mod.cyclotomic, "h_coeff", boom)
    code, _, err = run_cli(capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "1",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    assert "synthetic failure" in err and "residual" in err


def test_cache_mismatch_exits_one(capsys, tmp_path, cache):
    from cyclojones import KnotSpec
    from cyclojones.cyclotomic import h_coeff
    from cyclojones.serialize import CoeffCache

    knot = KnotSpec.half(2, 1)
    store = CoeffCache(tmp_path)
    wrong = h_coeff(0, knot, cache) + h_coeff(0, knot, cache)  # 2, not H_1
    store.put(knot, 1, wrong)  # valid digest, wrong value
    code, _, err = run_cli(capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "1",
                           "--cache-dir", str(tmp_path))
    assert code == 1
    assert "disagrees with recomputation" in err


def test_corrupt_cache_entry_exits_one(capsys, tmp_path):
    from cyclojones import KnotSpec
    from cyclojones.serialize import CoeffCache

    CoeffCache(tmp_path)._path(KnotSpec.half(2, 1), 0).write_text("{truncated")
    code, out, err = run_cli(capsys, "coeffs", "--p", "2", "--s", "1", "--max-k", "1",
                             "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert "unreadable cache entry" in err


def test_renamed_cache_entry_exits_one(capsys, tmp_path, cache):
    from cyclojones import KnotSpec
    from cyclojones.cyclotomic import h_coeff
    from cyclojones.serialize import CoeffCache

    store = CoeffCache(tmp_path)
    source, target = KnotSpec.half(2, 1), KnotSpec.half(3, 1)
    for k in range(3):
        store.put(target, k, h_coeff(k, target, cache))
    store.put(source, 2, h_coeff(2, source, cache))
    store._path(source, 2).rename(store._path(target, 2))
    code, out, err = run_cli(capsys, "coeffs", "--p", "3", "--s", "1", "--max-k", "2",
                             "--cache-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert "is not for" in err

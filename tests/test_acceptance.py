"""Acceptance criteria, one test per criterion.

Everything is exact-identity or property-based at desk scale; each test
enforces its stated wall-clock limit and prints one PASS line (visible
with `pytest -s`).
"""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from cyclojones import (
    KnotSpec,
    LaurentFraction,
    LaurentPoly,
    QSymbolCache,
    bailey_lemma_check,
    c_prime,
    c_tilde_prime,
    chain_step,
    coefficient_table,
    d_kjp,
    framing_mu,
    h_coeff,
    h_coeff_half,
    half_twist_delta,
    jones_from_table,
    jones_half,
    jones_int,
    jones_walsh,
    multisum_c_prime,
    multisum_c_tilde,
    multisum_d,
    pairing_R_e,
    s_coeff,
    squared_pair,
    t_coeff,
    twist_coeff_d,
    unit_pair,
    verify_bailey_pair,
)
from cyclojones.qcalc import brace
from cyclojones.serialize import poly_from_json, poly_to_json
from cyclojones.verify import VerifyGrid, run_suite

A = LaurentPoly.monomial

P_GRID = (-3, -2, -1, 1, 2, 3)
S_GRID = (1, 3, 5)
HALF_KNOTS = [KnotSpec.half(p, s) for p in P_GRID for s in S_GRID]
FULL_KNOTS = [KnotSpec.full(p, r) for p in P_GRID for r in P_GRID]


@pytest.fixture(scope="module")
def cache():
    return QSymbolCache()


class Timer:
    def __init__(self, name, limit):
        self.name, self.limit = name, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.name}: PASS ({elapsed:.2f}s, limit {self.limit:.0f}s)")
            assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s ({elapsed:.2f}s)"
        return False


def test_criterion_01_golden_values(cache):
    with Timer("1 golden values", 1.0):
        for knot in HALF_KNOTS + FULL_KNOTS:
            assert h_coeff(0, knot, cache) == 1
        assert h_coeff_half(1, KnotSpec.half(1, 1), cache).is_zero
        assert h_coeff_half(1, KnotSpec.half(2, 1), cache) == -A(-8)
        trefoil_like = A(-4) + A(-12) - A(-16)  # 𝔮^-2 + 𝔮^-6 - 𝔮^-8
        assert jones_half(2, KnotSpec.half(2, 1), cache).value == trefoil_like
        assert jones_walsh(2, KnotSpec.half(2, 1), cache).value == trefoil_like
        assert jones_int(2, KnotSpec.full(1, 1), cache).value == A(4) + A(12) - A(16)


def test_criterion_02_c_prime_monomial(cache):
    with Timer("2 c'_{k,1} monomials", 1.0):
        for k in range(11):
            assert c_prime(k, 1, cache) == A(k * (k + 3), -1 if k & 1 else 1)


def test_criterion_03_route_agreement(cache):
    with Timer("3 route agreement N<=8", 120.0):
        for knot in HALF_KNOTS:
            table = coefficient_table(knot, 7, cache)
            for N in range(1, 9):
                theorem = jones_from_table(N, table, cache).value
                walsh = jones_walsh(N, knot, cache).value
                assert theorem == walsh, (str(knot), N)


def test_criterion_04_multisum_agreement(cache):
    with Timer("4 multi-sum = single-sum k<=10", 120.0):
        for k in range(11):
            for p in P_GRID:
                assert multisum_c_prime(k, p, cache) == c_prime(k, p, cache), (k, p)
            for m in (1, 2, 3):
                assert multisum_c_tilde(k, m, cache) == c_tilde_prime(k, 2 * m - 1, cache), (k, m)
            for j in range(k + 1):
                for p in P_GRID:
                    assert multisum_d(k, j, p, cache) == d_kjp(k, j, p, cache), (k, j, p)


def test_criterion_05_integrality(cache):
    with Timer("5 integrality k<=10", 60.0):
        for knot in HALF_KNOTS:
            for k in range(11):
                h = h_coeff_half(k, knot, cache)  # collapse must succeed
                assert all(e % 2 == 0 for e, _ in h.items()), (str(knot), k)


def test_criterion_06_skein_bridge(cache):
    with Timer("6 skein oracle bridge", 60.0):
        for k in range(9):
            for j in range(k + 1):
                for p in P_GRID:
                    lhs = LaurentFraction(cache.brace_fact(2 * k + 1)) * d_kjp(k, j, p, cache)
                    rhs = LaurentFraction(
                        cache.brace_fact(2 * j + 1) * twist_coeff_d(k, j, -4 * p, cache)
                    )
                    assert lhs == rhs, (k, j, p)
        for k in range(13):
            for j in range(k + 1):
                total = LaurentPoly.zero()
                for i in range(j, k + 1):
                    total = total + t_coeff(k, i, cache) * s_coeff(i, j, cache)
                assert total == (LaurentPoly.one() if j == k else LaurentPoly.zero())
        for k in range(13):
            for i in range(k):
                assert pairing_R_e(k, i, cache).is_zero
            diagonal = cache.brace_fact(2 * k + 1).exact_div(brace(1))
            if k & 1:
                diagonal = -diagonal
            assert pairing_R_e(k, k, cache) == diagonal


def test_criterion_07_bailey_machinery(cache):
    with Timer("7 Bailey machinery", 60.0):
        for pair in (unit_pair(cache), squared_pair(cache)):
            assert verify_bailey_pair(pair, 12, cache) == ()
            current = pair
            for _ in range(3):
                current = chain_step(current, cache)
                assert verify_bailey_pair(current, 12, cache) == ()
            for k in range(9):
                assert bailey_lemma_check(pair, k, cache)


def test_criterion_08_qcalc_identities(cache):
    with Timer("8 delta/binomial/block identities", 30.0):
        for a in range(21):
            for b in range(21):
                for c in range(abs(a - b), min(a + b, 20) + 1, 2):
                    delta = half_twist_delta(c, a, b)
                    assert delta * delta * framing_mu(a) * framing_mu(b) == framing_mu(c)
        for n in range(17):
            for i in range(n + 1):
                assert cache.qbinom_balanced(n, i) == A(-2 * i * (n - i)) * cache.qbinom(n, i)
        for N in range(1, 9):
            for k in range(N):
                sign = -1 if k & 1 else 1
                rhs = (
                    A(-2 * k * (k + 1), sign)
                    * cache.pochhammer(1 - N, k)
                    * cache.pochhammer(1 + N, k)
                )
                assert cache.cyclo_block(N, k) == rhs


def test_criterion_09_q_inversion(cache):
    with Timer("9 q-inversion of d", 30.0):
        for k in range(7):
            for j in range(k + 1):
                for p in (-2, -1, 1, 2):
                    lhs = d_kjp(k, j, p, cache).substitute_power(-1)
                    assert lhs == d_kjp(k, j, -p, cache), (k, j, p)


def test_criterion_10_end_to_end():
    with Timer("10 verify --suite all + JSON round-trip", 300.0):
        report = run_suite("all", VerifyGrid())
        failures = [r.check_id for r in report.results if not r.passed]
        assert report.ok, failures
        # the report bytes are those recorded for the benchmark's verify-all
        digests = json.loads(
            (Path(__file__).parents[1] / "perfbench" / "digests.json").read_text()
        )
        expected = digests["verify-all"]["verify --suite all --format json --jobs 1"]
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == expected
        rng = random.Random(12345)
        for _ in range(1000):
            poly = LaurentPoly(
                {
                    rng.randint(-300, 300): rng.randint(-(2**150), 2**150)
                    for _ in range(rng.randint(0, 25))
                }
            )
            assert poly_from_json(poly_to_json(poly)) == poly

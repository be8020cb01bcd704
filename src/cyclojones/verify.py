"""Verification suites: every module invariant, runnable over configured grids.

Each check aggregates one identity family over its grid and reports a
single pass/fail row; ordering is stable by check id (also under
parallel execution), and wall time and the per-check timings stay out
of the data payload so identical configurations produce byte-identical
reports.  One QSymbolCache serves a verify run (one per worker's group of
checks under --jobs), so c', d, t and the q-symbol tables are built once;
a check reads its group's cache from _GROUP_CACHE, set by _run_group.
"""

from __future__ import annotations

import json
import math
import os
import random
import tempfile
import time
from contextvars import ContextVar
from functools import partial

from . import bailey, cyclotomic, serialize, skein
from .laurent import LaurentFraction, LaurentPoly, cyclotomic_poly, lincomb
from .qcalc import (
    QSymbolCache,
    brace,
    brace_recip,
    bracket,
    framing_mu,
    half_twist_delta,
)
from .record import Record

_ONE = LaurentPoly.one()
_ZERO = LaurentPoly.zero()
_SEED = 28087
_RANDOM_OPS = 200
_BINOM_N = 16
_GROUP_CACHE: ContextVar[QSymbolCache] = ContextVar("verify_group_cache")


class VerifyGrid(Record):
    """The values a caller sets for the verification suites; every other
    bound is derived here or is a constant of its check."""

    max_k: int = 10
    max_n: int = 8
    p_values: tuple[int, ...] = (-3, -2, -1, 1, 2, 3)
    m_values: tuple[int, ...] = (1, 2, 3)

    @property
    def bailey_k(self) -> int:  # Bailey pair, chain and skein-basis checks
        return self.max_k + 2

    @property
    def bridge_k(self) -> int:  # Bailey-lemma, q-form and skein-bridge checks
        return min(self.max_k, 8)

    def half_knots(self):
        return [
            cyclotomic.KnotSpec.half(p, 2 * m - 1)
            for p in self.p_values
            for m in self.m_values
        ]

    def full_knots(self):
        return [
            cyclotomic.KnotSpec.full(p, r)
            for p in self.p_values
            for r in self.p_values
        ]


class CheckResult(Record):
    check_id: str
    params: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.check_id:<34} {self.params:<42} {self.detail}"


class VerificationReport(Record):
    suite: str
    results: tuple[CheckResult, ...]
    wall_time: float
    timings: tuple[float, ...] = ()  # seconds per check, in results order

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "checks": [
                {
                    "id": r.check_id,
                    "params": r.params,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in self.results
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":")) + "\n"


def _result(check_id: str, params: str, failures: list, total: int) -> CheckResult:
    if failures:
        sample = ", ".join(map(str, failures[:5]))
        return CheckResult(
            check_id, params, False, f"{len(failures)}/{total} failed: {sample}"
        )
    return CheckResult(check_id, params, True, f"{total} identities checked")


def _rand_poly(rng: random.Random, terms: int = 8, span: int = 40, bits: int = 64) -> LaurentPoly:
    data = {}
    for _ in range(rng.randint(0, terms)):
        data[rng.randint(-span, span)] = rng.getrandbits(bits) - (1 << (bits - 1))
    return LaurentPoly(data)


# -- laurent suite -----------------------------------------------------


def check_ring_axioms(grid: VerifyGrid) -> CheckResult:
    rng = random.Random(_SEED)
    failures, total = [], 0
    for trial in range(_RANDOM_OPS):
        a, b, c = (_rand_poly(rng) for _ in range(3))
        total += 4
        if a + b != b + a or a * b != b * a:
            failures.append(("commutativity", trial))
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            failures.append(("associativity", trial))
        if a * (b + c) != a * b + a * c:
            failures.append(("distributivity", trial))
        if not (a - a).is_zero:
            failures.append(("inverse", trial))
    return _result("laurent/ring-axioms", f"{_RANDOM_OPS} random triples", failures, total)


def check_exact_div_roundtrip(grid: VerifyGrid) -> CheckResult:
    rng = random.Random(_SEED + 1)
    failures, total = [], 0
    for trial in range(_RANDOM_OPS):
        a = _rand_poly(rng)
        b = _rand_poly(rng)
        if b.is_zero:
            b = _ONE + LaurentPoly.monomial(3)
        total += 1
        if (a * b).exact_div(b) != a:
            failures.append(trial)
    return _result(
        "laurent/exact-div-roundtrip", f"{_RANDOM_OPS} random pairs", failures, total
    )


def check_substitute_involution(grid: VerifyGrid) -> CheckResult:
    rng = random.Random(_SEED + 2)
    failures, total = [], 0
    for trial in range(_RANDOM_OPS):
        f, g = _rand_poly(rng), _rand_poly(rng)
        total += 2
        if f.substitute_power(-1).substitute_power(-1) != f:
            failures.append(("involution", trial))
        if (f * g).substitute_power(-1) != f.substitute_power(-1) * g.substitute_power(-1):
            failures.append(("homomorphism", trial))
    return _result(
        "laurent/substitute-involution", f"{_RANDOM_OPS} random pairs", failures, total
    )


def _rand_table(rng: random.Random) -> dict[int, int]:
    return {rng.randint(1, 12): rng.randint(1, 2) for _ in range(rng.randint(0, 3))}


def _phi_product(table: dict[int, int]) -> LaurentPoly:
    """prod Φ_d(A)^e, multiplied out here, not read from the fractions' memo."""
    return math.prod((cyclotomic_poly(d) ** e for d, e in table.items()), start=_ONE)


def check_fraction_equivalence(grid: VerifyGrid) -> CheckResult:
    rng = random.Random(_SEED + 3)
    failures, total = [], 0
    for trial in range(_RANDOM_OPS // 2):
        a, table, extra = _rand_poly(rng), _rand_table(rng), _rand_table(rng)
        x = LaurentFraction.over_cyclotomic(a, table)
        # same value over a wider table, a different representative
        wider = {d: table.get(d, 0) + extra.get(d, 0) for d in table.keys() | extra.keys()}
        y = LaurentFraction.over_cyclotomic(a * _phi_product(extra), wider)
        total += 3
        if not (x == x and x == y and y == x):
            failures.append(("equivalence", trial))
        if x + (-x) != LaurentFraction(_ZERO):
            failures.append(("inverse", trial))
        if (x * _phi_product(table)).to_poly() != a:
            failures.append(("collapse", trial))
    return _result(
        "laurent/fraction-equivalence", f"{total} fraction identities", failures, total
    )


def check_eval_ring_structure(grid: VerifyGrid) -> CheckResult:
    import mpmath

    rng = random.Random(_SEED + 4)
    failures, total = [], 0
    cases = [
        (_rand_poly(rng, terms=30, span=100, bits=256), _rand_poly(rng, terms=30, span=100, bits=256))
    ]
    cases += [(_rand_poly(rng), _rand_poly(rng)) for _ in range(10)]
    with mpmath.workdps(400):  # comparison arithmetic must not round below the evals
        tol = mpmath.mpf("1e-40")
        for trial, (f, g) in enumerate(cases):
            for k, n in ((1, 16), (3, 7), (5, 24)):
                total += 2
                fv, gv = f.eval_unit_root(k, n), g.eval_unit_root(k, n)
                if abs((f * g).eval_unit_root(k, n) - fv * gv) > tol:
                    failures.append(("mul", trial, k, n))
                if abs((f + g).eval_unit_root(k, n) - (fv + gv)) > tol:
                    failures.append(("add", trial, k, n))
    return _result("laurent/eval-ring-structure", "degree<=200, coeff<=2^256", failures, total)


# -- qcalc suite -------------------------------------------------------


def check_pascal(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for n in range(1, _BINOM_N + 1):
        for i in range(0, n + 1):
            total += 1
            lhs = cache.qbinom(n, i)
            rhs = cache.qbinom(n - 1, i - 1) + LaurentPoly.monomial(4 * i) * cache.qbinom(n - 1, i)
            if lhs != rhs:
                failures.append((n, i))
    return _result("qcalc/pascal", f"n <= {_BINOM_N}", failures, total)


def check_balanced_gaussian_bridge(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for n in range(0, _BINOM_N + 1):
        for i in range(0, n + 1):
            total += 1
            lhs = cache.qbinom_balanced(n, i)
            rhs = LaurentPoly.monomial(-2 * i * (n - i)) * cache.qbinom(n, i)
            if lhs != rhs:
                failures.append((n, i))
    return _result("qcalc/balanced-gaussian-bridge", f"n <= {_BINOM_N}", failures, total)


def check_cyclo_pochhammer(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for N in range(1, grid.max_n + 1):
        for k in range(0, N):
            total += 1
            lhs = cache.cyclo_block(N, k)
            rhs = (
                LaurentPoly.monomial(-2 * k * (k + 1), -1 if k & 1 else 1)
                * cache.pochhammer(1 - N, k)
                * cache.pochhammer(1 + N, k)
            )
            if lhs != rhs:
                failures.append((N, k))
    return _result("qcalc/cyclo-pochhammer", f"N <= {grid.max_n}", failures, total)


def check_delta_square(grid: VerifyGrid) -> CheckResult:
    failures, total = [], 0
    top = 20
    for a in range(top + 1):
        for b in range(top + 1):
            for c in range(abs(a - b), min(a + b, top) + 1, 2):
                total += 1
                delta = half_twist_delta(c, a, b)
                if delta * delta * framing_mu(a) * framing_mu(b) != framing_mu(c):
                    failures.append((a, b, c))
    return _result("qcalc/delta-square", f"admissible a,b,c <= {top}", failures, total)


def check_brace_bracket(grid: VerifyGrid) -> CheckResult:
    failures, total = [], 0
    for n in range(-30, 31):
        total += 1
        if brace(n) != brace(1) * bracket(n):
            failures.append(n)
    return _result("qcalc/brace-bracket", "|n| <= 30", failures, total)


# -- skein suite -------------------------------------------------------


def check_ts_inverse(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for k in range(grid.bailey_k + 1):
        for j in range(k + 1):
            total += 1
            acc = lincomb((skein.t_coeff(k, i, cache), skein.s_coeff(i, j, cache))
                          for i in range(j, k + 1))
            if acc != (_ONE if j == k else _ZERO):
                failures.append((k, j))
    return _result("skein/ts-inverse", f"k <= {grid.bailey_k}", failures, total)


def check_basis_expansion(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    top = min(grid.max_k, 10)
    es = [skein.chebyshev_e(i) for i in range(top + 1)]
    rs = [skein.r_basis(i) for i in range(top + 1)]
    failures, total = [], 0
    for k in range(top + 1):
        total += 2
        if skein.expand_in_basis(rs[k], es) != [skein.t_coeff(k, i, cache) for i in range(k + 1)]:
            failures.append(("t", k))
        if skein.expand_in_basis(es[k], rs) != [skein.s_coeff(k, j, cache) for j in range(k + 1)]:
            failures.append(("s", k))
    return _result("skein/basis-expansion", f"k <= {top}", failures, total)


def check_twist_inverse(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    top = min(grid.max_k, 10)
    failures, total = [], 0
    d = {(k, i, p): skein.twist_coeff_d(k, i, p, cache)
         for k in range(top + 1) for i in range(k + 1) for p in (1, -1)}
    for k in range(top + 1):
        for j in range(k + 1):
            total += 1
            acc = lincomb((d[k, i, 1], d[i, j, -1]) for i in range(j, k + 1))
            if acc != (_ONE if j == k else _ZERO):
                failures.append((k, j))
    return _result("skein/twist-inverse", f"k <= {top}", failures, total)


def check_pairing(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for k in range(grid.bailey_k + 1):
        for i in range(k):
            total += 1
            if not skein.pairing_R_e(k, i, cache).is_zero:
                failures.append(("orthogonality", k, i))
        total += 1
        expect = (brace_recip(1) * cache.brace_fact(2 * k + 1)).to_poly()
        if k & 1:
            expect = -expect
        if skein.pairing_R_e(k, k, cache) != expect:
            failures.append(("diagonal", k))
    return _result("skein/pairing", f"k <= {grid.bailey_k}", failures, total)


# -- cyclotomic suite --------------------------------------------------


def check_golden_values(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    A = LaurentPoly.monomial
    failures, total = [], 0
    half11 = cyclotomic.KnotSpec.half(1, 1)
    half21 = cyclotomic.KnotSpec.half(2, 1)
    full11 = cyclotomic.KnotSpec.full(1, 1)
    cases = [
        ("H1(K(1,1/2)) = 0", cyclotomic.h_coeff_half(1, half11, cache), _ZERO),
        ("H1(K(2,1/2)) = -q^-4", cyclotomic.h_coeff_half(1, half21, cache), -A(-8)),
        (
            "J'2(K(2,1/2)) theorem",
            cyclotomic.jones_half(2, half21, cache).value,
            A(-4) + A(-12) - A(-16),
        ),
        (
            "J'2(K(2,1/2)) walsh",
            cyclotomic.jones_walsh(2, half21, cache).value,
            A(-4) + A(-12) - A(-16),
        ),
        (
            "J'2(K(1,1)) = q^2+q^6-q^8",
            cyclotomic.jones_int(2, full11, cache).value,
            A(4) + A(12) - A(16),
        ),
    ]
    for knot in grid.half_knots() + grid.full_knots():
        cases.append((f"H0({knot}) = 1", cyclotomic.h_coeff(0, knot, cache), _ONE))
    for k in range(grid.max_k + 1):
        sign = -1 if k & 1 else 1
        cases.append((f"c'_{k},1 monomial", cyclotomic.c_prime(k, 1, cache), A(k * (k + 3), sign)))
    for name, got, expect in cases:
        total += 1
        if got != expect:
            failures.append(name)
    return _result("cyclotomic/golden", "pinned hand-derived values", failures, total)


def check_integrality(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for knot in grid.half_knots() + grid.full_knots():
        for k in range(grid.max_k + 1):
            total += 1
            try:
                cyclotomic.h_coeff(k, knot, cache)
            except Exception as exc:  # IntegralityFailure or collapse errors
                failures.append((str(knot), k, type(exc).__name__))
    return _result(
        "cyclotomic/integrality",
        f"k <= {grid.max_k}, {len(grid.half_knots()) + len(grid.full_knots())} knots",
        failures,
        total,
    )


def check_qform(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for k in range(grid.bridge_k + 1):
        for p in grid.p_values:
            total += 1
            if cyclotomic.c_prime_qform(k, p, cache) != cyclotomic.c_prime(k, p, cache):
                failures.append((k, p))
    return _result("cyclotomic/qform", f"k <= {grid.bridge_k}", failures, total)


def check_q_inversion(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    ps = [p for p in grid.p_values if abs(p) <= 2] or [-2, -1, 1, 2]
    for k in range(7):
        for j in range(k + 1):
            for p in ps:
                total += 1
                lhs = cyclotomic.d_kjp(k, j, p, cache).substitute_power(-1)
                if lhs != cyclotomic.d_kjp(k, j, -p, cache):
                    failures.append((k, j, p))
    return _result("cyclotomic/q-inversion", "k <= 6, |p| <= 2", failures, total)


def check_normalization(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for knot in grid.half_knots():
        total += 2
        if cyclotomic.jones_half(1, knot, cache).value != _ONE:
            failures.append(("theorem", str(knot)))
        if cyclotomic.jones_walsh(1, knot, cache).value != _ONE:
            failures.append(("walsh", str(knot)))
    for knot in grid.full_knots():
        total += 1
        if cyclotomic.jones_int(1, knot, cache).value != _ONE:
            failures.append(("int", str(knot)))
    # value at A=1 is asserted by JonesResult itself; exercise a sample
    for knot in grid.half_knots()[:3]:
        total += 1
        if cyclotomic.jones_half(min(3, grid.max_n), knot, cache).value.value_at_one() != 1:
            failures.append(("at-one", str(knot)))
    return _result("cyclotomic/normalization", "J'_1 = 1; J'(A=1) = 1", failures, total)


# -- bailey suite ------------------------------------------------------


def check_bailey_pairs(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for pair in (bailey.unit_pair(cache), bailey.squared_pair(cache)):
        total += 1
        report = bailey.verify_bailey_pair(pair, grid.bailey_k, cache)
        if not report.ok:
            failures.append((pair.label, report.failures))
    for shift in range(3):
        total += 1
        report = bailey.verify_bailey_pair(bailey.shifted_unit_pair(shift, cache), 8, cache)
        if not report.ok:
            failures.append((f"shifted({shift})", report.failures))
    return _result("bailey/pair-verification", f"K = {grid.bailey_k}", failures, total)


def check_chain_preservation(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for pair in (bailey.unit_pair(cache), bailey.squared_pair(cache)):
        current = pair
        for step in range(1, 4):
            current = bailey.chain_step(current, cache)
            total += 1
            report = bailey.verify_bailey_pair(current, grid.bailey_k, cache)
            if not report.ok:
                failures.append((pair.label, step, report.failures))
    return _result(
        "bailey/chain-preservation", f"3 iterations, K = {grid.bailey_k}", failures, total
    )


def check_bailey_lemma(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    pairs = [bailey.unit_pair(cache), bailey.squared_pair(cache)]
    pairs += [bailey.chain_step(p, cache) for p in pairs]
    pairs += [bailey.chain_step(p, cache) for p in pairs[2:]]
    for pair in pairs:
        total += grid.bridge_k + 1
        failures += [(pair.label, k) for k in bailey.bailey_lemma_failures(pair, grid.bridge_k, cache)]
    return _result("bailey/lemma", f"k <= {grid.bridge_k}, pairs + 2 iterates", failures, total)


def check_chain_counts(grid: VerifyGrid) -> CheckResult:
    failures, total = [], 0
    for top in range(9):
        for length in range(1, 6):
            total += 1
            chains = list(bailey.enumerate_chains(top, length))
            if len(chains) != bailey.chain_count(top, length):
                failures.append((top, length))
            if sorted(c.parts for c in chains) != [c.parts for c in chains]:
                failures.append(("order", top, length))
    return _result("bailey/chain-counts", "top <= 8, length <= 5", failures, total)


def check_inversion_identities(grid: VerifyGrid) -> CheckResult:
    # corrected (1/q;1/q)_k and Gaussian-binomial inversion, k <= 8
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for k in range(9):
        total += 1
        lhs = cache.pochhammer(1, k).substitute_power(-1)
        sign = -1 if k & 1 else 1
        rhs = LaurentPoly.monomial(-2 * k * (k + 1), sign) * cache.pochhammer(1, k)
        if lhs != rhs:
            failures.append(("pochhammer", k))
        for l in range(k + 1):
            total += 1
            inv = cache.qbinom(k, l).substitute_power(-1)
            if inv != LaurentPoly.monomial(4 * (l * l - l * k)) * cache.qbinom(k, l):
                failures.append(("binomial", k, l))
    return _result("bailey/inversion-identities", "k <= 8", failures, total)


# -- cross suite -------------------------------------------------------


def check_multisum_c_prime(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for k in range(grid.max_k + 1):
        for p in grid.p_values:
            total += 1
            if bailey.multisum_c_prime(k, p, cache) != cyclotomic.c_prime(k, p, cache):
                failures.append((k, p))
    return _result("cross/multisum-c-prime", f"k <= {grid.max_k}", failures, total)


def check_multisum_c_tilde(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for k in range(grid.max_k + 1):
        for m in grid.m_values:
            total += 1
            if bailey.multisum_c_tilde(k, m, cache) != cyclotomic.c_tilde_prime(
                k, 2 * m - 1, cache
            ):
                failures.append((k, m))
    return _result("cross/multisum-c-tilde", f"k <= {grid.max_k}", failures, total)


def check_multisum_d(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for k in range(grid.max_k + 1):
        for j in range(k + 1):
            for p in grid.p_values:
                total += 1
                if bailey.multisum_d(k, j, p, cache) != cyclotomic.d_kjp(k, j, p, cache):
                    failures.append((k, j, p))
    return _result("cross/multisum-d", f"k <= {grid.max_k}, j <= k", failures, total)


def check_route_agreement(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for knot in grid.half_knots():
        table = cyclotomic.coefficient_table(knot, grid.max_n - 1, cache)
        for N in range(1, grid.max_n + 1):
            total += 1
            theorem = cyclotomic.jones_from_table(N, table, cache).value
            walsh = cyclotomic.jones_walsh(N, knot, cache).value
            if theorem != walsh:
                failures.append((str(knot), N))
    return _result(
        "cross/route-agreement",
        f"N <= {grid.max_n}, {len(grid.half_knots())} knots",
        failures,
        total,
    )


def check_skein_bridge(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    for k in range(grid.bridge_k + 1):
        for j in range(k + 1):
            for p in grid.p_values:
                total += 1
                lhs = LaurentFraction(cache.brace_fact(2 * k + 1)) * cyclotomic.d_kjp(
                    k, j, p, cache
                )
                rhs = LaurentFraction(
                    cache.brace_fact(2 * j + 1) * skein.twist_coeff_d(k, j, -4 * p, cache)
                )
                if lhs != rhs:
                    failures.append((k, j, p))
    return _result("cross/skein-bridge", f"k <= {grid.bridge_k}", failures, total)


# -- io suite ----------------------------------------------------------


def check_json_roundtrip(grid: VerifyGrid) -> CheckResult:
    rng = random.Random(_SEED + 5)
    failures, total = [], 0
    for trial in range(1000):
        poly = _rand_poly(rng, terms=20, span=200, bits=128)
        total += 1
        if serialize.poly_from_json(serialize.poly_to_json(poly)) != poly:
            failures.append(trial)
    return _result("io/json-roundtrip", "1000 random polynomials", failures, total)


def check_cache_soundness(grid: VerifyGrid) -> CheckResult:
    cache = _GROUP_CACHE.get()
    failures, total = [], 0
    knot = cyclotomic.KnotSpec.half(2, 1)
    with tempfile.TemporaryDirectory() as tmp:
        store, values = serialize.CoeffCache(tmp), []
        for k in range(4):  # the knot's table grows by one entry a put
            values.append(cyclotomic.h_coeff(k, knot, cache))
            store.put(knot, k, values)
            total += 1
            got = store.get(knot, k)
            if got != values:
                failures.append(("roundtrip", k))
            elif store.should_spot_check() and got[k] != cyclotomic.h_coeff(k, knot, cache):
                failures.append(("spot-check", k))
    return _result("io/cache-soundness", "atomic write + digest + recompute", failures, total)


# -- registry ----------------------------------------------------------

SUITES: dict[str, tuple] = {
    "laurent": (
        check_ring_axioms,
        check_exact_div_roundtrip,
        check_substitute_involution,
        check_fraction_equivalence,
        check_eval_ring_structure,
    ),
    "qcalc": (
        check_pascal,
        check_balanced_gaussian_bridge,
        check_cyclo_pochhammer,
        check_delta_square,
        check_brace_bracket,
    ),
    "skein": (
        check_ts_inverse,
        check_basis_expansion,
        check_twist_inverse,
        check_pairing,
    ),
    "cyclotomic": (
        check_golden_values,
        check_integrality,
        check_qform,
        check_q_inversion,
        check_normalization,
    ),
    "bailey": (
        check_bailey_pairs,
        check_chain_preservation,
        check_bailey_lemma,
        check_chain_counts,
        check_inversion_identities,
    ),
    "cross": (
        check_multisum_c_prime,
        check_multisum_c_tilde,
        check_multisum_d,
        check_route_agreement,
        check_skein_bridge,
    ),
    "io": (
        check_json_roundtrip,
        check_cache_soundness,
    ),
}


def suite_checks(suite: str) -> list:
    if suite == "all":
        return [fn for name in SUITES for fn in SUITES[name]]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (want one of {', '.join(SUITES)} or all)")
    return list(SUITES[suite])


def _run_group(checks, grid: VerifyGrid) -> list[tuple[CheckResult, float]]:
    """Run checks in order on one new QSymbolCache, held in _GROUP_CACHE
    while they run: (result, seconds) each.  A check gets the grid alone, so
    a wrapper that forwards one argument (perfbench/layers.py) sees it."""
    token, timed = _GROUP_CACHE.set(QSymbolCache()), []
    try:
        for fn in checks:
            start = time.monotonic()
            timed.append((fn(grid), time.monotonic() - start))
        return timed
    finally:
        _GROUP_CACHE.reset(token)


def run_suite(suite: str, grid: VerifyGrid = VerifyGrid(), jobs: int = 1) -> VerificationReport:
    checks = suite_checks(suite)
    start = time.monotonic()
    # the pool starts all of its workers at once, so never ask for more than
    # there are checks or cores; the checks are dealt in order, one group per worker
    workers = min(jobs, len(checks), os.cpu_count() or 1)
    run = partial(_run_group, grid=grid)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run, [checks[i::workers] for i in range(workers)]))
    else:
        done = [run(checks)]
    timed = sorted((rt for group in done for rt in group), key=lambda rt: rt[0].check_id)
    return VerificationReport(
        suite,
        tuple(result for result, _ in timed),
        time.monotonic() - start,
        tuple(seconds for _, seconds in timed),
    )

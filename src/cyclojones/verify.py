"""Verification suites: every module invariant, runnable over configured grids.

Each check aggregates one identity family over its grid and reports a
single pass/fail row; ordering is stable by check id (also under
parallel execution), and wall time stays out of the data payload so
identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import mpmath

from . import bailey, cyclotomic, serialize, skein
from .laurent import LaurentFraction, LaurentPoly
from .qcalc import (
    QSymbolCache,
    brace,
    bracket,
    framing_mu,
    half_twist_delta,
)

_ONE = LaurentPoly.one()
_ZERO = LaurentPoly.zero()


@dataclass(frozen=True)
class VerifyGrid:
    """Parameter grids for the verification suites."""

    max_k: int = 10
    bridge_k: int = 8
    max_n: int = 8
    p_values: tuple[int, ...] = (-3, -2, -1, 1, 2, 3)
    r_values: tuple[int, ...] = (-3, -2, -1, 1, 2, 3)
    s_values: tuple[int, ...] = (1, 3, 5)
    m_values: tuple[int, ...] = (1, 2, 3)
    bailey_k: int = 12
    chain_steps: int = 3
    lemma_k: int = 8
    delta_max: int = 20
    binom_n: int = 16
    basis_k: int = 12
    random_polys: int = 1000
    random_ops: int = 200
    seed: int = 28087

    def half_knots(self):
        return [
            cyclotomic.KnotSpec.half(p, s)
            for p in self.p_values
            for s in self.s_values
        ]

    def full_knots(self):
        return [
            cyclotomic.KnotSpec.full(p, r)
            for p in self.p_values
            for r in self.r_values
        ]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    params: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.check_id:<34} {self.params:<42} {self.detail}"


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    results: tuple[CheckResult, ...]
    wall_time: float

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
    rng = random.Random(grid.seed)
    failures, total = [], 0
    for trial in range(grid.random_ops):
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
    return _result("laurent/ring-axioms", f"{grid.random_ops} random triples", failures, total)


def check_exact_div_roundtrip(grid: VerifyGrid) -> CheckResult:
    rng = random.Random(grid.seed + 1)
    failures, total = [], 0
    for trial in range(grid.random_ops):
        a = _rand_poly(rng)
        b = _rand_poly(rng)
        if b.is_zero:
            b = _ONE + LaurentPoly.monomial(3)
        total += 1
        if (a * b).exact_div(b) != a:
            failures.append(trial)
    return _result(
        "laurent/exact-div-roundtrip", f"{grid.random_ops} random pairs", failures, total
    )


def check_substitute_involution(grid: VerifyGrid) -> CheckResult:
    rng = random.Random(grid.seed + 2)
    failures, total = [], 0
    for trial in range(grid.random_ops):
        f, g = _rand_poly(rng), _rand_poly(rng)
        total += 2
        if f.substitute_power(-1).substitute_power(-1) != f:
            failures.append(("involution", trial))
        if (f * g).substitute_power(-1) != f.substitute_power(-1) * g.substitute_power(-1):
            failures.append(("homomorphism", trial))
    return _result(
        "laurent/substitute-involution", f"{grid.random_ops} random pairs", failures, total
    )


def check_fraction_equivalence(grid: VerifyGrid) -> CheckResult:
    rng = random.Random(grid.seed + 3)
    failures, total = [], 0
    for trial in range(grid.random_ops // 2):
        a = _rand_poly(rng)
        b = _rand_poly(rng, terms=4) + LaurentPoly.monomial(rng.randint(-3, 3))
        u = _rand_poly(rng, terms=3) + _ONE
        if b.is_zero or u.is_zero:
            continue
        x = LaurentFraction(a, b)
        y = LaurentFraction(a * u, b * u)  # same value, different representative
        total += 3
        if not (x == x and x == y and y == x):
            failures.append(("equivalence", trial))
        if x + (-x) != LaurentFraction(_ZERO):
            failures.append(("inverse", trial))
        if LaurentFraction(a * b, b).to_poly() != a:
            failures.append(("collapse", trial))
    return _result(
        "laurent/fraction-equivalence", f"{total} fraction identities", failures, total
    )


def check_eval_ring_structure(grid: VerifyGrid) -> CheckResult:
    rng = random.Random(grid.seed + 4)
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
    cache = QSymbolCache()
    failures, total = [], 0
    for n in range(1, grid.binom_n + 1):
        for i in range(0, n + 1):
            total += 1
            lhs = cache.qbinom(n, i)
            rhs = cache.qbinom(n - 1, i - 1) + LaurentPoly.monomial(4 * i) * cache.qbinom(n - 1, i)
            if lhs != rhs:
                failures.append((n, i))
    return _result("qcalc/pascal", f"n <= {grid.binom_n}", failures, total)


def check_balanced_gaussian_bridge(grid: VerifyGrid) -> CheckResult:
    cache = QSymbolCache()
    failures, total = [], 0
    for n in range(0, grid.binom_n + 1):
        for i in range(0, n + 1):
            total += 1
            lhs = cache.qbinom_balanced(n, i)
            rhs = LaurentPoly.monomial(-2 * i * (n - i)) * cache.qbinom(n, i)
            if lhs != rhs:
                failures.append((n, i))
    return _result("qcalc/balanced-gaussian-bridge", f"n <= {grid.binom_n}", failures, total)


def check_cyclo_pochhammer(grid: VerifyGrid) -> CheckResult:
    cache = QSymbolCache()
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
    top = grid.delta_max
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
    cache = QSymbolCache()
    failures, total = [], 0
    for k in range(grid.basis_k + 1):
        for j in range(k + 1):
            total += 1
            acc = _ZERO
            for i in range(j, k + 1):
                acc = acc + skein.t_coeff(k, i, cache) * skein.s_coeff(i, j, cache)
            if acc != (_ONE if j == k else _ZERO):
                failures.append((k, j))
    return _result("skein/ts-inverse", f"k <= {grid.basis_k}", failures, total)


def check_basis_expansion(grid: VerifyGrid) -> CheckResult:
    cache = QSymbolCache()
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
    cache = QSymbolCache()
    top = min(grid.max_k, 10)
    failures, total = [], 0
    for k in range(top + 1):
        for j in range(k + 1):
            total += 1
            acc = _ZERO
            for i in range(j, k + 1):
                acc = acc + skein.twist_coeff_d(k, i, 1, cache) * skein.twist_coeff_d(
                    i, j, -1, cache
                )
            if acc != (_ONE if j == k else _ZERO):
                failures.append((k, j))
    return _result("skein/twist-inverse", f"k <= {top}", failures, total)


def check_pairing(grid: VerifyGrid) -> CheckResult:
    cache = QSymbolCache()
    failures, total = [], 0
    for k in range(grid.basis_k + 1):
        for i in range(k):
            total += 1
            if not skein.pairing_R_e(k, i).is_zero:
                failures.append(("orthogonality", k, i))
        total += 1
        expect = cache.brace_fact(2 * k + 1).exact_div(brace(1))
        if k & 1:
            expect = -expect
        if skein.pairing_R_e(k, k) != expect:
            failures.append(("diagonal", k))
    return _result("skein/pairing", f"k <= {grid.basis_k}", failures, total)


# -- cyclotomic suite --------------------------------------------------


def check_golden_values(grid: VerifyGrid) -> CheckResult:
    cache = QSymbolCache()
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
    cache = QSymbolCache()
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
    cache = QSymbolCache()
    failures, total = [], 0
    for k in range(min(grid.max_k, 8) + 1):
        for p in grid.p_values:
            total += 1
            if cyclotomic.c_prime_qform(k, p, cache) != cyclotomic.c_prime(k, p, cache):
                failures.append((k, p))
    return _result("cyclotomic/qform", f"k <= {min(grid.max_k, 8)}", failures, total)


def check_q_inversion(grid: VerifyGrid) -> CheckResult:
    cache = QSymbolCache()
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
    cache = QSymbolCache()
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
    cache = QSymbolCache()
    failures, total = [], 0
    for pair in (bailey.unit_pair(), bailey.squared_pair()):
        total += 1
        report = bailey.verify_bailey_pair(pair, grid.bailey_k, cache)
        if not report.ok:
            failures.append((pair.label, report.failures))
    for shift in range(3):
        total += 1
        report = bailey.verify_bailey_pair(bailey.shifted_unit_pair(shift), 8, cache)
        if not report.ok:
            failures.append((f"shifted({shift})", report.failures))
    return _result("bailey/pair-verification", f"K = {grid.bailey_k}", failures, total)


def check_chain_preservation(grid: VerifyGrid) -> CheckResult:
    cache = QSymbolCache()
    failures, total = [], 0
    for pair in (bailey.unit_pair(), bailey.squared_pair()):
        current = pair
        for step in range(1, grid.chain_steps + 1):
            current = bailey.chain_step(current, cache)
            total += 1
            report = bailey.verify_bailey_pair(current, grid.bailey_k, cache)
            if not report.ok:
                failures.append((pair.label, step, report.failures))
    return _result(
        "bailey/chain-preservation",
        f"{grid.chain_steps} iterations, K = {grid.bailey_k}",
        failures,
        total,
    )


def check_bailey_lemma(grid: VerifyGrid) -> CheckResult:
    cache = QSymbolCache()
    failures, total = [], 0
    pairs = [bailey.unit_pair(), bailey.squared_pair()]
    pairs += [bailey.chain_step(p, cache) for p in pairs]
    pairs += [bailey.chain_step(p, cache) for p in pairs[2:]]
    for pair in pairs:
        for k in range(grid.lemma_k + 1):
            total += 1
            if not bailey.bailey_lemma_check(pair, k, cache):
                failures.append((pair.label, k))
    return _result("bailey/lemma", f"k <= {grid.lemma_k}, pairs + 2 iterates", failures, total)


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
    cache = QSymbolCache()
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
    cache = QSymbolCache()
    failures, total = [], 0
    for k in range(grid.max_k + 1):
        for p in grid.p_values:
            total += 1
            if bailey.multisum_c_prime(k, p, cache) != cyclotomic.c_prime(k, p, cache):
                failures.append((k, p))
    return _result("cross/multisum-c-prime", f"k <= {grid.max_k}", failures, total)


def check_multisum_c_tilde(grid: VerifyGrid) -> CheckResult:
    cache = QSymbolCache()
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
    cache = QSymbolCache()
    failures, total = [], 0
    for k in range(grid.max_k + 1):
        for j in range(k + 1):
            for p in grid.p_values:
                total += 1
                if bailey.multisum_d(k, j, p, cache) != cyclotomic.d_kjp(k, j, p, cache):
                    failures.append((k, j, p))
    return _result("cross/multisum-d", f"k <= {grid.max_k}, j <= k", failures, total)


def check_route_agreement(grid: VerifyGrid) -> CheckResult:
    cache = QSymbolCache()
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
    cache = QSymbolCache()
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
    rng = random.Random(grid.seed + 5)
    failures, total = [], 0
    for trial in range(grid.random_polys):
        poly = _rand_poly(rng, terms=20, span=200, bits=128)
        total += 1
        if serialize.poly_from_json(serialize.poly_to_json(poly)) != poly:
            failures.append(trial)
    return _result("io/json-roundtrip", f"{grid.random_polys} random polynomials", failures, total)


def check_cache_soundness(grid: VerifyGrid) -> CheckResult:
    cache = QSymbolCache()
    failures, total = [], 0
    knot = cyclotomic.KnotSpec.half(2, 1)
    with tempfile.TemporaryDirectory() as tmp:
        store = serialize.CoeffCache(tmp, check_every=1)
        for k in range(4):
            value = cyclotomic.h_coeff(k, knot, cache)
            store.put(knot, k, value)
            total += 1
            got = store.get(knot, k)
            if got != value:
                failures.append(("roundtrip", k))
            if store.should_spot_check() and got != cyclotomic.h_coeff(k, knot, cache):
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


def _run_check(args):
    fn, grid = args
    return fn(grid)


def run_suite(suite: str, grid: VerifyGrid | None = None, jobs: int = 1) -> VerificationReport:
    grid = grid or VerifyGrid()
    checks = suite_checks(suite)
    start = time.monotonic()
    # the pool starts all of its workers at once, so never ask for more
    # than there are checks or cores
    workers = min(jobs, len(checks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_check, [(fn, grid) for fn in checks]))
    else:
        results = [fn(grid) for fn in checks]
    results.sort(key=lambda r: r.check_id)
    return VerificationReport(suite, tuple(results), time.monotonic() - start)

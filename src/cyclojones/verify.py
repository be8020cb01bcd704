"""Verification suites: every module invariant, runnable over configured grids.

Each check aggregates one identity family over its grid and reports a
single pass/fail row; ordering is stable by check id (also under
parallel execution), and wall time and the per-check timings stay out
of the data payload so identical configurations produce byte-identical
reports.  A check is a generator that yields one (label, holds) pair per
identity; the _identities decorator tallies them into the row and is the
one reader of _GROUP_CACHE, the group's cache that _run_group sets.  One
QSymbolCache serves a verify run (one per worker's group of checks under
--jobs).  Its q-symbol tables and what it keeps by key (memo: q-binomials,
c', the c~' numerators and t) are built once per run; what it keeps for
the last key only (latest: the per-knot P' terms and skein recurrences,
and d's kernel and denominator and the twist kernel), which bounds its
memory, is built again whenever a check comes back to an earlier key.
d and H_k themselves are not kept: on the default grid d_kjp runs 890
times for 396 distinct (k, j, p), since cross/multisum-d,
cross/skein-bridge and cyclotomic/q-inversion each build it, and 273 of
the 867 h_coeff calls repeat an earlier (k, knot).
"""

from __future__ import annotations

import json
import math
import os
import random
import tempfile
import time
from contextvars import ContextVar
from functools import partial, wraps

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
_DELTA_TOP = 20  # largest color of the delta-square check
_GROUP_CACHE: ContextVar[QSymbolCache] = ContextVar("verify_group_cache")
# suite name -> its checks in definition order; _identities registers each check
SUITES: dict[str, tuple] = {}


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

    @property
    def twist_k(self) -> int:  # skein basis-expansion and twist-inverse checks
        return min(self.max_k, 10)

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


def _identities(check_id: str, params):
    """Make a check of a generator body(grid, cache) that yields one (label, holds)
    pair per identity.  The check, check(grid) -> CheckResult, is the one place
    that reads its group's cache from _GROUP_CACHE, counts the identities and
    reports the first failing labels; params is the row's text, or a function
    of the grid that gives it.  The check joins SUITES under the suite that
    prefixes check_id."""

    def decorate(body):
        @wraps(body)
        def check(grid: VerifyGrid) -> CheckResult:
            text = params(grid) if callable(params) else params
            failed, total = [], 0
            for total, (label, holds) in enumerate(body(grid, _GROUP_CACHE.get()), 1):
                if not holds:
                    failed.append(label)
            if failed:
                sample = ", ".join(map(str, failed[:5]))
                return CheckResult(check_id, text, False, f"{len(failed)}/{total} failed: {sample}")
            return CheckResult(check_id, text, True, f"{total} identities checked")

        suite = check_id.split("/")[0]
        SUITES[suite] = SUITES.get(suite, ()) + (check,)
        return check

    return decorate


def _rand_poly(rng: random.Random, terms: int = 8, span: int = 40, bits: int = 64) -> LaurentPoly:
    data = {}
    for _ in range(rng.randint(0, terms)):
        data[rng.randint(-span, span)] = rng.getrandbits(bits) - (1 << (bits - 1))
    return LaurentPoly(data)


# -- laurent suite -----------------------------------------------------


@_identities("laurent/ring-axioms", f"{_RANDOM_OPS} random triples")
def check_ring_axioms(grid: VerifyGrid, cache: QSymbolCache):
    rng = random.Random(_SEED)
    for trial in range(_RANDOM_OPS):
        a, b, c = (_rand_poly(rng) for _ in range(3))
        yield ("commutativity", trial), a + b == b + a and a * b == b * a
        yield ("associativity", trial), (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        yield ("distributivity", trial), a * (b + c) == a * b + a * c
        yield ("inverse", trial), (a - a).is_zero


@_identities("laurent/exact-div-roundtrip", f"{_RANDOM_OPS} random pairs")
def check_exact_div_roundtrip(grid: VerifyGrid, cache: QSymbolCache):
    rng = random.Random(_SEED + 1)
    for trial in range(_RANDOM_OPS):
        a = _rand_poly(rng)
        b = _rand_poly(rng)
        if b.is_zero:
            b = _ONE + LaurentPoly.monomial(3)
        yield trial, (a * b).exact_div(b) == a


@_identities("laurent/substitute-involution", f"{_RANDOM_OPS} random pairs")
def check_substitute_involution(grid: VerifyGrid, cache: QSymbolCache):
    rng = random.Random(_SEED + 2)
    for trial in range(_RANDOM_OPS):
        f, g = _rand_poly(rng), _rand_poly(rng)
        yield ("involution", trial), f.substitute_power(-1).substitute_power(-1) == f
        product = (f * g).substitute_power(-1)
        yield ("homomorphism", trial), product == f.substitute_power(-1) * g.substitute_power(-1)


def _rand_table(rng: random.Random) -> dict[int, int]:
    return {rng.randint(1, 12): rng.randint(1, 2) for _ in range(rng.randint(0, 3))}


def _phi_product(table: dict[int, int]) -> LaurentPoly:
    """prod Φ_d(A)^e, multiplied out here, not read from the fractions' memo."""
    return math.prod((cyclotomic_poly(d) ** e for d, e in table.items()), start=_ONE)


@_identities("laurent/fraction-equivalence", f"{3 * (_RANDOM_OPS // 2)} fraction identities")
def check_fraction_equivalence(grid: VerifyGrid, cache: QSymbolCache):
    rng = random.Random(_SEED + 3)
    for trial in range(_RANDOM_OPS // 2):
        a, table, extra = _rand_poly(rng), _rand_table(rng), _rand_table(rng)
        x = LaurentFraction.over_cyclotomic(a, table)
        # same value over a wider table, a different representative
        wider = {d: table.get(d, 0) + extra.get(d, 0) for d in table.keys() | extra.keys()}
        y = LaurentFraction.over_cyclotomic(a * _phi_product(extra), wider)
        yield ("equivalence", trial), x == x and x == y and y == x
        yield ("inverse", trial), x + (-x) == LaurentFraction(_ZERO)
        yield ("collapse", trial), (x * _phi_product(table)).to_poly() == a


@_identities("laurent/eval-ring-structure", "degree<=200, coeff<=2^256")
def check_eval_ring_structure(grid: VerifyGrid, cache: QSymbolCache):
    import mpmath

    rng = random.Random(_SEED + 4)
    wide = {"terms": 30, "span": 100, "bits": 256}
    cases = [(_rand_poly(rng, **wide), _rand_poly(rng, **wide))]
    cases += [(_rand_poly(rng), _rand_poly(rng)) for _ in range(10)]
    with mpmath.workdps(400):  # comparison arithmetic must not round below the evals
        tol = mpmath.mpf("1e-40")
        for trial, (f, g) in enumerate(cases):
            for k, n in ((1, 16), (3, 7), (5, 24)):
                fv, gv = f.eval_unit_root(k, n), g.eval_unit_root(k, n)
                yield ("mul", trial, k, n), abs((f * g).eval_unit_root(k, n) - fv * gv) <= tol
                yield ("add", trial, k, n), abs((f + g).eval_unit_root(k, n) - (fv + gv)) <= tol


# -- qcalc suite -------------------------------------------------------


@_identities("qcalc/pascal", f"n <= {_BINOM_N}")
def check_pascal(grid: VerifyGrid, cache: QSymbolCache):
    for n in range(1, _BINOM_N + 1):
        for i in range(0, n + 1):
            lhs = cache.qbinom(n, i)
            rhs = cache.qbinom(n - 1, i - 1) + LaurentPoly.monomial(4 * i) * cache.qbinom(n - 1, i)
            yield (n, i), lhs == rhs


@_identities("qcalc/balanced-gaussian-bridge", f"n <= {_BINOM_N}")
def check_balanced_gaussian_bridge(grid: VerifyGrid, cache: QSymbolCache):
    for n in range(0, _BINOM_N + 1):
        for i in range(0, n + 1):
            lhs = cache.qbinom_balanced(n, i)
            yield (n, i), lhs == LaurentPoly.monomial(-2 * i * (n - i)) * cache.qbinom(n, i)


@_identities("qcalc/cyclo-pochhammer", lambda grid: f"N <= {grid.max_n}")
def check_cyclo_pochhammer(grid: VerifyGrid, cache: QSymbolCache):
    for N in range(1, grid.max_n + 1):
        for k in range(0, N):
            lhs = cache.cyclo_block(N, k)
            unit = LaurentPoly.monomial(-2 * k * (k + 1), -1 if k & 1 else 1)
            rhs = unit * cache.pochhammer(1 - N, k) * cache.pochhammer(1 + N, k)
            yield (N, k), lhs == rhs


@_identities("qcalc/delta-square", f"admissible a,b,c <= {_DELTA_TOP}")
def check_delta_square(grid: VerifyGrid, cache: QSymbolCache):
    for a in range(_DELTA_TOP + 1):
        for b in range(_DELTA_TOP + 1):
            for c in range(abs(a - b), min(a + b, _DELTA_TOP) + 1, 2):
                delta = half_twist_delta(c, a, b)
                yield (a, b, c), delta * delta * framing_mu(a) * framing_mu(b) == framing_mu(c)


@_identities("qcalc/brace-bracket", "|n| <= 30")
def check_brace_bracket(grid: VerifyGrid, cache: QSymbolCache):
    for n in range(-30, 31):
        yield n, brace(n) == brace(1) * bracket(n)


# -- skein suite -------------------------------------------------------


@_identities("skein/ts-inverse", lambda grid: f"k <= {grid.bailey_k}")
def check_ts_inverse(grid: VerifyGrid, cache: QSymbolCache):
    for k in range(grid.bailey_k + 1):
        for j in range(k + 1):
            acc = lincomb((skein.t_coeff(k, i, cache), skein.s_coeff(i, j, cache))
                          for i in range(j, k + 1))
            yield (k, j), acc == (_ONE if j == k else _ZERO)


@_identities("skein/basis-expansion", lambda grid: f"k <= {grid.twist_k}")
def check_basis_expansion(grid: VerifyGrid, cache: QSymbolCache):
    top = grid.twist_k
    es = [skein.chebyshev_e(i) for i in range(top + 1)]
    rs = [skein.r_basis(i) for i in range(top + 1)]
    for k in range(top + 1):
        got = skein.expand_in_basis(rs[k], es)
        yield ("t", k), got == [skein.t_coeff(k, i, cache) for i in range(k + 1)]
        got = skein.expand_in_basis(es[k], rs)
        yield ("s", k), got == [skein.s_coeff(k, j, cache) for j in range(k + 1)]


@_identities("skein/twist-inverse", lambda grid: f"k <= {grid.twist_k}")
def check_twist_inverse(grid: VerifyGrid, cache: QSymbolCache):
    top = grid.twist_k
    d = {(k, i, p): skein.twist_coeff_d(k, i, p, cache)
         for k in range(top + 1) for i in range(k + 1) for p in (1, -1)}
    for k in range(top + 1):
        for j in range(k + 1):
            acc = lincomb((d[k, i, 1], d[i, j, -1]) for i in range(j, k + 1))
            yield (k, j), acc == (_ONE if j == k else _ZERO)


@_identities("skein/pairing", lambda grid: f"k <= {grid.bailey_k}")
def check_pairing(grid: VerifyGrid, cache: QSymbolCache):
    for k in range(grid.bailey_k + 1):
        for i in range(k):
            yield ("orthogonality", k, i), skein.pairing_R_e(k, i, cache).is_zero
        expect = (brace_recip(1) * cache.brace_fact(2 * k + 1)).to_poly()
        if k & 1:
            expect = -expect
        yield ("diagonal", k), skein.pairing_R_e(k, k, cache) == expect


# -- cyclotomic suite --------------------------------------------------


@_identities("cyclotomic/golden", "pinned hand-derived values")
def check_golden_values(grid: VerifyGrid, cache: QSymbolCache):
    A = LaurentPoly.monomial
    half11 = cyclotomic.KnotSpec.half(1, 1)
    half21 = cyclotomic.KnotSpec.half(2, 1)
    full11 = cyclotomic.KnotSpec.full(1, 1)
    j2 = A(-4) + A(-12) - A(-16)  # J'2(K(2,1/2)) = q^-2 + q^-6 - q^-8
    cases = [
        ("H1(K(1,1/2)) = 0", cyclotomic.h_coeff_half(1, half11, cache), _ZERO),
        ("H1(K(2,1/2)) = -q^-4", cyclotomic.h_coeff_half(1, half21, cache), -A(-8)),
        ("J'2(K(2,1/2)) theorem", cyclotomic.jones_half(2, half21, cache).value, j2),
        ("J'2(K(2,1/2)) walsh", cyclotomic.jones_walsh(2, half21, cache).value, j2),
        ("J'2(K(1,1)) = q^2+q^6-q^8", cyclotomic.jones_int(2, full11, cache).value,
         A(4) + A(12) - A(16)),
    ]
    for knot in grid.half_knots() + grid.full_knots():
        cases.append((f"H0({knot}) = 1", cyclotomic.h_coeff(0, knot, cache), _ONE))
    for k in range(grid.max_k + 1):
        sign = -1 if k & 1 else 1
        cases.append((f"c'_{k},1 monomial", cyclotomic.c_prime(k, 1, cache), A(k * (k + 3), sign)))
    for name, got, expect in cases:
        yield name, got == expect


@_identities("cyclotomic/integrality",
             lambda grid: f"k <= {grid.max_k}, {len(grid.half_knots() + grid.full_knots())} knots")
def check_integrality(grid: VerifyGrid, cache: QSymbolCache):
    for knot in grid.half_knots() + grid.full_knots():
        for k in range(grid.max_k + 1):
            try:
                cyclotomic.h_coeff(k, knot, cache)
            except Exception as exc:  # IntegralityFailure or collapse errors
                yield (str(knot), k, type(exc).__name__), False
            else:
                yield (str(knot), k), True


@_identities("cyclotomic/qform", lambda grid: f"k <= {grid.bridge_k}")
def check_qform(grid: VerifyGrid, cache: QSymbolCache):
    for k in range(grid.bridge_k + 1):
        for p in grid.p_values:
            yield (k, p), cyclotomic.c_prime_qform(k, p, cache) == cyclotomic.c_prime(k, p, cache)


@_identities("cyclotomic/q-inversion", "k <= 6, |p| <= 2")
def check_q_inversion(grid: VerifyGrid, cache: QSymbolCache):
    ps = [p for p in grid.p_values if abs(p) <= 2] or [-2, -1, 1, 2]
    for k in range(7):
        for j in range(k + 1):
            for p in ps:
                lhs = cyclotomic.d_kjp(k, j, p, cache).substitute_power(-1)
                yield (k, j, p), lhs == cyclotomic.d_kjp(k, j, -p, cache)


@_identities("cyclotomic/normalization", "J'_1 = 1; J'(A=1) = 1")
def check_normalization(grid: VerifyGrid, cache: QSymbolCache):
    for knot in grid.half_knots():
        yield ("theorem", str(knot)), cyclotomic.jones_half(1, knot, cache).value == _ONE
        yield ("walsh", str(knot)), cyclotomic.jones_walsh(1, knot, cache).value == _ONE
    for knot in grid.full_knots():
        yield ("int", str(knot)), cyclotomic.jones_int(1, knot, cache).value == _ONE
    # value at A=1 is asserted by JonesResult itself; exercise a sample
    for knot in grid.half_knots()[:3]:
        value = cyclotomic.jones_half(min(3, grid.max_n), knot, cache).value
        yield ("at-one", str(knot)), value.value_at_one() == 1


# -- bailey suite ------------------------------------------------------


@_identities("bailey/pair-verification", lambda grid: f"K = {grid.bailey_k}")
def check_bailey_pairs(grid: VerifyGrid, cache: QSymbolCache):
    for pair in (bailey.unit_pair(cache), bailey.squared_pair(cache)):
        failures = bailey.verify_bailey_pair(pair, grid.bailey_k, cache)
        yield (pair.label, failures), not failures
    for shift in range(3):
        failures = bailey.verify_bailey_pair(bailey.unit_pair(cache, 2 * shift + 2), 8, cache)
        yield (f"shifted({shift})", failures), not failures


@_identities("bailey/chain-preservation", lambda grid: f"3 iterations, K = {grid.bailey_k}")
def check_chain_preservation(grid: VerifyGrid, cache: QSymbolCache):
    for pair in (bailey.unit_pair(cache), bailey.squared_pair(cache)):
        current = pair
        for step in range(1, 4):
            current = bailey.chain_step(current, cache)
            failures = bailey.verify_bailey_pair(current, grid.bailey_k, cache)
            yield (pair.label, step, failures), not failures


@_identities("bailey/lemma", lambda grid: f"k <= {grid.bridge_k}, pairs + 2 iterates")
def check_bailey_lemma(grid: VerifyGrid, cache: QSymbolCache):
    pairs = [bailey.unit_pair(cache), bailey.squared_pair(cache)]
    pairs += [bailey.chain_step(p, cache) for p in pairs]
    pairs += [bailey.chain_step(p, cache) for p in pairs[2:]]
    for pair in pairs:
        failed = bailey.bailey_lemma_failures(pair, grid.bridge_k, cache)
        for k in range(grid.bridge_k + 1):
            yield (pair.label, k), k not in failed


@_identities("bailey/chain-counts", "top <= 8, length <= 5")
def check_chain_counts(grid: VerifyGrid, cache: QSymbolCache):
    # chains weighted by q^(k_1 + ... + k_{L-1}) are the partitions in a
    # (L - 1) x top box; at q = 1 the sum is C(top + L - 1, L - 1)
    for top in range(9):
        for length in range(1, 6):
            box = bailey.chain_sum(top, length, lambda a, b: LaurentPoly.monomial(4 * a))
            yield (top, length), box == cache.qbinom(top + length - 1, length - 1)


@_identities("bailey/inversion-identities", "k <= 8")
def check_inversion_identities(grid: VerifyGrid, cache: QSymbolCache):
    # corrected (1/q;1/q)_k and Gaussian-binomial inversion, k <= 8
    for k in range(9):
        lhs = cache.pochhammer(1, k).substitute_power(-1)
        sign = -1 if k & 1 else 1
        rhs = LaurentPoly.monomial(-2 * k * (k + 1), sign) * cache.pochhammer(1, k)
        yield ("pochhammer", k), lhs == rhs
        for l in range(k + 1):
            inv = cache.qbinom(k, l).substitute_power(-1)
            rhs = LaurentPoly.monomial(4 * (l * l - l * k)) * cache.qbinom(k, l)
            yield ("binomial", k, l), inv == rhs


# -- cross suite -------------------------------------------------------


@_identities("cross/multisum-c-prime", lambda grid: f"k <= {grid.max_k}")
def check_multisum_c_prime(grid: VerifyGrid, cache: QSymbolCache):
    for k in range(grid.max_k + 1):
        for p in grid.p_values:
            yield (k, p), bailey.multisum_c_prime(k, p, cache) == cyclotomic.c_prime(k, p, cache)


@_identities("cross/multisum-c-tilde", lambda grid: f"k <= {grid.max_k}")
def check_multisum_c_tilde(grid: VerifyGrid, cache: QSymbolCache):
    for k in range(grid.max_k + 1):
        for m in grid.m_values:
            multisum = bailey.multisum_c_tilde(k, m, cache)
            yield (k, m), multisum == cyclotomic.c_tilde_prime(k, 2 * m - 1, cache)


@_identities("cross/multisum-d", lambda grid: f"k <= {grid.max_k}, j <= k")
def check_multisum_d(grid: VerifyGrid, cache: QSymbolCache):
    for k in range(grid.max_k + 1):
        for j in range(k + 1):
            for p in grid.p_values:
                multisum = bailey.multisum_d(k, j, p, cache)
                yield (k, j, p), multisum == cyclotomic.d_kjp(k, j, p, cache)


@_identities("cross/route-agreement",
             lambda grid: f"N <= {grid.max_n}, {len(grid.half_knots())} knots")
def check_route_agreement(grid: VerifyGrid, cache: QSymbolCache):
    for knot in grid.half_knots():
        table = cyclotomic.coefficient_table(knot, grid.max_n - 1, cache)
        for N in range(1, grid.max_n + 1):
            theorem = cyclotomic.jones_from_table(N, table, cache).value
            walsh = cyclotomic.jones_walsh(N, knot, cache).value
            yield (str(knot), N), theorem == walsh


@_identities("cross/skein-bridge", lambda grid: f"k <= {grid.bridge_k}")
def check_skein_bridge(grid: VerifyGrid, cache: QSymbolCache):
    for k in range(grid.bridge_k + 1):
        for j in range(k + 1):
            for p in grid.p_values:
                d = cyclotomic.d_kjp(k, j, p, cache)
                lhs = LaurentFraction(cache.brace_fact(2 * k + 1)) * d
                twist = skein.twist_coeff_d(k, j, -4 * p, cache)
                rhs = LaurentFraction(cache.brace_fact(2 * j + 1) * twist)
                yield (k, j, p), lhs == rhs


# -- io suite ----------------------------------------------------------


@_identities("io/json-roundtrip", "1000 random polynomials")
def check_json_roundtrip(grid: VerifyGrid, cache: QSymbolCache):
    rng = random.Random(_SEED + 5)
    for trial in range(1000):
        poly = _rand_poly(rng, terms=20, span=200, bits=128)
        yield trial, serialize.poly_from_json(serialize.poly_to_json(poly)) == poly


@_identities("io/cache-soundness", "atomic write + digest + recompute")
def check_cache_soundness(grid: VerifyGrid, cache: QSymbolCache):
    knot = cyclotomic.KnotSpec.half(2, 1)
    with tempfile.TemporaryDirectory() as tmp:
        store, values = serialize.CoeffCache(tmp), []
        for k in range(4):  # the knot's table grows by one entry a put
            values.append(cyclotomic.h_coeff(k, knot, cache))
            store.put(knot, k, values)
            got = store.get(knot, k)
            if got != values:
                yield ("roundtrip", k), False
            else:
                spot = store.should_spot_check()
                yield ("spot-check", k), not spot or got[k] == cyclotomic.h_coeff(k, knot, cache)


# -- running -----------------------------------------------------------


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

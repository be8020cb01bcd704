"""Quantum-integer combinatorics over Z[A^{±1}].

Conventions (balanced variable 𝔮 = A^2, q-series variable q = A^4):

    [n]  = (𝔮^n - 𝔮^-n)/(𝔮 - 𝔮^-1)        {n} = 𝔮^n - 𝔮^-n
    [n]! = [n][n-1]...[1]                  {n}! analogous
    (x;q)_k = prod_{j=0}^{k-1} (1 - x q^j)     with (x;q)_0 = 1

The Pochhammer product runs j = 0..k-1 (so the q-binomial degenerates
correctly at k = 0); the balanced binomial [n i] equals {n}!/({i}!{n-i}!).
"""

from __future__ import annotations

import functools
import math
from operator import add

from .errors import DivisionByZeroDenominator, IndexOutOfRange, NotAdmissible
from .laurent import LaurentFraction, LaurentPoly, _binomial_quotient, binomial_table

_ONE = LaurentPoly.one()
_ZERO = LaurentPoly.zero()
_ONE_FRACTION = LaurentFraction(_ONE)
MAX_TABLE_INDEX = 4096  # largest index a QSymbolCache tabulates


def brace(n: int) -> LaurentPoly:
    """{n} = 𝔮^n - 𝔮^-n; odd in n, zero at n = 0."""
    if n == 0:
        return _ZERO
    return LaurentPoly.from_lattice(-2 * abs(n), 4 * abs(n), [-1, 1] if n > 0 else [1, -1])


def bracket(n: int) -> LaurentPoly:
    """[n] = {n}/{1} = 𝔮^(n-1) + 𝔮^(n-3) + ... + 𝔮^(1-n); [0] = 0, odd in n."""
    if n < 0:
        return -bracket(-n)
    return LaurentPoly({2 * (n - 1 - 2 * j): 1 for j in range(n)})


@functools.cache
def brace_recip(n: int) -> LaurentFraction:
    """1/{n} for n >= 1: {n} = A^(-2n) (A^(4n) - 1) = A^(-2n) prod_{d | 4n} Φ_d(A)."""
    return LaurentFraction.over_cyclotomic(LaurentPoly.monomial(2 * n), binomial_table(4 * n))


def braces_recip(lo: int, hi: int) -> LaurentFraction:
    """1/({lo}{lo+1}...{hi}) for 1 <= lo <= hi."""
    return math.prod(map(brace_recip, range(lo, hi + 1)))


def brace_quotient(num: LaurentPoly, lo: int, hi: int) -> LaurentPoly:
    """num/({lo}{lo+1}...{hi}) for 1 <= lo <= hi, with no fraction built: A^(2(lo+...+hi))
    times num over A^(4j) - 1, j = hi..lo, one prefix-sum pass each (laurent._binomial_quotient).
    Inexact, it raises the RemainderNonzero of (braces_recip(lo, hi) * num).to_poly()."""
    quot = _binomial_quotient(num, tuple((4 * j, 1) for j in range(hi, lo - 1, -1)))
    if quot is None:
        return (braces_recip(lo, hi) * num).to_poly()
    return LaurentPoly.monomial((hi - lo + 1) * (hi + lo)) * quot


@functools.cache
def _one_minus_q_recip(t: int) -> LaurentFraction:
    """1/(1 - q^t) for t != 0: 1 - A^(4t) is -prod_{d | 4t} Φ_d(A) for t > 0
    and A^(4t) prod_{d | -4t} Φ_d(A) for t < 0."""
    if t == 0:
        raise DivisionByZeroDenominator("1 - q^0 is zero")
    unit = LaurentPoly.monomial(-4 * t) if t < 0 else LaurentPoly.from_int(-1)
    return LaurentFraction.over_cyclotomic(unit, binomial_table(4 * abs(t)))


def framing_mu(i: int) -> LaurentPoly:
    """Twist-map eigenvalue on the i-th Chebyshev element: (-1)^i A^(i^2+2i)."""
    if i < 0:
        raise IndexOutOfRange("framing factor needs i >= 0")
    return LaurentPoly.monomial(i * (i + 2), -1 if i & 1 else 1)


def framing_mu_power(i: int, p: int) -> LaurentPoly:
    """mu_i^p for any integer p (mu_i is a unit monomial)."""
    if i < 0:
        raise IndexOutOfRange("framing factor needs i >= 0")
    return LaurentPoly.monomial(p * i * (i + 2), -1 if (i & 1) and (p & 1) else 1)


def half_twist_delta(c: int, a: int, b: int) -> LaurentPoly:
    """Scalar by which a half twist acts on strands a, b fused into c.

    delta(c;a,b) = (-1)^((a+b-c)/2) A^(-a-b+c-(a^2+b^2-c^2)/2) for an
    admissible triple; NotAdmissible otherwise.
    """
    if min(a, b, c) < 0 or (a + b + c) % 2 or not abs(a - b) <= c <= a + b:
        raise NotAdmissible(f"triple (a={a}, b={b}, c={c}) is not admissible")
    sign = -1 if ((a + b - c) // 2) & 1 else 1
    exponent = -a - b + c - (a * a + b * b - c * c) // 2
    return LaurentPoly.monomial(exponent, sign)


class QSymbolCache:
    """Per-instance memo tables for the factorial/Pochhammer symbols.

    Cached values are structurally equal to recomputed ones; correctness
    never depends on a hit.  One cache serves a whole verify run (one per
    worker group under --jobs) and one a CLI request.  The tables grow
    without a lock: give each thread its own.

    Every product table grows by one rule, _prefix: factor(1)...factor(n)
    for each n asked for, up to ``MAX_TABLE_INDEX``, under the key
    "brace_fact", "bracket_fact", "brace_fact_recip", ("pochhammer", a),
    ("pochhammer_recip", a) or ("cyclo_block", N).  ``coefficients`` keeps
    computed values by owner; only memo and latest write it.  memo keeps one
    per key for as long as the cache: ("qbinom", n, t) qbinom for
    0 < t = min(i, n - i), ("t_coeff", k, i) skein.t_coeff for i < k (both
    divided by brace_quotient, with no fraction built), ("c_prime", k, p) cyclotomic.c_prime
    and ("_c_num", k, s) cyclotomic._c_num.  latest keeps the last
    key only: "r_basis" (k) skein.pairing_R_e, "d_kernel" (k, j)
    cyclotomic._d_num, "twist_kernel" (k, j) skein.twist_coeff_d and "knot"
    (p, s), a dict of the signed terms "P'" of cyclotomic._p_terms and the
    "diagonals", a basis.BasisChange, of cyclotomic.h_coeff_half.  No hit
    ever changes a result.
    """

    def __init__(self) -> None:
        self._products: dict = {}
        self._qbinom_balanced: dict[int, list[LaurentPoly]] = {0: [_ONE]}
        self.coefficients: dict = {}

    def _check(self, n: int) -> None:
        if n > MAX_TABLE_INDEX:
            raise IndexOutOfRange(f"index {n} exceeds cache bound {MAX_TABLE_INDEX}")

    def _prefix(self, key, n: int, factor, one=_ONE):
        """factor(1) * ... * factor(n), kept under key with every shorter prefix."""
        self._check(n)
        table = self._products.setdefault(key, [one])
        while len(table) <= n:
            table.append(table[-1] * factor(len(table)))
        return table[n]

    def memo(self, key, build):
        """build() for key, kept in coefficients for as long as the cache."""
        value = self.coefficients.get(key)
        if value is None:
            value = self.coefficients[key] = build()
        return value

    def latest(self, name: str, key, build):
        """build() for key, kept in coefficients under name for the last key only."""
        if self.coefficients.get(name, (None,))[0] != key:
            self.coefficients[name] = (key, build())
        return self.coefficients[name][1]

    def brace_fact(self, n: int) -> LaurentPoly:
        """{n}! with {0}! = 1."""
        if n < 0:
            raise IndexOutOfRange("factorial needs n >= 0")
        return self._prefix("brace_fact", n, brace)

    def bracket_fact(self, n: int) -> LaurentPoly:
        """[n]! with [0]! = 1."""
        if n < 0:
            raise IndexOutOfRange("factorial needs n >= 0")
        return self._prefix("bracket_fact", n, bracket)

    def brace_fact_ratio(self, n: int, m: int) -> LaurentPoly:
        """{n}!/{m}! = {n}{n-1}...{m+1} for n >= m >= 0."""
        if not 0 <= m <= n:
            raise IndexOutOfRange(f"factorial ratio needs 0 <= m <= n, got {n}, {m}")
        self._check(n)
        out = _ONE
        for j in range(m + 1, n + 1):
            out = out * brace(j)
        return out

    def pochhammer(self, a: int, k: int) -> LaurentPoly:
        """(q^a; q)_k = prod_{j=0}^{k-1} (1 - q^(a+j))."""
        if k < 0:
            raise IndexOutOfRange("Pochhammer length must be >= 0")
        return self._prefix(
            ("pochhammer", a), k, lambda t: _ONE - LaurentPoly.monomial(4 * (a + t - 1))
        )

    def brace_fact_recip(self, n: int) -> LaurentFraction:
        """1/{n}! with the denominator in cyclotomic-factored form."""
        if n < 0:
            raise IndexOutOfRange("factorial needs n >= 0")
        return self._prefix("brace_fact_recip", n, brace_recip, _ONE_FRACTION)

    def pochhammer_recip(self, a: int, k: int) -> LaurentFraction:
        """1/(q^a; q)_k with the denominator in cyclotomic-factored form.

        DivisionByZeroDenominator when the window a..a+k-1 contains 0.
        """
        if k < 0:
            raise IndexOutOfRange("Pochhammer length must be >= 0")
        return self._prefix(
            ("pochhammer_recip", a), k, lambda t: _one_minus_q_recip(a + t - 1), _ONE_FRACTION
        )

    def pochhammer_ratio(self, a: int, k: int, j: int) -> LaurentPoly:
        """(q^a;q)_k / (q^a;q)_j = (q^(a+j);q)_(k-j) for k >= j."""
        if not 0 <= j <= k:
            raise IndexOutOfRange(f"Pochhammer ratio needs 0 <= j <= k, got {k}, {j}")
        return self.pochhammer(a + j, k - j)

    def qbinom(self, n: int, i: int) -> LaurentPoly:
        """Gaussian binomial (q;q)_n/((q;q)_i (q;q)_{n-i}); 0 out of range.

        A factorial quotient, independent of the q-Pascal rule behind
        qbinom_balanced: (q^(n-t+1);q)_t, t = min(i, n - i), over
        (q;q)_t = (-1)^t A^(t(t+1)) {t}!, divided by brace_quotient."""
        if n < 0:
            raise IndexOutOfRange("q-binomial needs n >= 0")
        if i < 0 or i > n:
            return _ZERO
        t = min(i, n - i)
        if t == 0:
            return _ONE

        def build() -> LaurentPoly:
            rising = (_ONE - LaurentPoly.monomial(4 * m) for m in range(n - t + 1, n + 1))
            unit = LaurentPoly.monomial(-t * (t + 1), -1 if t & 1 else 1)
            return unit * brace_quotient(math.prod(rising, start=_ONE), 1, t)

        return self.memo(("qbinom", n, t), build)

    def qbinom_balanced(self, n: int, i: int) -> LaurentPoly:
        """Balanced binomial [n i] = {n}!/({i}!{n-i}!); 0 out of range.

        [n i] = A^(-2i(n-i)) [n i]_q at q = A^4.  The Gaussian binomials
        [m t]_q are stepped up from the nearest stored row below n on the
        polynomials' own coefficient lists (LaurentPoly.lattice, base
        -2t(m-t), stride 4), by the q-Pascal rule
        [m t]_q = [m-1 t]_q + q^(m-t) [m-1 t-1]_q, one slice add each; row n
        adopts its lists through LaurentPoly.from_lattice.  Only the rows
        asked for are kept, and no list of a stepping-stone row outlives the
        call.  Each row is symmetric, so only i <= n/2 is stored.
        """
        if n < 0:
            raise IndexOutOfRange("balanced binomial needs n >= 0")
        if i < 0 or i > n:
            return _ZERO
        rows = self._qbinom_balanced
        row = rows.get(n)
        if row is None:
            self._check(n)
            start = max(m for m in rows if m < n)
            # every coefficient of [m t]_q is positive: a stored row's list
            # covers its whole lattice, and no zero enters one
            dense = [poly.lattice()[2] for poly in rows[start]]
            for m in range(start + 1, n + 1):
                prev, dense = dense, [[1]]
                for t in range(1, m // 2 + 1):
                    # [m-1 t] lies in the stored half of row m-1 unless t = m/2
                    gauss = (prev[t] if t < len(prev) else prev[m - 1 - t]) + [0] * t
                    gauss[m - t :] = map(add, gauss[m - t :], prev[t - 1])
                    dense.append(gauss)
            row = rows[n] = [
                LaurentPoly.from_lattice(-2 * t * (n - t), 4, gauss)
                for t, gauss in enumerate(dense)
            ]
        return row[min(i, n - i)]

    def cyclo_block(self, N: int, k: int) -> LaurentPoly:
        """The cyclotomic expansion block {N+k}!/({N-1-k}!{N}) = prod_{j=N-k..N+k, j != N} {j},
        without division: row N starts at 1 and step k multiplies by {N-k}{N+k}; rows are kept."""
        if N < 1:
            raise IndexOutOfRange("color N must be >= 1")
        if not 0 <= k <= N - 1:
            raise IndexOutOfRange(f"cyclotomic block needs 0 <= k < N, got k={k}, N={N}")
        return self._prefix(("cyclo_block", N), k, lambda t: brace(N - t) * brace(N + t))

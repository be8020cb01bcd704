"""Cyclotomic expansion coefficients H_k and colored Jones polynomials.

Double twist knots come in two families: K(p, r) with p and r full
twist regions, and K(p, s/2) with an odd number s of half twists in the
second region.  For both, the normalized colored Jones polynomial has
the cyclotomic expansion

    J'_N = sum_{k=0}^{N-1} H_k * {N+k}!/({N-1-k}!{N})

with H_k in Z[𝔮^{±1}].  This module computes H_k by the single-sum
coefficient formulas (c', c~', d) and assembles J'_N along two
independent routes whose exact agreement is a correctness certificate.

Every sum is accumulated over one explicit common denominator and
collapsed with a single exact division — the one diagnostic site.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CacheMismatch, IndexOutOfRange, IntegralityFailure, RemainderNonzero
from .laurent import LaurentFraction, LaurentPoly
from .qcalc import QSymbolCache, brace

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()


@dataclass(frozen=True)
class FullTwists:
    """Twist region with r full twists (r nonzero)."""

    r: int

    def __post_init__(self) -> None:
        if self.r == 0:
            raise ValueError("full twist count r must be nonzero")


@dataclass(frozen=True)
class HalfTwists:
    """Twist region with s half twists (s odd; s = 2m - 1)."""

    s: int

    def __post_init__(self) -> None:
        if self.s % 2 == 0:
            raise ValueError("half twist count s must be odd")

    @property
    def m(self) -> int:
        return (self.s + 1) // 2


@dataclass(frozen=True)
class KnotSpec:
    """A double twist knot: p full twists plus a second twist region."""

    p: int
    region: FullTwists | HalfTwists

    def __post_init__(self) -> None:
        if self.p == 0:
            raise ValueError("twist count p must be nonzero")

    @classmethod
    def full(cls, p: int, r: int) -> KnotSpec:
        return cls(p, FullTwists(r))

    @classmethod
    def half(cls, p: int, s: int) -> KnotSpec:
        return cls(p, HalfTwists(s))

    @property
    def is_half(self) -> bool:
        return isinstance(self.region, HalfTwists)

    def label(self) -> str:
        if isinstance(self.region, HalfTwists):
            return f"K({self.p}, {self.region.s}/2)"
        return f"K({self.p}, {self.region.r})"

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True)
class CoeffEntry:
    k: int
    h: LaurentPoly
    checks: frozenset[str]


@dataclass(frozen=True)
class CoeffTable:
    """Verified H_k coefficients of one knot, with check provenance."""

    knot: KnotSpec
    entries: tuple[CoeffEntry, ...]
    max_k: int

    def __post_init__(self) -> None:
        if len(self.entries) != self.max_k + 1:
            raise ValueError("coefficient table must cover k = 0..max_k")
        if self.entries[0].h != _ONE:
            raise ValueError("H_0 must equal 1")
        for entry in self.entries:
            if any(e % 2 for e, _ in entry.h.items()):
                raise ValueError(f"H_{entry.k} has odd A-exponents")

    def h(self, k: int) -> LaurentPoly:
        return self.entries[k].h


@dataclass(frozen=True)
class JonesResult:
    """One colored Jones value together with the route that produced it."""

    knot: KnotSpec
    N: int
    value: LaurentPoly
    route: str

    def __post_init__(self) -> None:
        if self.value.value_at_one() != 1:
            raise ValueError("normalized invariant must evaluate to 1 at A = 1")


# -- single-sum coefficients ------------------------------------------


def _c_num(k: int, twist_exp: int, alternating: bool, cache: QSymbolCache) -> LaurentPoly:
    """Common numerator kernel over the denominator {2k+1}!:

        {k}! * sum_l (±1)^l A^(twist_exp * l(l+1)) {2l+1} [2k+1 over k-l]
    """
    total = _ZERO
    for l in range(k + 1):
        sign = -1 if alternating and l & 1 else 1
        term = (
            LaurentPoly.monomial(twist_exp * l * (l + 1), sign)
            * brace(2 * l + 1)
            * cache.qbinom_balanced(2 * k + 1, k - l)
        )
        total = total + term
    return cache.brace_fact(k) * total


def c_prime(k: int, p: int, cache: QSymbolCache | None = None) -> LaurentPoly:
    """c'_{k,p} = {k}! sum_l (-1)^l 𝔮^(2pl(l+1)) {2l+1}/({k+l+1}!{k-l}!).

    The sum collapses to a genuine Laurent polynomial; a collapse failure
    (RemainderNonzero) would signal a formula transcription error.
    """
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    if p == 0:
        raise ValueError("twist count p must be nonzero")
    cache = cache or QSymbolCache()
    return _c_num(k, 4 * p, True, cache).exact_div(cache.brace_fact(2 * k + 1))


def c_tilde_prime(k: int, s: int, cache: QSymbolCache | None = None) -> LaurentFraction:
    """c~'_{k,s/2} = {k}! sum_l 𝔮^(sl(l+1)) {2l+1}/({k+l+1}!{k-l}!).

    Not a polynomial in general; {k}! times the value is.
    """
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    if s % 2 == 0:
        raise ValueError("half twist count s must be odd")
    cache = cache or QSymbolCache()
    return LaurentFraction(_c_num(k, 2 * s, False, cache), cache.brace_fact(2 * k + 1))


def _d_num(k: int, j: int, p: int, cache: QSymbolCache) -> LaurentPoly:
    """Numerator of d_{k,j,p} over the denominator {2k+2}!{k-j}!."""
    total = _ZERO
    for i in range(j, k + 1):
        sign = -1 if (i + j) & 1 else 1
        term = (
            LaurentPoly.monomial(-4 * p * i * (i + 2), sign)
            * brace(2 * i + 2)
            * cache.brace_fact(i + 1 + j)
            * cache.qbinom_balanced(2 * k + 2, k - i)
            * cache.brace_fact_ratio(k - j, i - j)
        )
        total = total + term
    return total


def d_kjp(k: int, j: int, p: int, cache: QSymbolCache | None = None) -> LaurentFraction:
    """d_{k,j,p} = sum_{i=j}^{k} (-1)^(i+j) 𝔮^(-2pi(i+2))
                   {2i+2}{i+1+j}!/({k+i+2}!{k-i}!{i-j}!).

    {k-j}! times the value is a Laurent polynomial.
    """
    if not 0 <= j <= k:
        raise IndexOutOfRange(f"d coefficient needs 0 <= j <= k, got k={k}, j={j}")
    if p == 0:
        raise ValueError("twist count p must be nonzero")
    cache = cache or QSymbolCache()
    den = cache.brace_fact(2 * k + 2) * cache.brace_fact(k - j)
    return LaurentFraction(_d_num(k, j, p, cache), den)


# -- cyclotomic coefficients ------------------------------------------


def _require_even(poly: LaurentPoly, what: str) -> LaurentPoly:
    for e, _ in poly.items():
        if e % 2:
            raise IntegralityFailure(
                f"{what} has odd A-exponent {e} (not in Z[𝔮^±1])",
                LaurentFraction(poly),
            )
    return poly


def h_coeff_half(k: int, knot: KnotSpec, cache: QSymbolCache | None = None) -> LaurentPoly:
    """H_k(K(p, s/2)) = (-1)^k sum_{j=0}^{k} d_{k,j,p} c'_{j,p} c~'_{j,s/2}.

    The fraction sum must collapse into Z[𝔮^{±1}]; IntegralityFailure
    (carrying the residual fraction) is a release-blocking diagnostic.
    """
    if not isinstance(knot.region, HalfTwists):
        raise TypeError("h_coeff_half needs a HalfTwists knot")
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    cache = cache or QSymbolCache()
    p, s = knot.p, knot.region.s
    # common denominator {2k+2}!{k}!{2k+1}! across the j-sum
    num = _ZERO
    for j in range(k + 1):
        term = (
            _d_num(k, j, p, cache)
            * c_prime(j, p, cache)
            * _c_num(j, 2 * s, False, cache)
            * cache.brace_fact_ratio(k, k - j)
            * cache.brace_fact_ratio(2 * k + 1, 2 * j + 1)
        )
        num = num + term
    if k & 1:
        num = -num
    den = cache.brace_fact(2 * k + 2) * cache.brace_fact(k) * cache.brace_fact(2 * k + 1)
    try:
        value = num.exact_div(den)
    except RemainderNonzero as exc:
        raise IntegralityFailure(
            f"H_{k}({knot}) did not collapse to a Laurent polynomial",
            LaurentFraction(num, den),
        ) from exc
    return _require_even(value, f"H_{k}({knot})")


def h_coeff_int(k: int, knot: KnotSpec, cache: QSymbolCache | None = None) -> LaurentPoly:
    """H_k(K(p, r)) = (-1)^k c'_{k,p} c'_{k,r}."""
    if not isinstance(knot.region, FullTwists):
        raise TypeError("h_coeff_int needs a FullTwists knot")
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    cache = cache or QSymbolCache()
    value = c_prime(k, knot.p, cache) * c_prime(k, knot.region.r, cache)
    if k & 1:
        value = -value
    return _require_even(value, f"H_{k}({knot})")


def h_coeff(k: int, knot: KnotSpec, cache: QSymbolCache | None = None) -> LaurentPoly:
    """H_k for either knot family."""
    if isinstance(knot.region, HalfTwists):
        return h_coeff_half(k, knot, cache)
    return h_coeff_int(k, knot, cache)


def coefficient_table(
    knot: KnotSpec,
    max_k: int,
    cache: QSymbolCache | None = None,
    cross_check: bool = False,
    store=None,
) -> CoeffTable:
    """Verified H_0..H_max_k for one knot.

    Every entry passes the integrality collapse; with cross_check the
    multi-sum route is also required to agree (c', c~' and d for half
    knots; both c' factors for integer knots) and recorded in the
    entry's check set.

    With a store (a serialize.CoeffCache, or anything with its get, put
    and should_spot_check), each H_k is read from it; a miss is computed
    and put, and a hit the store picks for a spot check is recomputed,
    raising CacheMismatch on any difference.
    """
    cache = cache or QSymbolCache()
    entries = []
    for k in range(max_k + 1):
        h = None if store is None else store.get(knot, k)
        if h is None:
            h = h_coeff(k, knot, cache)
            if store is not None:
                store.put(knot, k, h)
        elif store.should_spot_check() and h_coeff(k, knot, cache) != h:
            raise CacheMismatch(f"cache entry for {knot} k={k} disagrees with recomputation")
        # cache provenance stays out of the entry checks: identical
        # configurations must serialize byte-identically, hit or miss
        checks = {"integrality"}
        if cross_check:
            _multisum_check(knot, k, cache)
            checks.add("multisum")
        entries.append(CoeffEntry(k, h, frozenset(checks)))
    return CoeffTable(knot, tuple(entries), max_k)


def _multisum_check(knot: KnotSpec, k: int, cache: QSymbolCache) -> None:
    from . import bailey

    p = knot.p
    if bailey.multisum_c_prime(k, p, cache) != c_prime(k, p, cache):
        raise IntegralityFailure(f"multi-sum c' mismatch at k={k}, p={p}")
    if isinstance(knot.region, HalfTwists):
        s = knot.region.s
        if s >= 1:
            multi = bailey.multisum_c_tilde(k, (s + 1) // 2, cache)
        else:
            # A -> A^-1 maps c~'_{k,-s/2} to (-1)^k c~'_{k,s/2}
            multi = bailey.multisum_c_tilde(k, (1 - s) // 2, cache).substitute_power(-1)
            if k & 1:
                multi = -multi
        if multi != c_tilde_prime(k, s, cache):
            raise IntegralityFailure(f"multi-sum c~' mismatch at k={k}, s={s}")
        for j in range(k + 1):
            if bailey.multisum_d(k, j, p, cache) != d_kjp(k, j, p, cache):
                raise IntegralityFailure(f"multi-sum d mismatch at k={k}, j={j}, p={p}")
    else:
        r = knot.region.r
        if bailey.multisum_c_prime(k, r, cache) != c_prime(k, r, cache):
            raise IntegralityFailure(f"multi-sum c' mismatch at k={k}, r={r}")


# -- colored Jones polynomials ----------------------------------------


def jones_half(N: int, knot: KnotSpec, cache: QSymbolCache | None = None) -> JonesResult:
    """J'_N via the cyclotomic expansion: sum_k H_k {N+k}!/({N-1-k}!{N})."""
    if N < 1:
        raise IndexOutOfRange("color N must be >= 1")
    if not isinstance(knot.region, HalfTwists):
        raise TypeError("jones_half needs a HalfTwists knot")
    cache = cache or QSymbolCache()
    return jones_from_table(N, coefficient_table(knot, N - 1, cache), cache)


def jones_from_table(N: int, table: CoeffTable, cache: QSymbolCache | None = None) -> JonesResult:
    """Assemble J'_N from precomputed H_k (needs max_k >= N-1)."""
    if N < 1:
        raise IndexOutOfRange("color N must be >= 1")
    if table.max_k < N - 1:
        raise IndexOutOfRange(f"table covers k <= {table.max_k}, need {N - 1}")
    cache = cache or QSymbolCache()
    total = _ZERO
    for k in range(N):
        total = total + table.h(k) * cache.cyclo_block(N, k)
    return JonesResult(table.knot, N, total, "theorem")


def jones_int(N: int, knot: KnotSpec, cache: QSymbolCache | None = None) -> JonesResult:
    """J'_N(K(p, r)) = sum_k (-1)^k c'_{k,p} c'_{k,r} {N+k}!/({N-1-k}!{N})."""
    if N < 1:
        raise IndexOutOfRange("color N must be >= 1")
    if not isinstance(knot.region, FullTwists):
        raise TypeError("jones_int needs a FullTwists knot")
    cache = cache or QSymbolCache()
    return jones_from_table(N, coefficient_table(knot, N - 1, cache), cache)


def jones_walsh(N: int, knot: KnotSpec, cache: QSymbolCache | None = None) -> JonesResult:
    """J'_N via the twist-prefactor route:

        𝔮^(-2p(N^2-1)) sum_k (-1)^k c'_{k,p} c~'_{k,s/2} {N+k}!/({N-1-k}!{N})

    Shares only the c'/c~' single sums with jones_half; the assembly is
    disjoint, so exact agreement of the two routes is a strong check.
    """
    if N < 1:
        raise IndexOutOfRange("color N must be >= 1")
    if not isinstance(knot.region, HalfTwists):
        raise TypeError("jones_walsh needs a HalfTwists knot")
    cache = cache or QSymbolCache()
    p, s = knot.p, knot.region.s
    # common denominator {2N-1}! across the k-sum
    num = _ZERO
    for k in range(N):
        term = (
            c_prime(k, p, cache)
            * _c_num(k, 2 * s, False, cache)
            * cache.brace_fact_ratio(2 * N - 1, 2 * k + 1)
            * cache.cyclo_block(N, k)
        )
        if k & 1:
            term = -term
        num = num + term
    total = num.exact_div(cache.brace_fact(2 * N - 1))
    prefactor = LaurentPoly.monomial(-4 * p * (N * N - 1))
    return JonesResult(knot, N, prefactor * total, "walsh")


def c_prime_qform(k: int, p: int, cache: QSymbolCache | None = None) -> LaurentPoly:
    """c'_{k,p} rearranged through q-Pochhammer symbols:

        (-1)^k q^((k^2+3k)/4) sum_l (-1)^l q^(l(l+1)p + l(l-1)/2)
            (1 - q^(2l+1)) (q;q)_k / ((q;q)_{k+l+1} (q;q)_{k-l})

    Must agree exactly with c_prime — a regression identity between the
    brace form and the Pochhammer form.
    """
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    if p == 0:
        raise ValueError("twist count p must be nonzero")
    cache = cache or QSymbolCache()
    # common denominator (q;q)_{2k+1}
    total = _ZERO
    for l in range(k + 1):
        a_exp = 4 * l * (l + 1) * p + 2 * l * (l - 1)
        term = (
            LaurentPoly.monomial(a_exp, -1 if l & 1 else 1)
            * (_ONE - LaurentPoly.monomial(4 * (2 * l + 1)))
            * cache.qbinom(2 * k + 1, k - l)
        )
        total = total + term
    collapsed = (cache.pochhammer(1, k) * total).exact_div(cache.pochhammer(1, 2 * k + 1))
    prefactor = LaurentPoly.monomial(k * (k + 3), -1 if k & 1 else 1)
    return prefactor * collapsed

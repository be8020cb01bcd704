"""Bailey pairs, chain iteration, and the multi-sum coefficient forms.

A Bailey pair relative to x = q^x_exp is a pair of sequences related by

    beta_k = sum_{j=0}^{k} alpha_j / ((q;q)_{k-j} (xq;q)_{k+j})

The chain step alpha'_k = x^k q^(k^2) alpha_k,
beta'_k = sum_j x^j q^(j^2) beta_j / (q;q)_{k-j} produces a new pair;
iterating it yields the multi-sum closed forms for the cyclotomic
coefficients — the second computation route, and the one that makes
integrality visible (Gaussian binomials and monomials only).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb
from collections.abc import Callable, Iterator

from .errors import IndexOutOfRange
from .laurent import LaurentFraction, LaurentPoly
from .qcalc import QSymbolCache

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()


@dataclass(frozen=True)
class BaileyPair:
    """Sequences (alpha, beta) with the parameter x = q^x_exp.

    The defining relation is not assumed: verify_bailey_pair checks it
    index by index.
    """

    alpha: Callable[[int], LaurentFraction]
    beta: Callable[[int], LaurentFraction]
    x_exp: int
    label: str


def unit_pair() -> BaileyPair:
    """The classical unit pair relative to x = q:

        alpha_k = (-1)^k q^(k(3k+1)/2) (1 - q^(2k+1))/(1 - q)
        beta_k  = 1/(q;q)_k
    """
    cache = QSymbolCache()

    @functools.cache
    def alpha(k: int) -> LaurentFraction:
        num = LaurentPoly.monomial(2 * k * (3 * k + 1), -1 if k & 1 else 1) * (
            _ONE - LaurentPoly.monomial(4 * (2 * k + 1))
        )
        return LaurentFraction(num, _ONE - LaurentPoly.monomial(4))

    @functools.cache
    def beta(k: int) -> LaurentFraction:
        return LaurentFraction(_ONE, cache.pochhammer(1, k))

    return BaileyPair(alpha, beta, 1, "unit")


def squared_pair() -> BaileyPair:
    """The pair with squared Pochhammer beta, relative to x = q:

        alpha_k = q^(k^2) (1 - q^(2k+1))/(1 - q),  beta_k = 1/(q;q)_k^2
    """
    cache = QSymbolCache()

    @functools.cache
    def alpha(k: int) -> LaurentFraction:
        num = LaurentPoly.monomial(4 * k * k) * (
            _ONE - LaurentPoly.monomial(4 * (2 * k + 1))
        )
        return LaurentFraction(num, _ONE - LaurentPoly.monomial(4))

    @functools.cache
    def beta(k: int) -> LaurentFraction:
        poch = cache.pochhammer(1, k)
        return LaurentFraction(_ONE, poch * poch)

    return BaileyPair(alpha, beta, 1, "squared")


def shifted_unit_pair(shift: int) -> BaileyPair:
    """Unit-type pair relative to x = q^(2*shift+2):

        alpha_l = (-1)^l q^(l^2 + (2shift+2)l + l(l-1)/2)
                  (1 - q^(2l+2shift+2)) (q;q)_{2shift+l+1}
                  / ((q;q)_l (q;q)_{2shift+2})
        beta_l  = 1/(q;q)_l

    This is the internal verification path behind the multi-sum form of
    the d coefficients.
    """
    if shift < 0:
        raise IndexOutOfRange("shift must be >= 0")
    cache = QSymbolCache()
    x_exp = 2 * shift + 2

    @functools.cache
    def alpha(l: int) -> LaurentFraction:
        q_exp = l * l + x_exp * l + l * (l - 1) // 2
        num = (
            LaurentPoly.monomial(4 * q_exp, -1 if l & 1 else 1)
            * (_ONE - LaurentPoly.monomial(4 * (2 * l + x_exp)))
            * cache.pochhammer(1, 2 * shift + l + 1)
        )
        den = cache.pochhammer(1, l) * cache.pochhammer(1, x_exp)
        return LaurentFraction(num, den)

    @functools.cache
    def beta(l: int) -> LaurentFraction:
        return LaurentFraction(_ONE, cache.pochhammer(1, l))

    return BaileyPair(alpha, beta, x_exp, f"shifted-unit({shift})")


def beta_from_alpha(pair: BaileyPair, k: int, cache: QSymbolCache | None = None) -> LaurentFraction:
    """Right-hand side of the defining relation at index k."""
    cache = cache or QSymbolCache()
    a = pair.x_exp + 1  # (xq;q) = (q^(x_exp+1);q)
    total = LaurentFraction(_ZERO)
    for j in range(k + 1):
        ratio = cache.pochhammer_ratio(1, k, k - j) * cache.pochhammer_ratio(
            a, 2 * k, k + j
        )
        total = total + pair.alpha(j) * LaurentFraction(ratio)
    return total * LaurentFraction(
        _ONE, cache.pochhammer(1, k) * cache.pochhammer(a, 2 * k)
    )


@dataclass(frozen=True)
class PairReport:
    """Outcome of checking the defining relation for k = 0..max_index."""

    label: str
    max_index: int
    failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_bailey_pair(
    pair: BaileyPair, K: int, cache: QSymbolCache | None = None
) -> PairReport:
    """Exact check of beta_k = sum_j alpha_j/((q;q)_{k-j}(xq;q)_{k+j})
    for every k <= K; failures are data, not exceptions."""
    cache = cache or QSymbolCache()
    failures = tuple(
        k for k in range(K + 1) if beta_from_alpha(pair, k, cache) != pair.beta(k)
    )
    return PairReport(pair.label, K, failures)


def chain_step(pair: BaileyPair, cache: QSymbolCache | None = None) -> BaileyPair:
    """One Bailey chain step (same x):

        alpha'_k = x^k q^(k^2) alpha_k
        beta'_k  = sum_j x^j q^(j^2) beta_j / (q;q)_{k-j}
    """
    cache = cache or QSymbolCache()
    x_exp = pair.x_exp

    @functools.cache
    def alpha(k: int) -> LaurentFraction:
        return pair.alpha(k) * LaurentFraction(
            LaurentPoly.monomial(4 * (x_exp * k + k * k))
        )

    @functools.cache
    def beta(k: int) -> LaurentFraction:
        total = LaurentFraction(_ZERO)
        for j in range(k + 1):
            weight = LaurentPoly.monomial(4 * (x_exp * j + j * j))
            total = total + pair.beta(j) * LaurentFraction(
                weight, cache.pochhammer(1, k - j)
            )
        return total

    return BaileyPair(alpha, beta, x_exp, f"chain({pair.label})")


def bailey_lemma_check(pair: BaileyPair, k: int, cache: QSymbolCache | None = None) -> bool:
    """Exact check of the special Bailey lemma at index k:

        sum_j alpha'_j/((q;q)_{k-j}(xq;q)_{k+j})
            = sum_j x^j q^(j^2)/(q;q)_{k-j} *
              sum_i alpha_i/((q;q)_{j-i}(xq;q)_{j+i})

    Both sides are finite double sums in the pair's alpha alone.
    """
    if k < 0:
        raise IndexOutOfRange("index must be >= 0")
    cache = cache or QSymbolCache()
    chained = chain_step(pair, cache)
    lhs = beta_from_alpha(chained, k, cache)
    rhs = LaurentFraction(_ZERO)
    for j in range(k + 1):
        weight = LaurentPoly.monomial(4 * (pair.x_exp * j + j * j))
        rhs = rhs + beta_from_alpha(pair, j, cache) * LaurentFraction(
            weight, cache.pochhammer(1, k - j)
        )
    return lhs == rhs


@dataclass(frozen=True)
class Chain:
    """Nonincreasing chain of summation indices, top element first."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("chain must have at least one part")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("chain parts must be nonincreasing")
        if self.parts[-1] < 0:
            raise ValueError("chain parts must be nonnegative")

    @property
    def top(self) -> int:
        return self.parts[0]

    def ascending(self) -> tuple[int, ...]:
        """(k_1, ..., k_L), smallest index first."""
        return tuple(reversed(self.parts))


def _descending_tails(bound: int, length: int) -> Iterator[tuple[int, ...]]:
    if length == 0:
        yield ()
        return
    for v in range(bound + 1):
        for rest in _descending_tails(v, length - 1):
            yield (v,) + rest


def enumerate_chains(top: int, length: int) -> Iterator[Chain]:
    """All chains top = k_L >= ... >= k_1 >= 0, lexicographically.

    Count is C(top + length - 1, length - 1).
    """
    if top < 0:
        raise IndexOutOfRange("chain top must be >= 0")
    if length < 1:
        raise ValueError("chain length must be >= 1")
    for tail in _descending_tails(top, length - 1):
        yield Chain((top,) + tail)


def chain_count(top: int, length: int) -> int:
    """Closed form for the chain count (stars and bars)."""
    return comb(top + length - 1, length - 1)


def _chain_sum(
    top: int,
    length: int,
    step_a_exp: Callable[[int, int], int],
    cache: QSymbolCache,
    beta_weight: Callable[[int], LaurentPoly] | None = None,
) -> LaurentPoly:
    """sum over chains of prod_{i=1}^{L-1} A^step_a_exp(k_i, k_{i+1})
    [k_{i+1} over k_i]_q, each chain optionally weighted by
    beta_weight(k_1)."""
    total = _ZERO
    for chain in enumerate_chains(top, length):
        ks = chain.ascending()
        term = _ONE if beta_weight is None else beta_weight(ks[0])
        for a, b in zip(ks, ks[1:]):
            term = term * LaurentPoly.monomial(step_a_exp(a, b)) * cache.qbinom(b, a)
        total = total + term
    return total


def multisum_c_prime(k: int, p: int, cache: QSymbolCache | None = None) -> LaurentPoly:
    """Multi-sum form of c'_{k,p} (manifestly in Z[𝔮^{±1}]):

        p > 0: (-1)^k q^(k(k+3)/4) sum prod q^(k_i^2+k_i)   [k_{i+1} over k_i]_q
        p < 0:        q^(-k(k+3)/4) sum prod q^(-k_i k_{i+1}-k_i) [..]_q

    over chains k = k_{|p|} >= ... >= k_1 >= 0.
    """
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    if p == 0:
        raise ValueError("twist count p must be nonzero")
    cache = cache or QSymbolCache()
    if p > 0:
        body = _chain_sum(k, p, lambda a, b: 4 * (a * a + a), cache)
        return LaurentPoly.monomial(k * (k + 3), -1 if k & 1 else 1) * body
    body = _chain_sum(k, -p, lambda a, b: 4 * (-a * b - a), cache)
    return LaurentPoly.monomial(-k * (k + 3)) * body


def multisum_c_tilde(k: int, m: int, cache: QSymbolCache | None = None) -> LaurentFraction:
    """Multi-sum form of c~'_{k,s/2} for s = 2m - 1, m >= 1:

        (-1)^k q^(k(k+3)/4) sum (1/(q;q)_{k_1})
            prod q^(k_i^2+k_i) [k_{i+1} over k_i]_q

    {k}! times the value is manifestly a Laurent polynomial.
    """
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    if m < 1:
        raise ValueError("multi-sum form needs m >= 1 (s = 2m - 1 positive)")
    cache = cache or QSymbolCache()
    num = _chain_sum(
        k,
        m,
        lambda a, b: 4 * (a * a + a),
        cache,
        beta_weight=lambda k1: cache.pochhammer_ratio(1, k, k1),
    )
    num = LaurentPoly.monomial(k * (k + 3), -1 if k & 1 else 1) * num
    return LaurentFraction(num, cache.pochhammer(1, k))


def multisum_d(k: int, j: int, p: int, cache: QSymbolCache | None = None) -> LaurentFraction:
    """Multi-sum form of d_{k,j,p}, over chains with top k - j:

        p > 0: (-1)^(k-j) q^((j+1)(j-k)-pj(j+2)) (1/(q;q)_{k-j})
                   sum prod q^(-k_i k_{i+1}-(2j+2)k_i) [k_{i+1} over k_i]_q
        p < 0: q^((k(k+3)-j(j+3))/2+|p|j(j+2)) (1/(q;q)_{k-j})
                   sum prod q^(k_i^2+(2j+2)k_i) [k_{i+1} over k_i]_q

    The chain weight carries the full x^{k_i} q^{k_i^2} with x = q^{2j+2};
    a weight of q^{k_i^2+k_i} (as if x = q) breaks exactness for |p| >= 2.
    """
    if not 0 <= j <= k:
        raise IndexOutOfRange(f"d coefficient needs 0 <= j <= k, got k={k}, j={j}")
    if p == 0:
        raise ValueError("twist count p must be nonzero")
    cache = cache or QSymbolCache()
    top = k - j
    x_exp = 2 * j + 2
    if p > 0:
        body = _chain_sum(top, p, lambda a, b: 4 * (-a * b - x_exp * a), cache)
        sign = -1 if top & 1 else 1
        prefactor = LaurentPoly.monomial(4 * ((j + 1) * (j - k) - p * j * (j + 2)), sign)
    else:
        body = _chain_sum(top, -p, lambda a, b: 4 * (a * a + x_exp * a), cache)
        prefactor = LaurentPoly.monomial(
            2 * (k * (k + 3) - j * (j + 3)) + 4 * (-p) * j * (j + 2)
        )
    return LaurentFraction(prefactor * body, cache.pochhammer(1, top))

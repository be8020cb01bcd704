"""Bailey pairs, chain iteration, and the multi-sum coefficient forms.

A Bailey pair relative to x = q^x_exp is a pair of sequences related by

    beta_k = sum_{j=0}^{k} alpha_j / ((q;q)_{k-j} (xq;q)_{k+j})

The chain step alpha'_k = x^k q^(k^2) alpha_k,
beta'_k = sum_j x^j q^(j^2) beta_j / (q;q)_{k-j} produces a new pair
(the Bailey lemma, checked as the pair check of a chained pair);
iterating it from the unit pairs (unit_pair, one family in x) yields the
multi-sum closed forms for the cyclotomic
coefficients — the second computation route, and the one that makes
integrality visible (Gaussian binomials and monomials only).  chain_sum
sums them over chains level by level, one chain step a level, so no
chain is ever listed.  multisum_agreement compares them with the single
sums of cyclotomic as Laurent polynomials, for verify's cross/multisum-*
checks and for coeffs --cross-check alike.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import cyclotomic
from .errors import IndexOutOfRange, RemainderNonzero
from .laurent import LaurentFraction, LaurentPoly, lincomb
from .qcalc import QSymbolCache, brace_quotient
from .record import Record

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()


class BaileyPair(Record):
    """Sequences (alpha, beta) with the parameter x = q^x_exp.

    The defining relation is not assumed: verify_bailey_pair checks it
    index by index.
    """

    alpha: Callable[[int], LaurentFraction]
    beta: Callable[[int], LaurentFraction]
    x_exp: int
    label: str


def unit_pair(cache: QSymbolCache, x_exp: int = 1) -> BaileyPair:
    """The unit pair relative to x = q^x_exp, x_exp >= 1:

        alpha_l = (-1)^l q^(l^2 + x_exp l + l(l-1)/2) (1 - q^(2l+x_exp))
                  (q^(l+1);q)_{x_exp-1} / (q;q)_{x_exp}
        beta_l  = 1/(q;q)_l

    At x_exp = 1 this is the classical pair, alpha_l = (-1)^l q^(l(3l+1)/2)
    (1 - q^(2l+1))/(1 - q); at x_exp = 2j + 2 it underlies multisum_d.
    """
    if x_exp < 1:
        raise IndexOutOfRange("x_exp must be >= 1")

    @functools.cache
    def alpha(l: int) -> LaurentFraction:
        q_exp = l * l + x_exp * l + l * (l - 1) // 2
        num = (
            LaurentPoly.monomial(4 * q_exp, -1 if l & 1 else 1)
            * (_ONE - LaurentPoly.monomial(4 * (2 * l + x_exp)))
            * cache.pochhammer(l + 1, x_exp - 1)
        )
        return cache.pochhammer_recip(1, x_exp) * num

    @functools.cache
    def beta(l: int) -> LaurentFraction:
        return cache.pochhammer_recip(1, l)

    return BaileyPair(alpha, beta, x_exp, "unit" if x_exp == 1 else f"unit({x_exp})")


def squared_pair(cache: QSymbolCache) -> BaileyPair:
    """The pair with squared Pochhammer beta, relative to x = q:

        alpha_k = q^(k^2) (1 - q^(2k+1))/(1 - q),  beta_k = 1/(q;q)_k^2
    """

    @functools.cache
    def alpha(k: int) -> LaurentFraction:
        num = LaurentPoly.monomial(4 * k * k) * (
            _ONE - LaurentPoly.monomial(4 * (2 * k + 1))
        )
        return cache.pochhammer_recip(1, 1) * num

    @functools.cache
    def beta(k: int) -> LaurentFraction:
        recip = cache.pochhammer_recip(1, k)
        return recip * recip

    return BaileyPair(alpha, beta, 1, "squared")


def beta_from_alpha(pair: BaileyPair, k: int, cache: QSymbolCache) -> LaurentFraction:
    """Right-hand side of the defining relation at index k."""
    a = pair.x_exp + 1  # (xq;q) = (q^(x_exp+1);q)
    total = LaurentFraction(_ZERO)
    for j in range(k + 1):
        recip = cache.pochhammer_recip(1, k - j) * cache.pochhammer_recip(a, k + j)
        total = total + pair.alpha(j) * recip
    return total


def verify_bailey_pair(pair: BaileyPair, K: int, cache: QSymbolCache) -> tuple[int, ...]:
    """The k <= K at which beta_k = sum_j alpha_j/((q;q)_{k-j}(xq;q)_{k+j})
    fails, checked exactly; failures are data, not exceptions."""
    return tuple(k for k in range(K + 1) if beta_from_alpha(pair, k, cache) != pair.beta(k))


def chain_step(pair: BaileyPair, cache: QSymbolCache) -> BaileyPair:
    """One Bailey chain step (same x):

        alpha'_k = x^k q^(k^2) alpha_k
        beta'_k  = sum_j x^j q^(j^2) beta_j / (q;q)_{k-j}
    """
    x_exp = pair.x_exp

    @functools.cache
    def alpha(k: int) -> LaurentFraction:
        return pair.alpha(k) * LaurentPoly.monomial(4 * (x_exp * k + k * k))

    @functools.cache
    def beta(k: int) -> LaurentFraction:
        total = LaurentFraction(_ZERO)
        for j in range(k + 1):
            weight = LaurentPoly.monomial(4 * (x_exp * j + j * j))
            total = total + pair.beta(j) * cache.pochhammer_recip(1, k - j) * weight
        return total

    return BaileyPair(alpha, beta, x_exp, f"chain({pair.label})")


def bailey_lemma_check(pair: BaileyPair, k: int, cache: QSymbolCache) -> bool:
    """Exact check of the special Bailey lemma at index k:

        sum_j alpha'_j/((q;q)_{k-j}(xq;q)_{k+j})
            = sum_j x^j q^(j^2)/(q;q)_{k-j} *
              sum_i alpha_i/((q;q)_{j-i}(xq;q)_{j+i})

    Both sides are finite double sums in the pair's alpha alone.
    """
    if k < 0:
        raise IndexOutOfRange("index must be >= 0")
    return k not in bailey_lemma_failures(pair, k, cache)


def bailey_lemma_failures(pair: BaileyPair, top: int, cache: QSymbolCache) -> tuple[int, ...]:
    """The k <= top at which bailey_lemma_check(pair, k) fails: the pair
    check of the chain step of (alpha, beta_from_alpha(pair, .)).

    Each beta_from_alpha(pair, j) is computed once, in a memo local to the
    call, not in the cache, where a key holding the pair would tie the cache
    to itself through a chained pair's closures.
    """
    betas = functools.cache(lambda j: beta_from_alpha(pair, j, cache))
    derived = BaileyPair(pair.alpha, betas, pair.x_exp, pair.label)
    return verify_bailey_pair(chain_step(derived, cache), top, cache)


def chain_sum(
    top: int,
    length: int,
    weight: Callable[[int, int], LaurentPoly],
    beta: Callable[[int], LaurentPoly] | None = None,
) -> LaurentPoly:
    """sum over chains top = k_L >= ... >= k_1 >= 0 of
    beta(k_1) prod_{i=1}^{L-1} weight(k_i, k_{i+1}), beta 1 when None.

    Summed level by level, one Bailey chain step a level, so no chain is
    listed: v_1(a) = beta(a) and v_{i+1}(b) = sum_{a<=b} weight(a, b) v_i(a)
    for b <= top; the value is v_L(top).  Each weight(a, b) is built once.
    """
    if top < 0:
        raise IndexOutOfRange("chain top must be >= 0")
    if length < 1:
        raise ValueError("chain length must be >= 1")
    start = (lambda a: _ONE) if beta is None else beta
    if length == 1:
        return start(top)
    weight = functools.cache(weight)
    v = [start(a) for a in range(top + 1)]
    for _ in range(length - 2):
        v = [lincomb((weight(a, b), v[a]) for a in range(b + 1)) for b in range(top + 1)]
    return lincomb((weight(a, top), v[a]) for a in range(top + 1))


def _binomial_step(a_exp: Callable[[int, int], int], cache: QSymbolCache):
    """The multi-sums' chain weight A^a_exp(a, b) [b over a]_q."""
    return lambda a, b: LaurentPoly.monomial(a_exp(a, b)) * cache.qbinom(b, a)


def multisum_c_prime(k: int, p: int, cache: QSymbolCache) -> LaurentPoly:
    """Multi-sum form of c'_{k,p} (manifestly in Z[𝔮^{±1}]):

        p > 0: (-1)^k q^(k(k+3)/4) sum prod q^(k_i^2+k_i)   [k_{i+1} over k_i]_q
        p < 0:        q^(-k(k+3)/4) sum prod q^(-k_i k_{i+1}-k_i) [..]_q

    over chains k = k_{|p|} >= ... >= k_1 >= 0.
    """
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    if p == 0:
        raise ValueError("twist count p must be nonzero")
    if p > 0:
        body = chain_sum(k, p, _binomial_step(lambda a, b: 4 * (a * a + a), cache))
        return LaurentPoly.monomial(k * (k + 3), -1 if k & 1 else 1) * body
    body = chain_sum(k, -p, _binomial_step(lambda a, b: 4 * (-a * b - a), cache))
    return LaurentPoly.monomial(-k * (k + 3)) * body


def multisum_c_tilde(k: int, m: int, cache: QSymbolCache) -> LaurentPoly:
    """Multi-sum form of (q;q)_k c~'_{k,s/2} for s = 2m - 1, m >= 1, manifestly
    a Laurent polynomial:

        (-1)^k q^(k(k+3)/4) sum ((q;q)_k/(q;q)_{k_1})
            prod q^(k_i^2+k_i) [k_{i+1} over k_i]_q
    """
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    if m < 1:
        raise ValueError("multi-sum form needs m >= 1 (s = 2m - 1 positive)")
    step = _binomial_step(lambda a, b: 4 * (a * a + a), cache)
    num = chain_sum(k, m, step, beta=lambda k1: cache.pochhammer_ratio(1, k, k1))
    return LaurentPoly.monomial(k * (k + 3), -1 if k & 1 else 1) * num


def multisum_d(k: int, j: int, p: int, cache: QSymbolCache) -> LaurentPoly:
    """Multi-sum form of (q;q)_{k-j} d_{k,j,p}, over chains with top k - j:

        p > 0: (-1)^(k-j) q^((j+1)(j-k)-pj(j+2))
                   sum prod q^(-k_i k_{i+1}-(2j+2)k_i) [k_{i+1} over k_i]_q
        p < 0: q^((k(k+3)-j(j+3))/2+|p|j(j+2))
                   sum prod q^(k_i^2+(2j+2)k_i) [k_{i+1} over k_i]_q

    The chain weight carries the full x^{k_i} q^{k_i^2} with x = q^{2j+2};
    a weight of q^{k_i^2+k_i} (as if x = q) breaks exactness for |p| >= 2.
    """
    if not 0 <= j <= k:
        raise IndexOutOfRange(f"d coefficient needs 0 <= j <= k, got k={k}, j={j}")
    if p == 0:
        raise ValueError("twist count p must be nonzero")
    top = k - j
    x_exp = 2 * j + 2
    if p > 0:
        body = chain_sum(top, p, _binomial_step(lambda a, b: 4 * (-a * b - x_exp * a), cache))
        sign = -1 if top & 1 else 1
        prefactor = LaurentPoly.monomial(4 * ((j + 1) * (j - k) - p * j * (j + 2)), sign)
    else:
        body = chain_sum(top, -p, _binomial_step(lambda a, b: 4 * (a * a + x_exp * a), cache))
        prefactor = LaurentPoly.monomial(
            2 * (k * (k + 3) - j * (j + 3)) + 4 * (-p) * j * (j + 2)
        )
    return prefactor * body


def _agrees(num: LaurentPoly, n: int, lo: int, hi: int, multi: LaurentPoly,
            cache: QSymbolCache) -> bool:
    """num (q;q)_n/({lo}...{hi}) == multi exactly, an inexact division a mismatch:
    (q;q)_n = (-1)^n A^(n(n+1)) {n}!, and the braces that {n}! shares with the
    denominator cancel before brace_quotient divides by the rest."""
    unit = LaurentPoly.monomial(-n * (n + 1), -1 if n & 1 else 1)
    try:
        quotient = brace_quotient(num * cache.brace_fact(min(n, lo - 1)), max(lo, n + 1), hi)
    except RemainderNonzero:
        return False
    return quotient == unit * multi


def multisum_agreement(
    k: int, cache: QSymbolCache, twists: Iterable[int] = (), colors: Iterable[int] = (),
    d_twists: Sequence[int] = (),
) -> Iterator[tuple[tuple, bool]]:
    """The multi-sums against cyclotomic's single sums at k, one (key, ok) per
    identity: ("c'", p) for p in twists, ("c~'", s) for s in colors and ("d", j, p)
    for j <= k and p in d_twists.  Each is an identity of Laurent polynomials and
    builds no fraction: the single sum's numerator times the multi-sum's
    denominator, over the single sum's braces, is the multi-sum's numerator,

        c~':  _c_num(k, s) (q;q)_k / {2k+1}!                  = multisum_c_tilde
        d:    _d_num(k, j, p) (q;q)_{k-j} / ({2j+2}...{2k+2})  = multisum_d

    (_agrees).  For s < 0 the multi-sum is that of -s at A^-1, which maps
    c~'_{k,-s/2} to (-1)^k c~'_{k,s/2} and (q;q)_k to (-1)^k q^(-k(k+1)/2) (q;q)_k:
    the numerator is A^(2k(k+1)) times it.
    """
    for p in twists:
        yield ("c'", p), multisum_c_prime(k, p, cache) == cyclotomic.c_prime(k, p, cache)
    for s in colors:
        multi = multisum_c_tilde(k, (abs(s) + 1) // 2, cache)
        if s < 0:
            multi = LaurentPoly.monomial(2 * k * (k + 1)) * multi.substitute_power(-1)
        yield ("c~'", s), _agrees(cyclotomic._c_num(k, s, cache), k, 1, 2 * k + 1, multi, cache)
    for j in range(k + 1):
        for p in d_twists:
            num, multi = cyclotomic._d_num(k, j, p, cache), multisum_d(k, j, p, cache)
            yield ("d", j, p), _agrees(num, k - j, 2 * j + 2, 2 * k + 2, multi, cache)

import math
import random
from sys import getsizeof

import pytest

from cyclojones import (
    DivisionByZeroDenominator,
    IndexOutOfRange,
    KnotSpec,
    LaurentFraction,
    LaurentPoly,
    NotAdmissible,
    QSymbolCache,
    RemainderNonzero,
    brace,
    bracket,
    c_prime,
    coefficient_table,
    framing_mu,
    half_twist_delta,
    t_coeff,
)
from cyclojones.qcalc import MAX_TABLE_INDEX, brace_quotient, brace_recip

A = LaurentPoly.monomial


def test_brace():
    assert brace(1) == A(2) - A(-2)
    assert brace(0).is_zero
    assert brace(3) == A(6) - A(-6)
    for n in range(-10, 11):
        assert brace(-n) == -brace(n)


def test_bracket():
    assert bracket(1) == 1
    assert bracket(0).is_zero
    assert bracket(2) == A(2) + A(-2)  # {2}/{1} expanded


def test_factorials(cache):
    assert cache.brace_fact(0) == 1
    assert cache.brace_fact(2) == A(6) - A(2) - A(-2) + A(-6)  # {2}{1}
    assert cache.bracket_fact(2) == A(2) + A(-2)
    with pytest.raises(IndexOutOfRange):
        cache.brace_fact(-1)


def test_balanced_binomial(cache):
    for n in range(0, 21):
        assert cache.qbinom_balanced(n, 0) == 1
    assert cache.qbinom_balanced(2, 1) == A(2) + A(-2)  # equals [2]
    assert cache.qbinom_balanced(3, 5).is_zero
    assert cache.qbinom_balanced(3, -1).is_zero


def test_pochhammer(cache):
    assert cache.pochhammer(1, 0) == 1
    assert cache.pochhammer(1, 2) == 1 - A(4) - A(8) + A(12)  # (1-q)(1-q^2)
    assert cache.pochhammer(1 - 3, 3).is_zero  # contains the factor 1-q^0


def _qbinom_pascal(n, i):
    # independent oracle: Gaussian-binomial Pascal recursion from scratch
    if i < 0 or i > n:
        return LaurentPoly.zero()
    if n == 0:
        return LaurentPoly.one()
    return _qbinom_pascal(n - 1, i - 1) + A(4 * i) * _qbinom_pascal(n - 1, i)


def test_qbinom(cache):
    for n in range(0, 9):
        assert cache.qbinom(n, n) == 1
    assert cache.qbinom(2, 1) == 1 + A(4)
    # frozen from the Pascal oracle: 1 + q + 2q^2 + q^3 + q^4
    assert cache.qbinom(4, 2) == 1 + A(4) + A(8, 2) + A(12) + A(16)
    for n in range(0, 9):
        for i in range(0, n + 1):
            assert cache.qbinom(n, i) == _qbinom_pascal(n, i)


def test_cyclo_block(cache):
    for N in range(1, 11):
        assert cache.cyclo_block(N, 0) == 1
    assert cache.cyclo_block(2, 1) == A(8) - A(4) - A(-4) + A(-8)  # {3}{1}
    with pytest.raises(IndexOutOfRange):
        cache.cyclo_block(3, 3)


def test_cyclo_block_respects_max_index():
    cache = QSymbolCache()
    with pytest.raises(IndexOutOfRange, match="exceeds cache bound"):
        cache.cyclo_block(MAX_TABLE_INDEX + 2, MAX_TABLE_INDEX + 1)
    assert not cache._products  # refused before a row is built


def test_pochhammer_ratio_is_the_product_over_its_window(cache):
    # (q^a;q)_k/(q^a;q)_j, also where (q^a;q)_j holds 1 - q^0 and is 0
    for a in range(-3, 4):
        for k in range(7):
            for j in range(k + 1):
                expect = math.prod(1 - A(4 * (a + t)) for t in range(j, k))
                assert cache.pochhammer_ratio(a, k, j) == expect, (a, k, j)
    with pytest.raises(IndexOutOfRange):
        cache.pochhammer_ratio(1, 2, 3)


def test_framing_mu():
    assert framing_mu(0) == 1
    assert framing_mu(1) == -A(3)
    assert framing_mu(2) == A(8)


def test_half_twist_delta():
    assert half_twist_delta(0, 1, 1) == -A(-3)
    assert half_twist_delta(2, 1, 1) == A(1)
    with pytest.raises(NotAdmissible):
        half_twist_delta(1, 1, 1)  # parity
    with pytest.raises(NotAdmissible):
        half_twist_delta(6, 1, 1)  # triangle


def test_delta_square_law():
    for a in range(0, 21):
        for b in range(0, 21):
            for c in range(abs(a - b), min(a + b, 20) + 1, 2):
                delta = half_twist_delta(c, a, b)
                assert delta * delta * framing_mu(a) * framing_mu(b) == framing_mu(c)


def test_balanced_gaussian_bridge(cache):
    for n in range(0, 17):
        for i in range(0, n + 1):
            assert cache.qbinom_balanced(n, i) == A(-2 * i * (n - i)) * cache.qbinom(n, i)


def test_q_pascal_balanced_binomial_matches_factorial_quotient():
    # a fresh cache builds every row by q-Pascal; compare with {n}!/({i}!{n-i}!)
    cache = QSymbolCache()
    for n in range(45):
        for i in range(n + 1):
            recip = cache.brace_fact_recip(i) * cache.brace_fact_recip(n - i)
            assert cache.qbinom_balanced(n, i) == (recip * cache.brace_fact(n)).to_poly(), (n, i)


def test_balanced_binomial_respects_max_index():
    cache = QSymbolCache()
    assert cache.qbinom_balanced(10, 4) == cache.brace_fact(10).exact_div(
        cache.brace_fact(4) * cache.brace_fact(6)
    )
    # refused before a row is stepped up towards it
    with pytest.raises(IndexOutOfRange):
        cache.qbinom_balanced(MAX_TABLE_INDEX + 1, 3)
    assert sorted(cache._qbinom_balanced) == [0, 10]


def _held_bytes(value) -> int:
    """sys.getsizeof summed over the stored terms: each coefficient list
    with its entries, a polynomial's stored list included."""
    if isinstance(value, LaurentPoly):
        value = value.lattice()[2]
    if isinstance(value, int):
        return getsizeof(value)
    return getsizeof(value) + sum(_held_bytes(item) for item in value)


def _is_dense_row(value) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(isinstance(g, list) and all(type(c) is int for c in g) for g in value)
    )


def test_balanced_binomial_keeps_only_requested_rows():
    # a full-twist table asks only for the rows 2k+1 of c'_k; the even rows
    # between them are q-Pascal stepping stones and are not kept, dense or not
    cache = QSymbolCache()
    coefficient_table(KnotSpec.full(3, -2), 20, cache)
    rows = cache._qbinom_balanced
    assert sorted(rows) == [0] + list(range(1, 42, 2))
    assert all(isinstance(poly, LaurentPoly) for row in rows.values() for poly in row)
    # at most one dense row of Gaussian coefficient lists is left to build on
    attributes = list(vars(cache).values())
    for value in list(attributes):
        if isinstance(value, dict):
            attributes += value.values()
        elif isinstance(value, (list, tuple)):
            attributes += value
    dense = [value for value in attributes if _is_dense_row(value)]
    assert len(dense) <= 1
    # and the store holds no more bytes than the same rows built by Laurent
    # additions, [m t] = A^(-2t) [m-1 t] + A^(2(m-t)) [m-1 t-1], kept row by row
    reference, row = {0: rows[0]}, [LaurentPoly.one()]
    for m in range(1, 42):
        prev, row = row, [LaurentPoly.one()]
        for t in range(1, m // 2 + 1):
            prev_t = prev[t] if t < len(prev) else prev[m - 1 - t]
            row.append(A(-2 * t) * prev_t + A(2 * (m - t)) * prev[t - 1])
        if m in rows:
            reference[m] = row
    assert reference == rows
    terms = lambda store: sum(_held_bytes(row) - getsizeof(row) for row in store.values())
    assert terms(rows) + sum(map(_held_bytes, dense)) <= terms(reference)


def test_balanced_binomial_rows_in_any_order_match_fresh_values():
    # a missing row is rebuilt from the nearest stored row below, whatever
    # rows above it are already stored
    fresh = QSymbolCache()
    expected = {(n, i): fresh.qbinom_balanced(n, i) for n in range(45) for i in range(n + 1)}
    requests = list(expected)
    random.Random(45).shuffle(requests)
    shared = QSymbolCache()
    for n, i in requests:
        assert shared.qbinom_balanced(n, i) == expected[n, i], (n, i)
    # refused before a row is stepped up towards it
    with pytest.raises(IndexOutOfRange):
        shared.qbinom_balanced(MAX_TABLE_INDEX + 1, 3)
    assert sorted(shared._qbinom_balanced) == list(range(45))


def test_coefficient_store_matches_fresh_values():
    # c' and t interleaved on one cache equal the values of a fresh cache,
    # cold and warm
    requests = [(c_prime, k, p) for k in range(11) for p in (-3, -2, -1, 1, 2, 3)]
    requests += [(t_coeff, k, i) for k in range(13) for i in range(k + 1)]
    random.Random(7).shuffle(requests)
    shared = QSymbolCache()
    for _ in ("cold", "warm"):
        for fn, *args in requests:
            value = fn(*args, shared)
            assert value == fn(*args, QSymbolCache()), (fn.__name__, args)


def test_pascal_identity(cache):
    for n in range(1, 17):
        for i in range(0, n + 1):
            rhs = cache.qbinom(n - 1, i - 1) + A(4 * i) * cache.qbinom(n - 1, i)
            assert cache.qbinom(n, i) == rhs


def test_cyclo_block_pochhammer_identity(cache):
    # {N+k}!/({N-1-k}!{N}) = (-1)^k q^(-k(k+1)/2) (q^(1-N);q)_k (q^(1+N);q)_k
    for N in range(1, 9):
        for k in range(0, N):
            sign = -1 if k & 1 else 1
            rhs = (
                A(-2 * k * (k + 1), sign)
                * cache.pochhammer(1 - N, k)
                * cache.pochhammer(1 + N, k)
            )
            assert cache.cyclo_block(N, k) == rhs


def test_brace_bracket_symmetry():
    for n in range(-30, 31):
        assert brace(n) == brace(1) * bracket(n)


def test_cache_equals_recomputation(cache):
    fresh = type(cache)()
    assert cache.brace_fact(12) == fresh.brace_fact(12)
    assert cache.pochhammer(2, 7) == fresh.pochhammer(2, 7)
    assert cache.qbinom(9, 4) == fresh.qbinom(9, 4)


def _oriented(poly: LaurentPoly) -> LaurentPoly:
    """poly times the unit that gives it lowest exponent 0 and a positive
    leading coefficient."""
    return poly * A(-poly.min_exp, -1 if poly.coeff(poly.max_exp) < 0 else 1)


def _is_recip(frac: LaurentFraction, den: LaurentPoly) -> bool:
    """frac == 1/den, by cross-multiplication."""
    return frac.num * den == frac.den


def test_brace_fact_recip(cache):
    for n in range(17):
        recip = cache.brace_fact_recip(n)
        assert _is_recip(recip, cache.brace_fact(n))
        assert recip.den == _oriented(cache.brace_fact(n))  # same canonical orientation
        assert (recip * cache.brace_fact(n)).to_poly() == 1
    with pytest.raises(IndexOutOfRange):
        cache.brace_fact_recip(-1)


def _random_numerator(rng):
    """Up to 12 terms with coefficients below 2^40 on a random lattice and coset."""
    stride, offset = rng.choice((1, 2, 4, 6)), rng.randint(-7, 7)
    return LaurentPoly({offset + stride * rng.randint(-30, 30): rng.choice((-1, 1)) * rng.randint(
        1, 1 << 40) for _ in range(rng.randint(1, 12))})


@pytest.mark.parametrize("seed", range(4))
def test_brace_quotient_matches_the_fraction_it_replaces(seed):
    # num/({lo}...{hi}) without a fraction equals num over the product of brace_recip
    # collapsed by to_poly; a numerator off by one coefficient (Φ_1(A) cannot cancel),
    # or off by a multiple of {lo} when lo < hi (Φ_1(A) cancels once), raises the same
    # RemainderNonzero, naming the same Φ_d(A) and exponent, with the same remainder
    rng = random.Random(seed)
    for _ in range(15):
        hi = rng.randint(1, 50)
        lo = rng.randint(1, hi)
        recip = math.prod(brace_recip(j) for j in range(lo, hi + 1))
        quotient = _random_numerator(rng)
        num = quotient * math.prod(brace(j) for j in range(lo, hi + 1))
        assert brace_quotient(num, lo, hi) == (num * recip).to_poly() == quotient, (lo, hi)
        e = rng.choice([e for e, _ in num.items()] + [num.min_exp - 2, num.max_exp + 1])
        bump = A(e, rng.choice((-1, 1)) * rng.randint(1, 1 << 20))
        for wrong in [num + bump] + ([num + bump * brace(lo)] if lo < hi else []):
            with pytest.raises(RemainderNonzero) as reference:
                (wrong * recip).to_poly()
            with pytest.raises(RemainderNonzero) as got:
                brace_quotient(wrong, lo, hi)
            assert str(got.value) == str(reference.value), (lo, hi)
            assert got.value.remainder == reference.value.remainder
    assert brace_quotient(LaurentPoly.zero(), 2, 7).is_zero
    assert brace_quotient(brace(3), 3, 3) == 1


def test_pochhammer_recip(cache):
    for a in range(-3, 4):
        for k in range(17):
            if a <= 0 < a + k:  # the window holds 1 - q^0 = 0
                with pytest.raises(DivisionByZeroDenominator):
                    cache.pochhammer_recip(a, k)
                continue
            recip = cache.pochhammer_recip(a, k)
            assert _is_recip(recip, cache.pochhammer(a, k)), (a, k)
            assert recip.den == _oriented(cache.pochhammer(a, k))
    # windows of negative exponents only carry their unit A^(-4t)
    assert _is_recip(cache.pochhammer_recip(-2, 2), (1 - A(-8)) * (1 - A(-4)))
    assert cache.pochhammer_recip(-2, 2).num == A(12)
    with pytest.raises(IndexOutOfRange):
        cache.pochhammer_recip(1, -1)

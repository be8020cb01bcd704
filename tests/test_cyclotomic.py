from fractions import Fraction

import pytest

from cyclojones import (
    CoeffTable,
    IndexOutOfRange,
    IntegralityFailure,
    KnotSpec,
    LaurentFraction,
    LaurentPoly,
    c_prime,
    c_prime_qform,
    c_tilde_prime,
    coefficient_table,
    d_kjp,
    h_coeff_half,
    h_coeff_int,
    jones_from_table,
    jones_half,
    jones_int,
    jones_walsh,
)

A = LaurentPoly.monomial
Q = A(4)  # the q-series variable


def eval_balanced(value, b):
    """Numeric oracle: evaluate a fraction at A^2 = b (exponents are even)."""
    num = sum(c * Fraction(b) ** (e // 2) for e, c in value.num.items())
    den = sum(c * Fraction(b) ** (e // 2) for e, c in value.den.items())
    return num / den


def test_knot_spec_invariants():
    with pytest.raises(ValueError):
        KnotSpec.half(0, 1)
    with pytest.raises(ValueError):
        KnotSpec.half(1, 2)  # s must be odd
    with pytest.raises(ValueError):
        KnotSpec.full(1, 0)
    assert KnotSpec.half(2, 5).region.m == 3
    assert str(KnotSpec.half(2, 1)) == "K(2, 1/2)"
    assert str(KnotSpec.full(1, -3)) == "K(1, -3)"


def test_c_prime(cache):
    for p in (-3, -2, -1, 1, 2, 3):
        assert c_prime(0, p, cache) == 1
    for k in range(11):
        assert c_prime(k, 1, cache) == A(k * (k + 3), -1 if k & 1 else 1)
    assert c_prime(1, 2, cache) == -A(4) - A(12)  # -𝔮^2 - 𝔮^6
    assert c_prime(1, -1, cache) == A(-4)  # 𝔮^-2
    with pytest.raises(ValueError):
        c_prime(1, 0, cache)


def test_c_tilde_prime(cache):
    for s in (1, 3, 5, -1, -3):
        assert c_tilde_prime(0, s, cache) == LaurentFraction(1)
    assert c_tilde_prime(1, 1, cache) == LaurentFraction(Q, Q - 1)
    assert c_tilde_prime(1, 3, cache) == LaurentFraction(Q * (1 - Q + A(8)), Q - 1)
    with pytest.raises(ValueError):
        c_tilde_prime(1, 2, cache)
    # {k}! * value is a Laurent polynomial
    for s in (1, 3, 5):
        for k in range(7):
            scaled = LaurentFraction(cache.brace_fact(k)) * c_tilde_prime(k, s, cache)
            scaled.to_poly()


def test_d_kjp(cache):
    for p in (-3, -1, 2):
        assert d_kjp(0, 0, p, cache) == LaurentFraction(1)
    for k in range(7):
        for p in (-2, 1, 3):
            assert d_kjp(k, k, p, cache) == LaurentFraction(A(-4 * p * k * (k + 2)))
    assert d_kjp(1, 0, 1, cache) == LaurentFraction(A(-4), Q - 1)
    assert d_kjp(1, 0, -1, cache) == LaurentFraction(-A(8), Q - 1)  # q^2/(1-q)
    with pytest.raises(IndexOutOfRange):
        d_kjp(1, 2, 1, cache)
    # {k-j}! * value is a Laurent polynomial
    for k in range(6):
        for j in range(k + 1):
            scaled = LaurentFraction(cache.brace_fact(k - j)) * d_kjp(k, j, 2, cache)
            scaled.to_poly()


def test_d_kjp_numeric_oracle(cache):
    # 𝔮 = 2 means q = 4: d(1,0,1) = q^-1/(q-1) = 1/12, d(1,0,-1) = q^2/(1-q)
    assert eval_balanced(d_kjp(1, 0, 1, cache), 2) == Fraction(1, 12)
    assert eval_balanced(d_kjp(1, 0, -1, cache), 2) == Fraction(-16, 3)


def test_h_coeff_half(cache):
    k_half_11 = KnotSpec.half(1, 1)
    k_half_21 = KnotSpec.half(2, 1)
    assert h_coeff_half(0, k_half_11, cache) == 1
    assert h_coeff_half(0, KnotSpec.half(-3, 5), cache) == 1
    assert h_coeff_half(1, k_half_11, cache).is_zero  # j = 0, 1 terms cancel
    assert h_coeff_half(1, k_half_21, cache) == -A(-8)  # -𝔮^-4
    with pytest.raises(TypeError):
        h_coeff_half(0, KnotSpec.full(1, 1), cache)


def test_h_coeff_int(cache):
    k11 = KnotSpec.full(1, 1)
    assert h_coeff_int(0, KnotSpec.full(2, -3), cache) == 1
    assert h_coeff_int(1, k11, cache) == -A(8)  # -𝔮^4
    for k in range(9):
        assert h_coeff_int(k, k11, cache) == A(2 * k * (k + 3), -1 if k & 1 else 1)


def test_h_integrality_small_grid(cache):
    for p in (-2, 1, 3):
        for s in (1, 3, 5):
            for k in range(7):
                h = h_coeff_half(k, KnotSpec.half(p, s), cache)
                assert all(e % 2 == 0 for e, _ in h.items())


def test_jones_half(cache):
    knot = KnotSpec.half(2, 1)
    assert jones_half(1, knot, cache).value == 1
    expected = A(-4) + A(-12) - A(-16)  # 𝔮^-2 + 𝔮^-6 - 𝔮^-8
    assert jones_half(2, knot, cache).value == expected
    assert jones_half(2, KnotSpec.half(1, 1), cache).value == 1
    with pytest.raises(IndexOutOfRange):
        jones_half(0, knot, cache)


def test_jones_walsh(cache):
    assert jones_walsh(1, KnotSpec.half(-3, 5), cache).value == 1
    expected = A(-4) + A(-12) - A(-16)
    assert jones_walsh(2, KnotSpec.half(2, 1), cache).value == expected
    assert jones_walsh(2, KnotSpec.half(1, 1), cache).value == 1


def test_jones_int(cache):
    assert jones_int(1, KnotSpec.full(3, -2), cache).value == 1
    assert jones_int(2, KnotSpec.full(1, 1), cache).value == A(4) + A(12) - A(16)
    for N in range(1, 6):
        for p in (-2, -1, 1, 2):
            for r in (-2, -1, 1, 2):
                lhs = jones_int(N, KnotSpec.full(p, r), cache).value
                rhs = jones_int(N, KnotSpec.full(r, p), cache).value
                assert lhs == rhs


def test_route_agreement_small(cache):
    for p in (-2, 1, 2):
        for s in (1, 3):
            knot = KnotSpec.half(p, s)
            for N in range(1, 6):
                assert jones_half(N, knot, cache).value == jones_walsh(N, knot, cache).value


def test_jones_normalization_at_one(cache):
    for knot in (KnotSpec.half(2, 3), KnotSpec.half(-1, 5)):
        for N in range(1, 5):
            assert jones_half(N, knot, cache).value.value_at_one() == 1


def test_c_prime_qform(cache):
    assert c_prime_qform(0, 3, cache) == 1
    assert c_prime_qform(1, 1, cache) == -A(4)
    for k in range(9):
        for p in (-3, -2, -1, 1, 2, 3):
            assert c_prime_qform(k, p, cache) == c_prime(k, p, cache)


def test_q_inversion(cache):
    # d_{k,j,p} with A -> A^-1 equals d_{k,j,-p}
    for k in range(7):
        for j in range(k + 1):
            for p in (-2, -1, 1, 2):
                assert d_kjp(k, j, p, cache).substitute_power(-1) == d_kjp(k, j, -p, cache)


def test_negative_odd_s_single_sum_routes(cache):
    # any odd s is accepted by the single-sum routes; integrality and
    # route agreement still hold (multi-sum forms require s >= 1)
    for p in (-2, 1):
        for s in (-1, -3):
            knot = KnotSpec.half(p, s)
            for k in range(5):
                h = h_coeff_half(k, knot, cache)
                assert all(e % 2 == 0 for e, _ in h.items())
            for N in range(1, 5):
                assert jones_half(N, knot, cache).value == jones_walsh(N, knot, cache).value


def test_two_evaluation_orders(cache):
    # evaluating the assembled J'_N equals assembling numerically from
    # the evaluated H_k and blocks
    import mpmath

    from cyclojones import cyclo_block

    knot = KnotSpec.half(2, 1)
    N = 4
    value = jones_half(N, knot, cache).value
    with mpmath.workdps(80):
        direct = value.eval_unit_root(1, 16)
        assembled = mpmath.mpc(0)
        for k in range(N):
            h = h_coeff_half(k, knot, cache)
            assembled += h.eval_unit_root(1, 16) * cyclo_block(N, k, cache).eval_unit_root(1, 16)
        assert abs(direct - assembled) < mpmath.mpf("1e-40")


def test_coefficient_table(cache, tmp_path):
    from cyclojones.serialize import CoeffCache

    knot = KnotSpec.half(2, 1)
    table = coefficient_table(knot, 4, cache)
    assert table.entries[0].h == 1
    assert table.h(1) == -A(-8)
    assert all("integrality" in entry.checks for entry in table.entries)
    for N in range(1, 6):
        assert jones_from_table(N, table, cache).value == jones_half(N, knot, cache).value
    full = KnotSpec.full(2, -1)
    full_table = coefficient_table(full, 4, cache)
    for N in range(1, 6):
        assert jones_from_table(N, full_table, cache).value == jones_int(N, full, cache).value
    checked = coefficient_table(KnotSpec.half(1, 3), 3, cache, cross_check=True)
    assert all("multisum" in entry.checks for entry in checked.entries)
    checked_int = coefficient_table(full, 3, cache, cross_check=True)
    assert all("multisum" in entry.checks for entry in checked_int.entries)
    checked_neg = coefficient_table(KnotSpec.half(1, -3), 3, cache, cross_check=True)
    assert all("multisum" in entry.checks for entry in checked_neg.entries)
    # a store changes where H_k comes from, never the table or its checks
    for i, (knot, cross_check) in enumerate(
        ((KnotSpec.half(2, 1), False), (KnotSpec.half(1, 3), True), (full, True))
    ):
        plain = coefficient_table(knot, 3, cache, cross_check)
        cold = coefficient_table(knot, 3, cache, cross_check, CoeffCache(tmp_path / str(i)))
        store = CoeffCache(tmp_path / str(i), check_every=1)
        warm = coefficient_table(knot, 3, cache, cross_check, store)
        assert store._hits == 4
        assert cold == warm == plain


def test_cross_check_compares_c_tilde_for_negative_s(cache, monkeypatch):
    import cyclojones.cyclotomic as cyclotomic_mod

    wrong = LaurentFraction(2)
    monkeypatch.setattr(cyclotomic_mod, "c_tilde_prime", lambda k, s, cache=None: wrong)
    with pytest.raises(IntegralityFailure, match="c~' mismatch"):
        coefficient_table(KnotSpec.half(1, -1), 3, cache, cross_check=True)


def test_coeff_table_rejects_bad_entries(cache):
    knot = KnotSpec.half(2, 1)
    good = coefficient_table(knot, 2, cache)
    with pytest.raises(ValueError):
        CoeffTable(knot, good.entries[1:], 1)  # H_0 missing

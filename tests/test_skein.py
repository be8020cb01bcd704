import pytest

from cyclojones import (
    IndexOutOfRange,
    LaurentPoly,
    ZPoly,
    bracket_e,
    chebyshev_e,
    eigenvalue_lambda,
    expand_in_basis,
    pairing_R_e,
    r_basis,
    s_coeff,
    t_coeff,
    twist_coeff_d,
)
from cyclojones.qcalc import brace, framing_mu_power

A = LaurentPoly.monomial


def test_chebyshev_recursion():
    assert chebyshev_e(0) == ZPoly.one()
    assert chebyshev_e(1) == ZPoly.z()
    assert chebyshev_e(2) == ZPoly([-1, 0, 1])
    assert chebyshev_e(3) == ZPoly([0, -2, 0, 1])  # z^3 - 2z
    for i in range(12):
        e = chebyshev_e(i)
        assert e.degree == i and e.coeff(i) == 1


def test_bracket_e():
    assert bracket_e(0) == 1
    assert bracket_e(1) == -(A(2) + A(-2))
    assert bracket_e(2) == A(4) + 1 + A(-4)


def test_eigenvalue_lambda():
    assert eigenvalue_lambda(0) == LaurentPoly({2: -1, -2: -1})
    assert eigenvalue_lambda(2) == LaurentPoly({6: -1, -6: -1})
    for i in range(11):
        assert eigenvalue_lambda(i).value_at_one() == -2


def test_r_basis():
    assert r_basis(0) == ZPoly.one()
    assert r_basis(1) == ZPoly([A(2) + A(-2), 1])
    expected = ZPoly([A(2) + A(-2), 1]) * ZPoly([A(6) + A(-6), 1])
    assert r_basis(2) == expected
    for n in range(10):
        r = r_basis(n)
        assert r.degree == n and r.coeff(n) == 1


def test_t_coeff(cache):
    assert t_coeff(0, 0, cache) == 1
    assert t_coeff(1, 0, cache) == A(2) + A(-2)  # matches R_1 = e_1 + [2]e_0
    for k in range(11):
        assert t_coeff(k, k, cache) == 1
    with pytest.raises(IndexOutOfRange):
        t_coeff(2, 3, cache)


def test_s_coeff(cache):
    assert s_coeff(0, 0, cache) == 1
    assert s_coeff(1, 0, cache) == -(A(2) + A(-2))  # matches e_1 = R_1 - [2]R_0
    assert s_coeff(2, 2, cache) == 1
    with pytest.raises(IndexOutOfRange):
        s_coeff(1, 2, cache)


def test_change_of_basis_inverse(cache):
    for k in range(13):
        for j in range(k + 1):
            total = LaurentPoly.zero()
            for i in range(j, k + 1):
                total = total + t_coeff(k, i, cache) * s_coeff(i, j, cache)
            assert total == (LaurentPoly.one() if j == k else LaurentPoly.zero())


def test_coefficients_match_polynomial_expansion(cache):
    # linear algebra over ZPoly is the independent oracle for t and s
    es = [chebyshev_e(i) for i in range(11)]
    rs = [r_basis(i) for i in range(11)]
    for k in range(11):
        assert expand_in_basis(r_basis(k), es) == [t_coeff(k, i, cache) for i in range(k + 1)]
        assert expand_in_basis(chebyshev_e(k), rs) == [s_coeff(k, j, cache) for j in range(k + 1)]


def test_twist_coeff_examples(cache):
    for k in range(9):
        for j in range(k + 1):
            expect = LaurentPoly.one() if j == k else LaurentPoly.zero()
            assert twist_coeff_d(k, j, 0, cache) == expect
    for k in range(9):
        for p in (-4, -1, 1, 3, 4):
            assert twist_coeff_d(k, k, p, cache) == framing_mu_power(k, p)
    assert twist_coeff_d(1, 0, 1, cache) == (A(2) + A(-2)) * (1 + A(3))


def test_twist_matrix_inverse(cache):
    for k in range(11):
        for j in range(k + 1):
            total = LaurentPoly.zero()
            for i in range(j, k + 1):
                total = total + twist_coeff_d(k, i, 1, cache) * twist_coeff_d(i, j, -1, cache)
            assert total == (LaurentPoly.one() if j == k else LaurentPoly.zero())


def test_pairing_orthogonality(cache):
    assert pairing_R_e(1, 0).is_zero
    assert pairing_R_e(3, 1).is_zero
    for k in range(13):
        for i in range(k):
            assert pairing_R_e(k, i).is_zero


def test_pairing_diagonal(cache):
    assert pairing_R_e(1, 1) == -(brace(3) * brace(2))  # -{3}!/{1}
    for k in range(13):
        expect = cache.brace_fact(2 * k + 1).exact_div(brace(1))
        if k & 1:
            expect = -expect
        assert pairing_R_e(k, k) == expect

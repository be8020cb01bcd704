import sys
from collections import Counter

import pytest

from cyclojones import (
    IndexOutOfRange,
    LaurentFraction,
    LaurentPoly,
    QSymbolCache,
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


def test_twist_coefficients_on_one_cache_equal_the_termwise_sum():
    # the skein-bridge order: p innermost, so one (k, j) kernel serves every twist

    shared, fresh = QSymbolCache(), QSymbolCache()
    for k in range(8):
        for j in range(k + 1):
            for p in (-12, -8, -4, -1, 0, 1, 4, 8, 12):
                expect = LaurentPoly.zero()
                for i in range(j, k + 1):
                    term = t_coeff(k, i, fresh) * framing_mu_power(i, p) * s_coeff(i, j, fresh)
                    expect = expect + term
                assert twist_coeff_d(k, j, p, shared) == expect, (k, j, p)
            assert shared.coefficients["twist_kernel"][0] == (k, j)


def test_skein_bridge_builds_each_twist_kernel_once(monkeypatch):
    import cyclojones.skein as skein_mod
    from cyclojones.verify import VerifyGrid, _run_group, check_skein_bridge

    # s_{i,j} enters the kernel of every (k, j) with k >= i, once for all six twists
    calls, s_coeff = Counter(), skein_mod.s_coeff
    monkeypatch.setattr(skein_mod, "s_coeff",
                        lambda i, j, cache=None: calls.update([(i, j)]) or s_coeff(i, j, cache))
    grid = VerifyGrid()
    [(result, _)] = _run_group([check_skein_bridge], grid)
    assert len(grid.p_values) == 6 and result.passed
    top = grid.bridge_k
    assert calls == Counter({(i, j): top + 1 - i for i in range(top + 1) for j in range(i + 1)})


def test_twist_matrix_inverse(cache):
    for k in range(11):
        for j in range(k + 1):
            total = LaurentPoly.zero()
            for i in range(j, k + 1):
                total = total + twist_coeff_d(k, i, 1, cache) * twist_coeff_d(i, j, -1, cache)
            assert total == (LaurentPoly.one() if j == k else LaurentPoly.zero())


def test_pairing_orthogonality(cache):
    assert pairing_R_e(1, 0, cache).is_zero
    assert pairing_R_e(3, 1, cache).is_zero
    for k in range(13):
        for i in range(k):
            assert pairing_R_e(k, i, cache).is_zero


def test_pairing_diagonal(cache):
    assert pairing_R_e(1, 1, cache) == -(brace(3) * brace(2))  # -{3}!/{1}
    for k in range(13):
        expect = cache.brace_fact(2 * k + 1).exact_div(brace(1))
        if k & 1:
            expect = -expect
        assert pairing_R_e(k, k, cache) == expect


def test_twist_inverse_check_divides_each_t_coeff_once(monkeypatch):
    # twist_coeff_d asks for t_{k,i} again for every j and both twists; the
    # check's cache collapses each (k, i) once
    from cyclojones.verify import VerifyGrid, _run_group, check_twist_inverse

    collapsed = Counter()
    to_poly = LaurentFraction.to_poly

    def recording(self):
        frame = sys._getframe(1)
        if frame.f_back.f_code is QSymbolCache.memo.__code__:  # a memo build: look past it
            frame = frame.f_back.f_back
        if frame.f_code.co_name == "t_coeff":
            collapsed[frame.f_locals["k"], frame.f_locals["i"]] += 1
        return to_poly(self)

    monkeypatch.setattr(LaurentFraction, "to_poly", recording)
    [(result, _)] = _run_group([check_twist_inverse], VerifyGrid())
    assert result.passed
    assert collapsed == Counter({(k, i): 1 for k in range(11) for i in range(k + 1)})


def _count_calls(monkeypatch, module, name):
    calls = Counter()
    original = getattr(module, name)

    def spy(*args):
        calls[args[:3]] += 1  # the indices, not the cache
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_pairing_check_builds_each_r_basis_once(monkeypatch):
    # pairing_R_e(k, i, cache) keeps R_k for the last k, and the check asks
    # for every i of one k in a row
    import cyclojones.skein as skein_mod
    from cyclojones.verify import VerifyGrid, _run_group, check_pairing

    calls = _count_calls(monkeypatch, skein_mod, "r_basis")
    grid = VerifyGrid()
    [(result, _)] = _run_group([check_pairing], grid)
    assert result.passed
    assert calls == Counter({(k,): 1 for k in range(grid.bailey_k + 1)})


def test_twist_inverse_check_computes_each_twist_coefficient_once(monkeypatch):
    import cyclojones.skein as skein_mod
    from cyclojones.verify import VerifyGrid, _run_group, check_twist_inverse

    calls = _count_calls(monkeypatch, skein_mod, "twist_coeff_d")
    [(result, _)] = _run_group([check_twist_inverse], VerifyGrid())
    assert result.passed
    assert calls == Counter(
        {(k, i, p): 1 for k in range(11) for i in range(k + 1) for p in (1, -1)}
    )


def test_pairing_with_a_cache_equals_pairing_without():

    cache = QSymbolCache()
    for k in range(7):
        for i in range(9):
            # the pairing without a cache: R_k(lambda_2i) <e_2i>, built here
            direct = r_basis(k).evaluate(eigenvalue_lambda(2 * i)) * bracket_e(2 * i)
            assert pairing_R_e(k, i, cache) == direct
    assert cache.coefficients["r_basis"] == (6, r_basis(6))

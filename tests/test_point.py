"""The F_P point evaluator against the Laurent tables it certifies."""

import random

import pytest
from hypothesis import example, given, strategies as st

from cyclojones import KnotSpec, LaurentPoly, QSymbolCache, coefficient_table, point

KNOTS = tuple(KnotSpec.half(p, s) for p, s in ((2, 1), (-3, 5), (1, -1), (-2, 3))) + (
    KnotSpec.full(3, -2),
)
MAX_K = 20


@pytest.fixture(scope="module")
def tables():
    cache = QSymbolCache()
    return {knot: coefficient_table(knot, MAX_K, cache) for knot in KNOTS}


def test_point_values_equal_the_tables_at_every_k(tables):
    # the unregrouped d-sum in F_P against the regrouped h_coeff_half, and the
    # two c' factors against h_coeff_int, at two independent points
    for knot, table in tables.items():
        for _ in range(2):
            a = point.draw(2 * MAX_K + 2)
            values = point.h_values(knot, MAX_K, a)
            assert [point.evaluate(h, a) for h in table.values] == values, knot


def test_one_wrong_coefficient_is_caught_at_every_k(tables):
    rng = random.Random(12)
    for knot, table in tables.items():
        a = point.draw(2 * MAX_K + 2)
        values = point.h_values(knot, MAX_K, a)
        for k, h in enumerate(table.values):
            support = [e for e, _ in h.items()]
            exponents = {support[0] - 2, support[0], support[-1], support[-1] + 2}
            exponents.update(rng.choice(support) for _ in range(4))
            for e in exponents:
                for sign in (1, -1):
                    wrong = h + LaurentPoly.monomial(e, sign)
                    assert point.evaluate(wrong, a) != values[k], (knot, k, e)


def test_evaluate_is_horner_over_the_exponents():
    a = point.draw(4)
    assert point.evaluate(LaurentPoly(), a) == 0
    poly = LaurentPoly({-6: 3, -2: -1, 4: 7, 10: 1})
    direct = sum(c * pow(a, e % (point.P - 1), point.P) for e, c in poly.items()) % point.P
    assert point.evaluate(poly, a) == direct


@given(
    st.integers(1, 7),
    st.integers(-60, 60),
    st.dictionaries(st.integers(-25, 25), st.integers(-(10**40), 10**40), max_size=12),
    st.integers(2, point.P - 1),
)
@example(1, 0, {}, 5)  # zero
@example(1, -9, {0: -3}, 5)  # a monomial at a negative exponent
def test_evaluate_equals_the_naive_sum(stride, shift, terms, a):
    # negative exponents, strides above 1 and lists with gaps, against sum c a^e mod P
    poly = LaurentPoly({shift + stride * e: c for e, c in terms.items()})
    naive = sum(c * pow(a, e, point.P) for e, c in poly.items()) % point.P
    assert point.evaluate(poly, a) == naive


def test_draw_redraws_points_where_a_brace_vanishes(monkeypatch):
    # a = 0 has no inverse, a = ±1 make every {n} vanish, and a cube root of
    # unity makes {3} vanish: a^12 = 1
    root = next(r for r in (pow(g, (point.P - 1) // 3, point.P) for g in range(2, 50)) if r != 1)
    assert root != 1 and pow(root, 12, point.P) == 1
    draws = iter([0, 1, point.P - 1, root, 5])
    monkeypatch.setattr(point.os, "urandom", lambda n: next(draws).to_bytes(n, "big"))
    assert point.draw(3) == 5
    # {1} and {2} do not vanish at the cube root, so a smaller top keeps it
    draws = iter([root])
    assert point.draw(2) == root

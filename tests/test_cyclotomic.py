import sys
from collections import Counter
from fractions import Fraction

import pytest

from cyclojones import (
    CoeffTable,
    IndexOutOfRange,
    IntegralityFailure,
    KnotSpec,
    LaurentFraction,
    LaurentPoly,
    QSymbolCache,
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
import cyclojones.cyclotomic as cyclotomic_mod
from cyclojones.laurent import binomial_table

A = LaurentPoly.monomial
Q = A(4)  # the q-series variable


def over_q_minus_1(num: LaurentPoly) -> LaurentFraction:
    """num / (q - 1), q - 1 = A^4 - 1 = Φ_1(A) Φ_2(A) Φ_4(A)."""
    return LaurentFraction.over_cyclotomic(num, binomial_table(4))


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
    assert (KnotSpec.half(2, 5).s, KnotSpec.half(2, 5).r) == (5, None)
    assert (KnotSpec.full(2, -1).r, KnotSpec.full(2, -1).s) == (-1, None)
    assert str(KnotSpec.half(2, 1)) == "K(2, 1/2)"
    assert str(KnotSpec.full(1, -3)) == "K(1, -3)"


@pytest.mark.parametrize(
    "names, form",
    [
        ((KnotSpec.full(1, 2), KnotSpec.half(-1, 3)), (7, 2)),  # 5_2
        ((KnotSpec.full(3, -2), KnotSpec.full(-2, 3)), (25, 4)),  # K(p, r) = K(r, p)
        ((KnotSpec.full(1, -1), KnotSpec.full(-1, 1)), (5, 2)),  # 4_1
        ((KnotSpec.half(2, 1), KnotSpec.full(-1, -1)), (3, 1)),  # the trefoil
        ((KnotSpec.half(2, -1),), (5, 1)),  # the torus knot T(2, 5), not 4_1
        ((KnotSpec.half(1, 1), KnotSpec.half(-1, -1)), (1, 0)),  # the unknot
        ((KnotSpec.full(-1, -2),), (7, 3)),  # the mirror of 5_2 is another knot
    ],
    ids=["5_2", "swapped-twists", "4_1", "trefoil", "T(2,5)", "unknot", "mirror-5_2"],
)
def test_two_bridge_normal_form_of_known_knots(names, form):
    assert [knot.two_bridge for knot in names] == [form] * len(names)


def test_equal_normal_forms_are_exactly_equal_tables(cache):
    # over p, r in ±1..±4 and odd s in -7..7, two knots have one normal form
    # iff their H_0..H_6 are bit-equal: the forms neither merge two knots nor
    # split one, and mirrors, which have other tables, stay apart
    twists = [t for t in range(-4, 5) if t]
    knots = [KnotSpec.full(p, r) for p in twists for r in twists]
    knots += [KnotSpec.half(p, s) for p in twists for s in range(-7, 8, 2)]
    tables = {knot: coefficient_table(knot, 6, cache).values for knot in knots}
    assert len(knots) == 128 and len({knot.two_bridge for knot in knots}) == 79
    disagree = [(a, b) for i, a in enumerate(knots) for b in knots[i + 1:]
                if (a.two_bridge == b.two_bridge) != (tables[a] == tables[b])]
    assert disagree == []


def test_c_prime(cache):
    for p in (-3, -2, -1, 1, 2, 3):
        assert c_prime(0, p, cache) == 1
    for k in range(11):
        assert c_prime(k, 1, cache) == A(k * (k + 3), -1 if k & 1 else 1)
    assert c_prime(1, 2, cache) == -A(4) - A(12)  # -𝔮^2 - 𝔮^6
    assert c_prime(1, -1, cache) == A(-4)  # 𝔮^-2
    with pytest.raises(ValueError):
        c_prime(1, 0, cache)


def test_c_prime_mirror(cache):
    # c'_{k,-p}(A) = (-1)^k c'_{k,p}(A^-1): the mirror changes the sign of p
    for k in range(13):
        for p in range(1, 6):
            mirror = c_prime(k, p, cache).substitute_power(-1)
            assert c_prime(k, -p, cache) == (-mirror if k & 1 else mirror), (k, p)


def test_c_tilde_prime(cache):
    for s in (1, 3, 5, -1, -3):
        assert c_tilde_prime(0, s, cache) == LaurentFraction(1)
    assert c_tilde_prime(1, 1, cache) == over_q_minus_1(Q)
    assert c_tilde_prime(1, 3, cache) == over_q_minus_1(Q * (1 - Q + A(8)))
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
    assert d_kjp(1, 0, 1, cache) == over_q_minus_1(A(-4))
    assert d_kjp(1, 0, -1, cache) == over_q_minus_1(-A(8))  # q^2/(1-q)
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


def _asker(frame):
    """The frame that asked for a collapse: past a QSymbolCache.memo build,
    the memo's caller."""
    if frame.f_back.f_code is QSymbolCache.memo.__code__:
        return frame.f_back.f_back
    return frame


def _record_collapses(monkeypatch, record):
    """Call record(asking frame, lo, hi) on every division by {lo}...{hi}
    (qcalc.brace_quotient) that cyclotomic asks for."""
    divide = cyclotomic_mod.brace_quotient

    def recording(num, lo, hi):
        record(_asker(sys._getframe(1)), lo, hi)
        return divide(num, lo, hi)

    monkeypatch.setattr(cyclotomic_mod, "brace_quotient", recording)


def test_half_twist_sums_divide_once(monkeypatch):
    # h_coeff_half divides its own sum once, by {1}...{2k+1} = {2k+1}! (the
    # recurrences' last term is num_k/{2k+2}; num_k went over {2k+2}!);
    # jones_walsh once, by {N}; the memoised sums and the q-Pascal binomials
    # divide by nothing, cold or warm
    cache = QSymbolCache()
    collapses = []
    _record_collapses(
        monkeypatch, lambda frame, lo, hi: collapses.append((frame.f_code.co_name, lo, hi))
    )
    knot = KnotSpec.half(-3, 5)
    for _ in ("cold", "warm"):
        collapses.clear()
        h_coeff_half(4, knot, cache)
        jones_walsh(5, knot, cache)
        ranges = lambda caller: [(lo, hi) for name, lo, hi in collapses if name == caller]
        assert ranges("h_coeff_half") == [(1, 9)]
        assert ranges("jones_walsh") == [(5, 5)]
        assert {name for name, _, _ in collapses} <= {"h_coeff_half", "jones_walsh", "c_prime"}


def test_coeffs_jones_requests_divide_only_by_single_factors(monkeypatch, capsys):
    # every quotient by {n}!, (q;q)_n or {N} is collapsed binomial by binomial;
    # exact_div is left with single cyclotomic polynomials Φ_d(A)
    from cyclojones.cli import main
    from cyclojones.laurent import cyclotomic_poly

    divisors = set()
    exact_div = LaurentPoly.exact_div

    def recording(self, divisor):
        divisors.add(divisor)
        return exact_div(self, divisor)

    monkeypatch.setattr(LaurentPoly, "exact_div", recording)
    for argv in (
        "coeffs --p -3 --s 5 --max-k 16 --no-cache --format json",
        "coeffs --p 3 --r -2 --max-k 20 --no-cache --format json",
        "jones --p 2 --s 1 --N 16 --route both --format json",
    ):
        assert main(argv.split()) == 0
    capsys.readouterr()
    phis = {cyclotomic_poly(d) for d in range(1, 200)}
    assert divisors <= phis, sorted(str(d) for d in divisors - phis)


def test_h_coeff_half_matches_paper_formula(cache):
    # the regrouped sum against (-1)^k sum_j d_{k,j,p} c'_{j,p} c~'_{j,s/2} term by term
    for p, s in ((2, 1), (-3, 5), (1, -1), (-2, 3)):
        knot = KnotSpec.half(p, s)
        for k in range(9):
            total = LaurentFraction(0)
            for j in range(k + 1):
                total = total + d_kjp(k, j, p, cache) * LaurentFraction(
                    c_prime(j, p, cache)
                ) * c_tilde_prime(j, s, cache)
            expected = total.to_poly()
            if k & 1:
                expected = -expected
            assert h_coeff_half(k, knot, cache) == expected, (knot, k)


def test_knot_memo_holds_one_knot():
    shared = QSymbolCache()
    first, second = KnotSpec.half(2, 1), KnotSpec.half(-3, 5)
    for k in (3, 5, 2, 6, 4):
        for knot in (first, second):
            assert h_coeff_half(k, knot, shared) == h_coeff_half(k, knot, QSymbolCache())
    key, memo = shared.coefficients["knot"]
    assert key == (second.p, second.s)
    assert set(memo) == {"P'", "diagonals"}
    assert len(memo["P'"]) == memo["diagonals"].level + 1 == 5  # rebuilt from k = 0 for H_4
    # jones_walsh of another knot replaces the slot with that knot's P'_j alone
    jones_walsh(4, first, shared)
    key, memo = shared.coefficients["knot"]
    assert key == (first.p, first.s)
    assert set(memo) == {"P'"}
    # a whole table keeps the P'_j for jones_walsh and drops the recurrences
    table = coefficient_table(second, 6, shared)
    key, memo = shared.coefficients["knot"]
    assert key == (second.p, second.s) and set(memo) == {"P'"}
    assert h_coeff_half(7, second, shared) == h_coeff_half(7, second, QSymbolCache())
    assert table.values[6] == h_coeff_half(6, second, QSymbolCache())


def test_h_coeff_half_builds_no_product_per_term(monkeypatch):
    # with the knot's P'_j in the slot, the skein recurrences add shifted
    # packed terms: no binomial row is asked for, and the one product left is
    # the fraction's, both when the recurrences start again (k = 2) and go on
    knot, cache = KnotSpec.half(-3, 5), QSymbolCache()
    warm = [h_coeff_half(k, knot, cache) for k in range(9)]
    products, mul = [], LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: products.append(b) or mul(a, b))
    rows = []
    monkeypatch.setattr(QSymbolCache, "qbinom_balanced", lambda self, n, i: rows.append((n, i)))
    for k in (2, 8):
        products.clear()
        assert h_coeff_half(k, knot, cache) == warm[k]
        assert len(products) == 1, k
    assert not rows


def _spy(monkeypatch, name):
    calls = Counter()
    original = getattr(cyclotomic_mod, name)

    def spy(*args):
        calls[args[:-1]] += 1
        return original(*args)

    monkeypatch.setattr(cyclotomic_mod, name, spy)
    return calls


def test_half_table_computes_each_c_prime_once(monkeypatch):
    c_calls = _spy(monkeypatch, "c_prime")
    d_calls = _spy(monkeypatch, "_d_num")
    coefficient_table(KnotSpec.half(-3, 5), 16, QSymbolCache())
    assert sum(c_calls.values()) <= 17
    assert set(c_calls) == {(j, -3) for j in range(17)}
    assert not d_calls


def test_jones_both_routes_compute_each_p_term_once(monkeypatch, capsys):
    from cyclojones.cli import main

    c_calls = _spy(monkeypatch, "c_prime")
    num_calls = _spy(monkeypatch, "_c_num")
    assert main(["jones", "--p", "2", "--s", "1", "--N", "16", "--route", "both"]) == 0
    capsys.readouterr()
    assert c_calls == Counter({(j, 2): 1 for j in range(16)})
    # _c_num(j, s): the c~' numerator of P_j, once per j
    assert num_calls == Counter({(j, 1): 1 for j in range(16)})


def test_integrality_check_divides_each_c_prime_once(monkeypatch):
    # c'_{k,p} is shared by every knot with p in a twist region: the check's
    # 36 knots collapse it once per (k, p) on their one cache
    from cyclojones.verify import VerifyGrid, _run_group, check_integrality

    collapsed = Counter()

    def record(frame, lo, hi):
        if frame.f_code.co_name == "c_prime":
            collapsed[frame.f_locals["k"], frame.f_locals["p"]] += 1

    _record_collapses(monkeypatch, record)
    grid = VerifyGrid()
    [(result, _)] = _run_group([check_integrality], grid)
    assert result.passed
    assert collapsed == Counter({(k, p): 1 for k in range(grid.max_k + 1) for p in grid.p_values})
    assert sum(collapsed.values()) == 66


def test_c_prime_collapses_over_its_own_denominator(monkeypatch):
    # c'_{k,p} is its l-sum over {k+1}...{2k+1} = {2k+1}!/{k}!, divided
    # once, and agrees with the q-Pochhammer form and the Bailey multi-sum
    from cyclojones import bailey

    ranges = {}

    def record(frame, lo, hi):
        if frame.f_code.co_name == "c_prime":
            ranges.setdefault((frame.f_locals["k"], frame.f_locals["p"]), []).append((lo, hi))

    _record_collapses(monkeypatch, record)
    cache = QSymbolCache()
    for k in range(13):
        for p in (-3, -2, -1, 1, 2, 3):
            value = c_prime(k, p, cache)
            assert ranges[k, p] == [(k + 1, 2 * k + 1)], (k, p)
            assert value == c_prime_qform(k, p, cache), (k, p)
            assert value == bailey.multisum_c_prime(k, p, cache), (k, p)


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

    knot = KnotSpec.half(2, 1)
    N = 4
    value = jones_half(N, knot, cache).value
    with mpmath.workdps(80):
        direct = value.eval_unit_root(1, 16)
        assembled = mpmath.mpc(0)
        for k in range(N):
            h = h_coeff_half(k, knot, cache)
            assembled += h.eval_unit_root(1, 16) * cache.cyclo_block(N, k).eval_unit_root(1, 16)
        assert abs(direct - assembled) < mpmath.mpf("1e-40")


def test_coefficient_table(cache, tmp_path):
    from cyclojones.serialize import CoeffCache

    knot = KnotSpec.half(2, 1)
    table = coefficient_table(knot, 4, cache)
    assert table.values[:2] == (1, -A(-8)) and table.max_k == 4
    assert table.checks == {"integrality"}
    for N in range(1, 6):
        assert jones_from_table(N, table, cache).value == jones_half(N, knot, cache).value
    full = KnotSpec.full(2, -1)
    full_table = coefficient_table(full, 4, cache)
    for N in range(1, 6):
        assert jones_from_table(N, full_table, cache).value == jones_int(N, full, cache).value
    checked = coefficient_table(KnotSpec.half(1, 3), 3, cache, cross_check=True)
    assert checked.checks == {"integrality", "multisum"}
    checked_int = coefficient_table(full, 3, cache, cross_check=True)
    assert checked_int.checks == {"integrality", "multisum"}
    checked_neg = coefficient_table(KnotSpec.half(1, -3), 3, cache, cross_check=True)
    assert checked_neg.checks == {"integrality", "multisum"}
    # a store changes where H_k comes from, never the table or its checks
    for i, (knot, cross_check) in enumerate(
        ((KnotSpec.half(2, 1), False), (KnotSpec.half(1, 3), True), (full, True))
    ):
        plain = coefficient_table(knot, 3, cache, cross_check)
        cold = coefficient_table(knot, 3, cache, cross_check, CoeffCache(tmp_path / str(i)))
        store = CoeffCache(tmp_path / str(i))
        warm = coefficient_table(knot, 3, cache, cross_check, store)
        assert store._hits == 1  # the knot's table, read once
        assert cold == warm == plain


def test_cross_check_compares_c_tilde_for_negative_s(cache, monkeypatch):
    import cyclojones.bailey as bailey_mod

    wrong = LaurentPoly.from_int(2)
    monkeypatch.setattr(bailey_mod, "multisum_c_tilde", lambda k, m, cache=None: wrong)
    with pytest.raises(IntegralityFailure, match="c~' mismatch at k=0, s=-1"):
        coefficient_table(KnotSpec.half(1, -1), 3, cache, cross_check=True)


def test_coeff_table_rejects_bad_entries(cache):
    knot = KnotSpec.half(2, 1)
    good = coefficient_table(knot, 2, cache)
    for values in (good.values[1:], ()):  # H_0 missing
        with pytest.raises(ValueError, match="^H_0 must equal 1$"):
            CoeffTable(knot, values, good.checks)
    # an odd base, and an even base with an odd stride (no A^1 term: the
    # least odd exponent is A^3) are refused; even base and stride pass
    table = lambda h1: CoeffTable(knot, (good.values[0], h1), frozenset())  # noqa: E731
    for bad, least_odd in ((A(1) + A(5), 1), (A(0) + A(3) + A(5), 3)):
        with pytest.raises(ValueError, match="H_1 has odd A-exponents"):
            table(bad)
        with pytest.raises(IntegralityFailure, match=f"odd A-exponent {least_odd} "):
            cyclotomic_mod._require_even(bad, "H_1")
    even = A(2) - A(6)
    assert table(even).values[1] == even and table(even).max_k == 1
    assert cyclotomic_mod._require_even(even, "H_1") is even


def test_d_kjp_through_one_cache_equals_fresh_caches():
    # the p-free kernel is kept for the last (k, j): p = ±1..±3 in a row reuse it
    shared = QSymbolCache()
    for k in range(9):
        for j in range(k + 1):
            for p in (-3, -2, -1, 1, 2, 3):
                assert d_kjp(k, j, p, shared) == d_kjp(k, j, p, QSymbolCache()), (k, j, p)
            assert shared.coefficients["d_kernel"][0] == (k, j)


def test_multisum_d_check_keeps_one_d_kernel(monkeypatch):
    import cyclojones.verify as verify_mod

    caches = []

    class Recording(QSymbolCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(verify_mod, "QSymbolCache", Recording)
    grid = verify_mod.VerifyGrid()
    [(result, _)] = verify_mod._run_group([verify_mod.check_multisum_d], grid)
    assert result.passed
    (cache,) = caches
    kernels = [key for key in cache.coefficients if "d_kernel" in str(key)]
    assert kernels == ["d_kernel"]
    (k, j), kernel = cache.coefficients["d_kernel"]
    assert (k, j) == (grid.max_k, grid.max_k) and len(kernel) == 1


def test_half_twist_knots_on_one_cache_equal_per_knot_caches():
    # the c~' numerators _c_num(j, s) are shared by every knot with the same s
    from cyclojones.verify import VerifyGrid

    grid = VerifyGrid()
    shared = QSymbolCache()
    knots = grid.half_knots()
    assert len(knots) == 18
    for knot in knots:
        fresh = QSymbolCache()
        for k in range(grid.max_k + 1):
            assert h_coeff_half(k, knot, shared) == h_coeff_half(k, knot, fresh), (knot, k)
    assert {key[2] for key in shared.coefficients if key[0] == "_c_num"} == {1, 3, 5}

from math import comb

import pytest

from cyclojones import (
    IndexOutOfRange,
    LaurentFraction,
    LaurentPoly,
    QSymbolCache,
    bailey_lemma_check,
    c_prime,
    c_tilde_prime,
    chain_step,
    chain_sum,
    d_kjp,
    multisum_c_prime,
    multisum_c_tilde,
    multisum_d,
    squared_pair,
    unit_pair,
    verify_bailey_pair,
)
from cyclojones.bailey import beta_from_alpha
from cyclojones.laurent import binomial_table

A = LaurentPoly.monomial
Q = A(4)


def over_q_minus_1(num: LaurentPoly) -> LaurentFraction:
    """num / (q - 1), q - 1 = A^4 - 1 = Φ_1(A) Φ_2(A) Φ_4(A)."""
    return LaurentFraction.over_cyclotomic(num, binomial_table(4))


def unit_weight(a, b):
    return LaurentPoly.one()


def box_weight(a, b):  # q^(k_1 + ... + k_{L-1}): partitions in an (L - 1) x top box
    return A(4 * a)


def test_chain_sum_small_cases():
    assert chain_sum(2, 2, box_weight) == 1 + Q + A(8)
    assert chain_sum(5, 1, box_weight) == LaurentPoly.one()
    assert chain_sum(5, 1, box_weight, beta=lambda a: A(a)) == A(5)
    assert comb(3 + 3 - 1, 3 - 1) == 10
    assert chain_sum(3, 3, unit_weight) == LaurentPoly.from_int(10)
    with pytest.raises(IndexOutOfRange):
        chain_sum(-1, 2, unit_weight)
    with pytest.raises(ValueError):
        chain_sum(2, 0, unit_weight)


def test_chain_counts_stars_and_bars(cache):
    for top in range(9):
        for length in range(1, 6):
            chains = comb(top + length - 1, length - 1)  # stars and bars
            assert chain_sum(top, length, unit_weight).value_at_one() == chains
            box = chain_sum(top, length, box_weight)
            assert box == cache.qbinom(top + length - 1, length - 1)
            assert box.value_at_one() == chains


def test_long_chains_need_no_recursion_depth():
    # one level per part used to end in RecursionError near length 1000
    assert chain_sum(0, 5000, box_weight) == LaurentPoly.one()
    assert chain_sum(1, 1500, unit_weight) == LaurentPoly.from_int(comb(1500, 1499))


def test_unit_pair_verifies(cache):
    pair = unit_pair(cache)
    assert pair.alpha(0) == pair.beta(0)  # k = 0 degenerate case
    failures = verify_bailey_pair(pair, 12, cache)
    assert not failures, failures


def test_squared_pair_verifies(cache):
    failures = verify_bailey_pair(squared_pair(cache), 12, cache)
    assert not failures, failures


def test_shifted_pair_verifies(cache):
    for shift in range(3):
        failures = verify_bailey_pair(unit_pair(cache, 2 * shift + 2), 8, cache)
        assert not failures, (shift, failures)
    with pytest.raises(IndexOutOfRange):
        unit_pair(cache, 0)


def test_unit_family_matches_the_formulas_it_replaces(cache):
    # x = q: (-1)^l q^(l(3l+1)/2) (1 - q^(2l+1))/(1 - q), numerator and denominator alike
    for l in range(13):
        alpha = unit_pair(cache).alpha(l)
        num = A(2 * l * (3 * l + 1), -1 if l & 1 else 1) * (1 - A(4 * (2 * l + 1)))
        expect = cache.pochhammer_recip(1, 1) * num
        assert alpha.num == expect.num and alpha.den == expect.den, l
    # x = q^(2j+2): the shifted pair's own formula, over (q;q)_l (q;q)_x
    for x in (2, 4, 6):
        pair = unit_pair(cache, x)
        for l in range(9):
            num = A(4 * (l * l + x * l + l * (l - 1) // 2), -1 if l & 1 else 1)
            num = num * (1 - A(4 * (2 * l + x))) * cache.pochhammer(1, x + l - 1)
            shifted = cache.pochhammer_recip(1, l) * cache.pochhammer_recip(1, x) * num
            assert pair.alpha(l) == shifted, (x, l)


def test_broken_pair_is_reported(cache):
    pair = unit_pair(cache)
    broken = type(pair)(pair.alpha, lambda k: LaurentFraction(k + 2), pair.x_exp, "broken")
    assert 0 in verify_bailey_pair(broken, 4, cache)


def test_chain_step_preserves_relation(cache):
    for base in (unit_pair(cache), squared_pair(cache)):
        current = base
        for _ in range(3):
            current = chain_step(current, cache)
            assert verify_bailey_pair(current, 10, cache) == ()


def test_chain_step_alpha_prefactor(cache):
    base = unit_pair(cache)
    assert chain_step(base, cache).alpha(0) == base.alpha(0)
    # p-1 steps multiply alpha_l by q^((l^2+l)(p-1)) when x = q
    current = base
    for steps in range(1, 4):
        current = chain_step(current, cache)
        for l in range(6):
            expect = base.alpha(l) * LaurentFraction(A(4 * (l * l + l) * steps))
            assert current.alpha(l) == expect


def test_bailey_lemma(cache):
    for pair in (unit_pair(cache), squared_pair(cache)):
        assert bailey_lemma_check(pair, 0, cache)
        for k in range(9):
            assert bailey_lemma_check(pair, k, cache)
        iterate = chain_step(pair, cache)
        for k in range(6):
            assert bailey_lemma_check(iterate, k, cache)


def test_shifted_pair_feeds_multisum_d(cache):
    # beta reproduction for the x = q^(2j+2) pair underlies multisum_d
    for shift in range(3):
        pair = unit_pair(cache, 2 * shift + 2)
        for k in range(6):
            assert beta_from_alpha(pair, k, cache) == pair.beta(k)
    # pinned regression: the k=1, j=0 case fixes the (-1)^(k-j) prefactor
    assert cache.pochhammer_recip(1, 1) * multisum_d(1, 0, 1, cache) == over_q_minus_1(A(-4))


def test_multisum_c_prime(cache):
    for k in range(9):
        assert multisum_c_prime(k, 1, cache) == A(k * (k + 3), -1 if k & 1 else 1)
    assert multisum_c_prime(1, -1, cache) == A(-4)  # 𝔮^-2
    assert multisum_c_prime(1, 2, cache) == -A(4) - A(12)
    with pytest.raises(ValueError):
        multisum_c_prime(1, 0, cache)


def test_multisum_c_tilde(cache):
    # the numerator over (q;q)_k; (q;q)_0 = 1 and (q;q)_1 = 1 - q
    for m in (1, 2, 3):
        assert multisum_c_tilde(0, m, cache) == LaurentPoly.one()
    over_q1 = cache.pochhammer_recip(1, 1)
    assert over_q1 * multisum_c_tilde(1, 1, cache) == over_q_minus_1(Q)
    assert over_q1 * multisum_c_tilde(1, 2, cache) == over_q_minus_1(Q * (1 - Q + A(8)))
    with pytest.raises(ValueError):
        multisum_c_tilde(1, 0, cache)


def test_multisum_d(cache):
    # the numerator over (q;q)_{k-j}
    over_q1 = cache.pochhammer_recip(1, 1)
    assert over_q1 * multisum_d(1, 0, 1, cache) == over_q_minus_1(A(-4))
    assert over_q1 * multisum_d(1, 0, -1, cache) == over_q_minus_1(-A(8))
    for k in range(6):
        assert multisum_d(k, k, 2, cache) == A(-8 * k * (k + 2))


def test_multisum_d_chain_weight_regression(cache):
    # the chain weight must carry the full x^{k_i} q^{k_i^2} with
    # x = q^(2j+2); hand values at k=1, j=0, |p|=2 pin this down
    # (a q^(k_i^2+k_i) weight would give (q^2+q^4)/(1-q) below)
    over_q1 = cache.pochhammer_recip(1, 1)
    assert over_q1 * multisum_d(1, 0, -2, cache) == over_q_minus_1(-(A(8) + A(20)))
    assert over_q1 * multisum_d(1, 0, 2, cache) == over_q_minus_1(A(-4) + A(-16))
    assert over_q1 * multisum_d(1, 0, -2, cache) == d_kjp(1, 0, -2, cache)
    assert over_q1 * multisum_d(1, 0, 2, cache) == d_kjp(1, 0, 2, cache)


def test_multisum_equals_single_sum(cache):
    for k in range(8):
        for p in (-3, -2, -1, 1, 2, 3):
            assert multisum_c_prime(k, p, cache) == c_prime(k, p, cache)
        for m in (1, 2, 3):
            multisum = cache.pochhammer_recip(1, k) * multisum_c_tilde(k, m, cache)
            assert multisum == c_tilde_prime(k, 2 * m - 1, cache)
        for j in range(k + 1):
            for p in (-2, -1, 1, 2):
                multisum = cache.pochhammer_recip(1, k - j) * multisum_d(k, j, p, cache)
                assert multisum == d_kjp(k, j, p, cache)


def test_multisum_outputs_manifestly_integral(cache):
    # c' is a polynomial outright; c~' and d are given as their numerators over
    # one Pochhammer factor, polynomials in q^(1/4) = A
    for k in range(6):
        sums = [multisum_c_prime(k, 3, cache), multisum_c_tilde(k, 2, cache)]
        sums += [multisum_d(k, j, 2, cache) for j in range(k + 1)]
        for poly in sums:
            assert isinstance(poly, LaurentPoly)
        assert all(e % 2 == 0 for e, _ in sums[0].items())


def test_inverted_pochhammer_identity(cache):
    # corrected q -> 1/q law: (1/q;1/q)_k = (-1)^k q^(-k(k+1)/2) (q;q)_k
    for k in range(9):
        lhs = cache.pochhammer(1, k).substitute_power(-1)
        sign = -1 if k & 1 else 1
        assert lhs == A(-2 * k * (k + 1), sign) * cache.pochhammer(1, k)
    # Gaussian binomial inversion: [k l]_{1/q} = q^(l^2-lk) [k l]_q
    for k in range(9):
        for l in range(k + 1):
            lhs = cache.qbinom(k, l).substitute_power(-1)
            assert lhs == A(4 * (l * l - l * k)) * cache.qbinom(k, l)


def test_bailey_lemma_check_computes_each_beta_once(monkeypatch):
    # the right side's beta_j is shared by every k >= j on one cache
    from collections import Counter

    import cyclojones.bailey as bailey_mod
    from cyclojones.verify import VerifyGrid, _run_group, check_bailey_lemma

    calls = Counter()
    original = bailey_mod.beta_from_alpha

    def spy(pair, k, cache=None):
        calls[pair.label, k] += 1
        return original(pair, k, cache)

    monkeypatch.setattr(bailey_mod, "beta_from_alpha", spy)
    grid = VerifyGrid()
    [(result, _)] = _run_group([check_bailey_lemma], grid)
    assert result.passed
    labels = ("unit", "squared", "chain(unit)", "chain(squared)",
              "chain(chain(unit))", "chain(chain(squared))")
    right = Counter({(label, j): 1 for label in labels for j in range(grid.bridge_k + 1)})
    left = Counter({(f"chain({label})", k): 1 for label in labels for k in range(grid.bridge_k + 1)})
    assert calls == right + left


def test_bailey_lemma_check_frees_its_cache_without_the_cyclic_collector(monkeypatch):
    # the pairs hold the group's cache in their closures; nothing the cache
    # holds may lead back to them, or the cache outlives the verify run
    import gc
    import weakref

    import cyclojones.verify as verify_mod

    refs = []

    class Recording(QSymbolCache):
        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(verify_mod, "QSymbolCache", Recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        [(result, _)] = verify_mod._run_group([verify_mod.check_bailey_lemma], verify_mod.VerifyGrid())
        assert result.passed
        assert len(refs) == 1 and refs[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_chain_sums_match_termwise_addition():
    # chain_sum adds level by level: the same sum as chain by chain, with the
    # chains top = k_L >= ... >= k_1 >= 0 listed here
    from itertools import combinations_with_replacement

    cache = QSymbolCache()
    weight = lambda a, b: A(4 * (-a * b - 3 * a)) * cache.qbinom(b, a)  # noqa: E731
    beta = lambda k1: cache.pochhammer_ratio(1, 5, k1)  # noqa: E731
    for top in range(6):
        for length in range(1, 4):
            for start in (None, beta):
                expect = LaurentPoly.zero()
                for tail in combinations_with_replacement(range(top + 1), length - 1):
                    ks = tail + (top,)
                    term = LaurentPoly.one() if start is None else start(ks[0])
                    for a, b in zip(ks, ks[1:]):
                        term = term * weight(a, b)
                    expect = expect + term
                assert chain_sum(top, length, weight, start) == expect


def test_chain_sums_without_the_diagonal_step_fail_their_checks(monkeypatch):
    # a level that skips a = b (k_{i+1} = k_i) loses every chain with a repeated part
    import cyclojones.bailey as bailey_mod
    from cyclojones.verify import VerifyGrid, _run_group, check_chain_counts, check_multisum_c_prime

    original = bailey_mod.chain_sum

    def strict(top, length, weight, beta=None):
        return original(top, length, lambda a, b: weight(a, b) if a < b else LaurentPoly.zero(), beta)

    monkeypatch.setattr(bailey_mod, "chain_sum", strict)
    (counts, _), (c_prime_row, _) = _run_group([check_chain_counts, check_multisum_c_prime], VerifyGrid())
    assert not counts.passed and counts.detail.startswith("36/45 failed")
    assert not c_prime_row.passed


def test_numerator_checks_build_no_fraction(fractions_built):
    # the multi-sum comparisons, the identities on d and the t_{k,i} collapses
    # compare and divide Laurent polynomials only
    from cyclojones import verify

    checks = [verify.check_multisum_c_prime, verify.check_multisum_c_tilde, verify.check_multisum_d,
              verify.check_skein_bridge, verify.check_q_inversion, verify.check_twist_inverse]
    results = verify._run_group(checks, verify.VerifyGrid())
    assert [result.passed for result, _ in results] == [True] * len(checks)
    assert fractions_built == []


def _plant(monkeypatch, module, name, at, error=LaurentPoly.one()):
    """module.name with error added to its value at the arguments at (the cache left out)."""
    original = getattr(module, name)

    def planted(*args):
        value = original(*args)
        return value + error if args[:len(at)] == at else value

    monkeypatch.setattr(module, name, planted)


def _failed_rows(*checks):
    from cyclojones.verify import VerifyGrid, _run_group

    return {result.check_id: result.detail for result, _ in _run_group(checks, VerifyGrid())
            if not result.passed}


@pytest.mark.parametrize(
    "target, argv, message",
    [
        # a d numerator, on the single-sum side: H_k does not sum it, so only the check sees it
        (("cyclotomic", "_d_num", (3, 1, 2)), "--p 2 --s 3",
         "multi-sum d mismatch at k=3, j=1, p=2"),
        # a c~' numerator on the multi-sum side, compared as is for s > 0 and at A^-1 for s < 0
        (("bailey", "multisum_c_tilde", (2, 2)), "--p 2 --s 3", "multi-sum c~' mismatch at k=2, s=3"),
        (("bailey", "multisum_c_tilde", (2, 2)), "--p 2 --s -3", "multi-sum c~' mismatch at k=2, s=-3"),
    ],
)
def test_a_planted_numerator_error_fails_the_cross_check_and_verify(target, argv, message, capsys,
                                                                   monkeypatch):
    import cyclojones.bailey as bailey_mod
    import cyclojones.cyclotomic as cyclotomic_mod
    from cyclojones import verify
    from cyclojones.cli import main

    module, name, at = target
    _plant(monkeypatch, {"bailey": bailey_mod, "cyclotomic": cyclotomic_mod}[module], name, at)
    assert main(f"coeffs {argv} --max-k 4 --no-cache --cross-check".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    if name == "_d_num":  # every identity on d sees it
        failed = _failed_rows(verify.check_multisum_d, verify.check_skein_bridge, verify.check_q_inversion)
        assert failed == {"cross/multisum-d": "1/396 failed: (3, 1, 2)",
                          "cross/skein-bridge": "1/270 failed: (3, 1, 2)",
                          "cyclotomic/q-inversion": "2/112 failed: (3, 1, -2), (3, 1, 2)"}
    else:
        failed = _failed_rows(verify.check_multisum_c_tilde)
        assert failed == {"cross/multisum-c-tilde": "1/33 failed: (2, 2)"}


def test_a_planted_chain_weight_error_fails_the_cross_check_and_verify(capsys, monkeypatch):
    # one wrong weight [2 over 1]_q of every chain step: each multi-sum with a chain
    # step (p, m or |p| >= 2) that passes from k_i = 1 to k_{i+1} = 2 is wrong
    import cyclojones.bailey as bailey_mod
    from cyclojones import verify
    from cyclojones.cli import main

    step = bailey_mod._binomial_step
    monkeypatch.setattr(bailey_mod, "_binomial_step", lambda a_exp, cache: lambda a, b: (
        step(a_exp, cache)(a, b) + (LaurentPoly.one() if (a, b) == (1, 2) else LaurentPoly.zero())))
    assert main("coeffs --p 2 --s 3 --max-k 4 --no-cache --cross-check".split()) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: multi-sum c' mismatch at k=2, p=2\n"
    failed = _failed_rows(verify.check_multisum_c_prime, verify.check_multisum_c_tilde,
                          verify.check_multisum_d)
    assert set(failed) == {"cross/multisum-c-prime", "cross/multisum-c-tilde", "cross/multisum-d"}
    assert "(2, 2)" in failed["cross/multisum-c-prime"]


@pytest.mark.parametrize("at, where", [((2, 3), "p=3"), ((2, -2), "r=-2")])
def test_a_planted_c_prime_error_names_its_twist(at, where, capsys, monkeypatch):
    # a full-twist knot compares the c' multi-sums of both of its twists
    import cyclojones.bailey as bailey_mod
    from cyclojones.cli import main

    _plant(monkeypatch, bailey_mod, "multisum_c_prime", at)
    assert main("coeffs --p 3 --r -2 --max-k 4 --no-cache --cross-check".split()) == 1
    assert capsys.readouterr().err == f"error: multi-sum c' mismatch at k=2, {where}\n"

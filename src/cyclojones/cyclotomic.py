"""Cyclotomic expansion coefficients H_k and colored Jones polynomials.

Double twist knots come in two families: K(p, r) with p and r full
twist regions, and K(p, s/2) with an odd number s of half twists in the
second region.  For both, the normalized colored Jones polynomial has
the cyclotomic expansion

    J'_N = sum_{k=0}^{N-1} H_k * {N+k}!/({N-1-k}!{N})

with H_k in Z[𝔮^{±1}].  This module computes H_k by the single-sum
coefficient formulas (c', c~', d) and assembles J'_N along two
independent routes whose exact agreement is a correctness certificate.
A knot is KnotSpec(p, r) or KnotSpec(p, s=s); a CoeffTable holds its
H_0..H_max_k as one tuple and the one check set every entry passed.

Each sum is taken over the braces its balanced binomials leave: c' over
{k+1}...{2k+1} = {2k+1}!/{k}! (its l-sum without the {k}!), H_k over
{2k+1}! and J'_N (Walsh route) over {N}, each divided once by
qcalc.brace_quotient, which builds no fraction unless the division is
inexact (the one diagnostic site for H_k).  c~' and d are fractions over
1/{2k+1}! and 1/({2j+2}...{2k+2}) only as c_tilde_prime and d_kjp; the
identities that check them (bailey.multisum_agreement, verify) compare
their numerators _c_num and _d_num as polynomials.  Every other sum is
accumulated in place in one list (_c_sum, lincomb).

H_k does not evaluate the d-sum term by term: with the sum over j
taken inside, it needs only the signed products P'_j = (-1)^j c'_j *
(numerator of c~'_j) and two binomial transforms of them, G_i against
[i+1+j over 2j+1] and num_k against [2k+2 over k-i] (h_coeff_half).  Both
transforms are the skein's change of basis between R_k and e_i, so
basis.BasisChange runs them as three-term recurrences, one level k at a
time, by shifts and additions of packed integers: a table up to max_k
costs O(max_k) polynomial products, those of the P'_j, and no binomial
product.  The QSymbolCache keeps the P'_j and the recurrences' last two
anti-diagonals for the knot last asked for (its "knot" slot), the
anti-diagonals only until coefficient_table has the whole table.  The
Walsh route reuses the same P'_j and nothing else.

c'_{k,p} depends on one twist and not on the knot: every knot with p
(or r) in a twist region shares it.  It lives in the cache's coefficient
store (QSymbolCache.coefficients) for as long as the cache, so a run
over many knots on one cache computes each c'_{k,p} once; so does the
numerator _c_num(j, s) of c~'_j, shared by every knot with s.
"""

from __future__ import annotations

from operator import add, sub

from .errors import CacheMismatch, IndexOutOfRange, IntegralityFailure, RemainderNonzero
from .laurent import LaurentFraction, LaurentPoly, lincomb
from .qcalc import QSymbolCache, brace, brace_quotient, braces_recip
from .record import Record

_ONE = LaurentPoly.one()


class KnotSpec(Record):
    """A double twist knot: p full twists, and in the second region either r full
    twists, K(p, r), or s half twists, K(p, s/2); exactly one of r and s is set."""

    p: int
    r: int | None = None
    s: int | None = None

    def _validate(self) -> None:
        if self.p == 0:
            raise ValueError("twist count p must be nonzero")
        if (self.r is None) == (self.s is None):
            raise ValueError("exactly one of r and s must be set")
        if self.r == 0:
            raise ValueError("full twist count r must be nonzero")
        if self.s is not None and self.s % 2 == 0:
            raise ValueError("half twist count s must be odd")

    @classmethod
    def full(cls, p: int, r: int) -> KnotSpec:
        return cls(p, r)

    @classmethod
    def half(cls, p: int, s: int) -> KnotSpec:
        return cls(p, s=s)

    @property
    def is_half(self) -> bool:
        return self.s is not None

    @property
    def two_bridge(self) -> tuple[int, int]:
        """Schubert's normal form (α, β) of the knot as the 2-bridge knot S(α, β):
        S(α, β) and S(α, β') are one knot iff β' ≡ β^(±1) mod α (a mirror, β → -β,
        is another), so every name of one knot, such as K(p, r) and K(r, p), has
        one normal form and, the expansion being unique, one H_k."""
        twist = self.s if self.is_half else 2 * self.r
        det = 2 * self.p * twist - 1  # 4pr - 1, or 2ps - 1
        alpha, beta = abs(det), twist if det > 0 else -twist
        return alpha, min(beta % alpha, pow(beta, -1, alpha))

    def __str__(self) -> str:
        return f"K({self.p}, {self.s}/2)" if self.is_half else f"K({self.p}, {self.r})"


class CoeffTable(Record):
    """Verified H_0..H_max_k of one knot, every entry with the same check provenance."""

    knot: KnotSpec
    values: tuple[LaurentPoly, ...]
    checks: frozenset[str]

    def _validate(self) -> None:
        if not self.values or self.values[0] != _ONE:
            raise ValueError("H_0 must equal 1")
        for k, h in enumerate(self.values):
            base, stride, _ = h.lattice()
            if base % 2 or stride % 2:
                raise ValueError(f"H_{k} has odd A-exponents")

    @property
    def max_k(self) -> int:
        return len(self.values) - 1


class JonesResult(Record):
    """One colored Jones value together with the route that produced it."""

    knot: KnotSpec
    N: int
    value: LaurentPoly
    route: str

    def _validate(self) -> None:
        if self.value.value_at_one() != 1:
            raise ValueError("normalized invariant must evaluate to 1 at A = 1")


# -- single-sum coefficients ------------------------------------------


def _c_sum(k: int, twist_exp: int, alternating: bool, cache: QSymbolCache) -> LaurentPoly:
    """The single sum of c' and c~' over the denominator {k+1}...{2k+1}:

        sum_l (±1)^l A^(twist_exp * l(l+1)) {2l+1} [2k+1 over k-l]

    {2l+1} = A^(4l+2) - A^-(4l+2) adds two shifted copies of each binomial's list
    into one list; for an even twist_exp all lie on one stride-4 lattice.
    """
    copies = []
    for l in range(k + 1):
        base, _, row = cache.qbinom_balanced(2 * k + 1, k - l).lattice()
        up, down = (sub, add) if alternating and l & 1 else (add, sub)
        start = twist_exp * l * (l + 1) + base + 4 * l + 2
        copies += [(start, up, row), (start - 8 * l - 4, down, row)]
    low = min(start for start, _, _ in copies)
    out = [0] * ((max(start + 4 * len(row) for start, _, row in copies) - low) // 4)
    for start, op, row in copies:
        i = (start - low) // 4
        out[i : i + len(row)] = map(op, out[i : i + len(row)], row)
    return LaurentPoly.from_lattice(low, 4, out)


def _c_num(k: int, s: int, cache: QSymbolCache) -> LaurentPoly:
    """{k}! times the c~'_{k,s/2} sum, its numerator over {2k+1}!, kept in the cache."""
    return cache.memo(("_c_num", k, s),
                      lambda: cache.brace_fact(k) * _c_sum(k, 2 * s, False, cache))


def c_prime(k: int, p: int, cache: QSymbolCache) -> LaurentPoly:
    """c'_{k,p} = {k}! sum_l (-1)^l 𝔮^(2pl(l+1)) {2l+1}/({k+l+1}!{k-l}!).

    With {2k+1}!/{k}! = {k+1}...{2k+1}, _c_sum divided by {k+1}...{2k+1}
    (brace_quotient) is a Laurent polynomial; a failure (RemainderNonzero)
    would signal a formula transcription error.  The value depends on k and
    p alone, so cache.memo keeps it under ("c_prime", k, p) and it is
    divided once per cache.
    """
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    if p == 0:
        raise ValueError("twist count p must be nonzero")
    return cache.memo(("c_prime", k, p),
                      lambda: brace_quotient(_c_sum(k, 4 * p, True, cache), k + 1, 2 * k + 1))


def c_tilde_prime(k: int, s: int, cache: QSymbolCache) -> LaurentFraction:
    """c~'_{k,s/2} = {k}! sum_l 𝔮^(sl(l+1)) {2l+1}/({k+l+1}!{k-l}!).

    Not a polynomial in general; {k}! times the value is.
    """
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    if s % 2 == 0:
        raise ValueError("half twist count s must be odd")
    return cache.brace_fact_recip(2 * k + 1) * _c_num(k, s, cache)


def _d_num(k: int, j: int, p: int, cache: QSymbolCache) -> LaurentPoly:
    """N_{k,j} = {2j+2}...{2k+2} d_{k,j,p}, a Laurent polynomial:

        N_{k,j} = sum_{i=j}^{k} (-1)^(i+j) A^(-4pi(i+2)) {2i+2} [i+1+j over 2j+1] [2k+2 over k-i]

    The cache keeps the p-free rest of each term for the last (k, j), so a
    loop over p builds it once.  Used by d_kjp and by the identities on d
    (bailey.multisum_agreement, verify's skein bridge and q-inversion);
    h_coeff_half runs the same binomial sums as skein recurrences.
    """
    kernel = cache.latest("d_kernel", (k, j), lambda: [
        cache.qbinom_balanced(i + 1 + j, 2 * j + 1) * cache.qbinom_balanced(2 * k + 2, k - i)
        for i in range(j, k + 1)
    ])
    return lincomb(
        (LaurentPoly.monomial(-4 * p * i * (i + 2), -1 if (i + j) & 1 else 1) * brace(2 * i + 2),
         term)
        for i, term in enumerate(kernel, j)
    )


def d_kjp(k: int, j: int, p: int, cache: QSymbolCache) -> LaurentFraction:
    """d_{k,j,p} = sum_{i=j}^{k} (-1)^(i+j) 𝔮^(-2pi(i+2))
                   {2i+2}{i+1+j}!/({k+i+2}!{k-i}!{i-j}!),

    taken as _d_num over {2j+2}...{2k+2} = {2k+2}!/{2j+1}!.
    """
    if not 0 <= j <= k:
        raise IndexOutOfRange(f"d coefficient needs 0 <= j <= k, got k={k}, j={j}")
    if p == 0:
        raise ValueError("twist count p must be nonzero")
    return braces_recip(2 * j + 2, 2 * k + 2) * _d_num(k, j, p, cache)


# -- cyclotomic coefficients ------------------------------------------


def _require_even(poly: LaurentPoly, what: str) -> LaurentPoly:
    base, stride, _ = poly.lattice()
    if base % 2 or stride % 2:  # canonical storage: all exponents even iff both are
        e = next(e for e, _ in poly.items() if e % 2)  # the least odd one
        raise IntegralityFailure(
            f"{what} has odd A-exponent {e} (not in Z[𝔮^±1])", LaurentFraction(poly)
        )
    return poly


def _p_terms(knot: KnotSpec, n: int, cache: QSymbolCache) -> list[LaurentPoly]:
    """The first n of the signed P'_j = (-1)^j c'_{j,p} _c_num(j, s), kept
    under "P'" in the cache's "knot" slot, which holds the last knot asked for."""
    P = cache.latest("knot", (knot.p, knot.s), dict).setdefault("P'", [])
    while len(P) < n:
        j = len(P)
        P.append(c_prime(j, knot.p, cache) * _c_num(j, knot.s, cache) * (-1) ** j)
    return P


def h_coeff_half(k: int, knot: KnotSpec, cache: QSymbolCache) -> LaurentPoly:
    """H_k(K(p, s/2)) = (-1)^k sum_{j=0}^{k} d_{k,j,p} c'_{j,p} c~'_{j,s/2}.

    With d_{k,j,p} c~'_{j,s/2} = N_{k,j} _c_num(j, s) / {2k+2}! (_d_num)
    and the i-sum of N_{k,j} taken outside, the numerator over {2k+2}! is
    (-1)^k num_k with

        num_k = sum_{i=0}^{k} [2k+2 over k-i] F_i,
        F_i = (-1)^i A^(-4pi(i+2)) {2i+2} G_i,  G_i = sum_{j=0}^{i} [i+1+j over 2j+1] P'_j,

    two changes of basis between R_k and e_i, run as the skein's three-term
    recurrences (basis.BasisChange) with no binomial product; H_k is (-1)^k
    their last term, num_k/{2k+2}, over {2k+1}! (brace_quotient).  The cache's
    "knot" slot keeps the P'_j and the recurrences at the last level asked
    for; a lower k, or a k past a table coefficient_table has completed,
    starts them again.  H_k must collapse into Z[𝔮^{±1}]; IntegralityFailure,
    carrying the fraction over 1/{2k+1}!, is a release-blocking diagnostic.
    """
    if not knot.is_half:
        raise TypeError("h_coeff_half needs a half-twist knot")
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    from .basis import BasisChange

    P = _p_terms(knot, k + 1, cache)
    slot = cache.latest("knot", (knot.p, knot.s), dict)
    change = slot.pop("diagonals", None)  # back in the slot only once it is whole
    if change is None or change.level > k:
        change = BasisChange(knot.p)
    while change.level < k:
        change.advance(P[change.level + 1])
    slot["diagonals"] = change
    num = change.h_num()
    try:
        value = brace_quotient(num, 1, 2 * k + 1)
    except RemainderNonzero as exc:
        raise IntegralityFailure(f"H_{k}({knot}) did not collapse to a Laurent polynomial",
                                 braces_recip(1, 2 * k + 1) * num) from exc
    return _require_even(value, f"H_{k}({knot})")


def h_coeff_int(k: int, knot: KnotSpec, cache: QSymbolCache) -> LaurentPoly:
    """H_k(K(p, r)) = (-1)^k c'_{k,p} c'_{k,r}."""
    if knot.is_half:
        raise TypeError("h_coeff_int needs a full-twist knot")
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    value = c_prime(k, knot.p, cache) * c_prime(k, knot.r, cache)
    if k & 1:
        value = -value
    return _require_even(value, f"H_{k}({knot})")


def h_coeff(k: int, knot: KnotSpec, cache: QSymbolCache) -> LaurentPoly:
    """H_k for either knot family."""
    if knot.is_half:
        return h_coeff_half(k, knot, cache)
    return h_coeff_int(k, knot, cache)


def coefficient_table(
    knot: KnotSpec,
    max_k: int,
    cache: QSymbolCache,
    cross_check: bool = False,
    store=None,
) -> CoeffTable:
    """Verified H_0..H_max_k for one knot.

    Every entry passes the integrality collapse; with cross_check the
    multi-sum route is also required to agree (c', c~' and d for half
    knots; both c' factors for integer knots) and recorded in the
    table's check set.

    With a store (a serialize.CoeffCache, or anything with its get, put
    and should_spot_check), the table is read from it once: get(knot,
    max_k) serves the stored H_0..H_m up to max_k, which another name of
    the knot (one with its two_bridge) may have stored, and if the store picks
    the hit for a spot check (every hit, for a CoeffCache) each served
    entry is checked at one random point of F_P against the paper's
    formula (cyclojones.point), raising CacheMismatch on any difference.
    Only H_{m+1}..H_max_k are computed, and the table is put back whole,
    once, only when it grew: of requests run one after another, a shorter
    one never cuts a longer stored table short.  Concurrent writers of
    one knot each replace the file, and the last to finish wins; a
    request that fails part way stores nothing.  Either costs only
    recomputation.
    """
    values = (None if store is None else store.get(knot, max_k)) or []
    served = len(values)
    if served and store.should_spot_check():
        from . import point
        a = point.draw(2 * served)
        expected = point.h_values(knot, served - 1, a)
        for k, h in enumerate(values):
            if (got := point.evaluate(h, a)) != expected[k]:
                raise CacheMismatch(f"cache entry for {knot} k={k} disagrees with recomputation at "
                                    f"A = {a} mod 2^127 - 1: entry {got}, formula {expected[k]}")
    for k in range(max_k + 1):
        if k == len(values):
            values.append(h_coeff(k, knot, cache))
        if cross_check:
            _multisum_check(knot, k, cache)
    if knot.is_half and served <= max_k:  # a whole table: the P'_j stay, the recurrences go
        cache.latest("knot", (knot.p, knot.s), dict).pop("diagonals", None)
    if store is not None and served <= max_k:
        store.put(knot, max_k, values)
    # cache provenance stays out of the checks: identical
    # configurations must serialize byte-identically, hit or miss
    checks = frozenset({"integrality", "multisum"} if cross_check else {"integrality"})
    return CoeffTable(knot, tuple(values), checks)


def _multisum_check(knot: KnotSpec, k: int, cache: QSymbolCache) -> None:
    from . import bailey

    if knot.is_half:
        names = {knot.p: "p"}
        found = bailey.multisum_agreement(k, cache, names, (knot.s,), (knot.p,))
    else:
        names = {knot.r: "r", knot.p: "p"}  # K(p, p) compares its one c' once
        found = bailey.multisum_agreement(k, cache, names)
    for (kind, *at), ok in found:
        if not ok:
            labels = {"c~'": ("s",), "d": ("j", "p")}.get(kind) or (names[at[0]],)
            where = ", ".join(f"{label}={value}" for label, value in zip(labels, at))
            raise IntegralityFailure(f"multi-sum {kind} mismatch at k={k}, {where}")


# -- colored Jones polynomials ----------------------------------------


def jones_half(N: int, knot: KnotSpec, cache: QSymbolCache) -> JonesResult:
    """J'_N via the cyclotomic expansion: sum_k H_k {N+k}!/({N-1-k}!{N})."""
    if N < 1:
        raise IndexOutOfRange("color N must be >= 1")
    if not knot.is_half:
        raise TypeError("jones_half needs a half-twist knot")
    return jones_from_table(N, coefficient_table(knot, N - 1, cache), cache)


def jones_from_table(N: int, table: CoeffTable, cache: QSymbolCache) -> JonesResult:
    """Assemble J'_N from precomputed H_k (needs max_k >= N-1)."""
    if N < 1:
        raise IndexOutOfRange("color N must be >= 1")
    if table.max_k < N - 1:
        raise IndexOutOfRange(f"table covers k <= {table.max_k}, need {N - 1}")
    total = lincomb((table.values[k], cache.cyclo_block(N, k)) for k in range(N))
    return JonesResult(table.knot, N, total, "theorem")


def jones_int(N: int, knot: KnotSpec, cache: QSymbolCache) -> JonesResult:
    """J'_N(K(p, r)) = sum_k (-1)^k c'_{k,p} c'_{k,r} {N+k}!/({N-1-k}!{N})."""
    if N < 1:
        raise IndexOutOfRange("color N must be >= 1")
    if knot.is_half:
        raise TypeError("jones_int needs a full-twist knot")
    return jones_from_table(N, coefficient_table(knot, N - 1, cache), cache)


def jones_walsh(N: int, knot: KnotSpec, cache: QSymbolCache) -> JonesResult:
    """J'_N via the twist-prefactor route:

        𝔮^(-2p(N^2-1)) sum_k (-1)^k c'_{k,p} c~'_{k,s/2} {N+k}!/({N-1-k}!{N})

    The k-sum, sum_k [N+k over 2k+1] P'_k with the memoised signed
    P'_k = (-1)^k c'_{k,p} _c_num(k, s), is divided once by {N}.
    Shares only P'_k, the c'/c~' single sums, with jones_half: this route
    sums binomial products, the other runs the skein recurrences of
    basis.BasisChange and collapses each H_k, so exact agreement of the two
    routes is a strong check.
    """
    if N < 1:
        raise IndexOutOfRange("color N must be >= 1")
    if not knot.is_half:
        raise TypeError("jones_walsh needs a half-twist knot")
    P = _p_terms(knot, N, cache)
    # c~'_{k,s/2} {N+k}!/({N-1-k}!{N}) = _c_num(k, s) [N+k over 2k+1] / {N}
    num = lincomb((cache.qbinom_balanced(N + k, 2 * k + 1), P[k]) for k in range(N))
    total = brace_quotient(num, N, N)
    prefactor = LaurentPoly.monomial(-4 * knot.p * (N * N - 1))
    return JonesResult(knot, N, prefactor * total, "walsh")


def c_prime_qform(k: int, p: int, cache: QSymbolCache) -> LaurentPoly:
    """c'_{k,p} rearranged through q-Pochhammer symbols:

        (-1)^k q^((k^2+3k)/4) sum_l (-1)^l q^(l(l+1)p + l(l-1)/2)
            (1 - q^(2l+1)) (q;q)_k / ((q;q)_{k+l+1} (q;q)_{k-l})

    The sum over (q;q)_{2k+1}, times (q;q)_k, collapses over 1/(q^(k+1);q)_(k+1).
    Must agree exactly with c_prime — a regression identity between the
    brace form and the Pochhammer form.
    """
    if k < 0:
        raise IndexOutOfRange("coefficient index must be >= 0")
    if p == 0:
        raise ValueError("twist count p must be nonzero")
    total = lincomb(
        (
            LaurentPoly.monomial(4 * l * (l + 1) * p + 2 * l * (l - 1), -1 if l & 1 else 1)
            * (_ONE - LaurentPoly.monomial(4 * (2 * l + 1))),
            cache.qbinom(2 * k + 1, k - l),
        )
        for l in range(k + 1)
    )
    collapsed = (cache.pochhammer_recip(k + 1, k + 1) * total).to_poly()
    prefactor = LaurentPoly.monomial(k * (k + 3), -1 if k & 1 else 1)
    return prefactor * collapsed

"""cyclojones: exact cyclotomic expansions for double twist knots.

Computes the cyclotomic expansion coefficients H_k and the
colored Jones polynomials J'_N of the knots K(p, r) and K(p, s/2), each
by at least two independent routes, in exact Laurent-polynomial
arithmetic over Z[A^{±1}] (𝔮 = A^2, q = A^4).
"""

from .bailey import (
    BaileyPair,
    Chain,
    bailey_lemma_check,
    chain_count,
    chain_step,
    enumerate_chains,
    multisum_c_prime,
    multisum_c_tilde,
    multisum_d,
    shifted_unit_pair,
    squared_pair,
    unit_pair,
    verify_bailey_pair,
)
from .cyclotomic import (
    CoeffTable,
    FullTwists,
    HalfTwists,
    JonesResult,
    KnotSpec,
    c_prime,
    c_prime_qform,
    c_tilde_prime,
    coefficient_table,
    d_kjp,
    h_coeff,
    h_coeff_half,
    h_coeff_int,
    jones_from_table,
    jones_half,
    jones_int,
    jones_walsh,
)
from .errors import (
    CyclojonesError,
    DivisionByZeroDenominator,
    IndexOutOfRange,
    IntegralityFailure,
    NotAdmissible,
    NotExpressible,
    RemainderNonzero,
)
from .laurent import LaurentFraction, LaurentPoly
from .qcalc import (
    QSymbolCache,
    brace,
    brace_fact,
    bracket,
    bracket_fact,
    cyclo_block,
    framing_mu,
    half_twist_delta,
    pochhammer,
    qbinom,
    qbinom_balanced,
)
from .skein import (
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
from .verify import VerificationReport, VerifyGrid, run_suite

__version__ = "0.1.0"

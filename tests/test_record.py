"""Records behave as the frozen value types the package relies on."""

import pickle

import pytest

from cyclojones import JonesResult, KnotSpec, LaurentPoly
from cyclojones.verify import CheckResult, VerifyGrid

A = LaurentPoly.monomial


def test_equality_is_by_type_and_fields():
    assert KnotSpec(2, 3) != KnotSpec(2, s=3)
    assert KnotSpec.full(2, 3) != KnotSpec.half(2, 3)
    assert KnotSpec(2, s=3) == KnotSpec.half(2, 3) == KnotSpec(p=2, s=3) == KnotSpec(2, None, 3)
    assert KnotSpec(2, 3) == KnotSpec.full(2, 3) == KnotSpec(p=2, r=3)
    assert hash(KnotSpec.half(2, 3)) == hash(KnotSpec(2, s=3))
    assert len({KnotSpec.half(2, 3), KnotSpec.half(2, 3), KnotSpec.full(2, 3)}) == 2
    assert KnotSpec.half(2, 3) != (2, None, 3)


def test_fields_cannot_be_assigned_or_deleted():
    knot = KnotSpec.half(2, 3)
    with pytest.raises(AttributeError):
        knot.p = 5
    with pytest.raises(AttributeError):
        del knot.s
    with pytest.raises(AttributeError):
        knot.extra = 1
    assert knot == KnotSpec.half(2, 3)


def test_construction_takes_positions_keywords_and_defaults():
    assert VerifyGrid(4, m_values=(1,)) == VerifyGrid(max_k=4, max_n=8, m_values=(1,))
    assert VerifyGrid().p_values == (-3, -2, -1, 1, 2, 3)
    for args, kwargs in [((), {}), ((1, 2, 3, 4), {}), ((1,), {"p": 1}), ((1, 3), {"r": 1})]:
        with pytest.raises(TypeError):
            KnotSpec(*args, **kwargs)
    assert KnotSpec(1, s=1) == KnotSpec.half(1, 1)
    assert repr(KnotSpec.half(2, 3)) == "KnotSpec(2, None, 3)"
    assert repr(KnotSpec.full(2, -1)) == "KnotSpec(2, -1, None)"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: KnotSpec.half(0, 1), "twist count p must be nonzero"),
        (lambda: KnotSpec.full(1, 0), "full twist count r must be nonzero"),
        (lambda: KnotSpec.half(1, 2), "half twist count s must be odd"),
        (lambda: KnotSpec(1), "exactly one of r and s must be set"),  # neither
        (lambda: KnotSpec(1, 1, 1), "exactly one of r and s must be set"),  # both
        (
            lambda: JonesResult(KnotSpec.half(2, 1), 2, A(4) + A(8), "theorem"),
            "normalized invariant must evaluate to 1 at A = 1",
        ),
    ],
)
def test_validation_keeps_its_messages(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_records_survive_a_pickle_round_trip():
    # verify --jobs sends grids and results through a process pool
    for record in (
        KnotSpec.half(-2, 5),
        KnotSpec.full(3, -1),
        VerifyGrid(max_k=3, p_values=(1, 2)),
        CheckResult("cross/route-agreement", "N <= 8", True, "18 identities checked"),
    ):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)

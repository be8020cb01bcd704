import json
import random

import pytest

from cyclojones import KnotSpec, LaurentPoly, NotExpressible, QSymbolCache, coefficient_table
from cyclojones.cyclotomic import h_coeff
from cyclojones.serialize import (
    CacheMismatch,
    CoeffCache,
    knot_from_obj,
    knot_to_obj,
    poly_from_json,
    poly_to_json,
    serialize,
)

A = LaurentPoly.monomial


def test_poly_json_schema():
    obj = json.loads(poly_to_json(LaurentPoly({-16: -1, -12: 1, -4: 1})))
    assert obj == {"variable": "A", "terms": [[-4, "1"], [-12, "1"], [-16, "-1"]]}


def test_poly_json_roundtrip_random():
    rng = random.Random(7)
    for _ in range(300):
        poly = LaurentPoly(
            {rng.randint(-200, 200): rng.randint(-(2**130), 2**130) for _ in range(rng.randint(0, 20))}
        )
        assert poly_from_json(poly_to_json(poly)) == poly


def test_knot_roundtrip():
    for knot in (KnotSpec.half(2, 1), KnotSpec.half(-3, 5), KnotSpec.full(1, -2)):
        assert knot_from_obj(knot_to_obj(knot)) == knot


def test_serialize_poly_formats():
    poly = A(4) + 1
    assert serialize(poly, "text").decode() == "𝔮^2 + 1\n"
    assert serialize(poly, "latex").decode() == "\\mathfrak{q}^{2} + 1\n"
    assert serialize(poly, "csv").decode() == "exponent,coefficient\n4,1\n0,1\n"
    assert json.loads(serialize(poly, "json"))["terms"] == [[4, "1"], [0, "1"]]
    with pytest.raises(ValueError):
        serialize(poly, "xml")


def test_serialize_latex_divisibility():
    with pytest.raises(NotExpressible):
        serialize(A(3), "latex", display="𝔮")


def test_serialize_table(cache):
    table = coefficient_table(KnotSpec.half(2, 1), 1, cache)
    text = serialize(table, "text").decode()
    assert text == "H_0 = 1\nH_1 = -𝔮^-4\n"
    csv = serialize(table, "csv").decode().splitlines()
    assert csv[0] == "k,polynomial" and csv[2] == '1,"-𝔮^-4"'
    obj = json.loads(serialize(table, "json"))
    assert obj["max_k"] == 1 and obj["entries"][1]["H"]["terms"] == [[-8, "-1"]]


def test_serialize_determinism(cache):
    table = coefficient_table(KnotSpec.half(2, 3), 3, cache)
    assert serialize(table, "json") == serialize(table, "json")


def test_cache_roundtrip(tmp_path, cache):
    store = CoeffCache(tmp_path)
    knot = KnotSpec.half(2, 1)
    assert store.get(knot, 0) is None
    value = h_coeff(1, knot, cache)
    store.put(knot, 1, value)
    assert store.get(knot, 1) == value
    # structural equality with recomputation (spot-check contract)
    assert store.get(knot, 1) == h_coeff(1, knot, QSymbolCache())


def test_cache_detects_tampering(tmp_path, cache):
    store = CoeffCache(tmp_path)
    knot = KnotSpec.full(1, 1)
    store.put(knot, 1, h_coeff(1, knot, cache))
    (path,) = tmp_path.glob("*.json")
    obj = json.loads(path.read_text())
    obj["value"]["terms"] = [[8, "-2"]]
    path.write_text(json.dumps(obj))
    with pytest.raises(CacheMismatch):
        store.get(knot, 1)


def test_cache_ignores_other_schema(tmp_path, cache):
    store = CoeffCache(tmp_path)
    knot = KnotSpec.full(1, 1)
    store.put(knot, 0, h_coeff(0, knot, cache))
    (path,) = tmp_path.glob("*.json")
    obj = json.loads(path.read_text())
    obj["schema"] = 999
    path.write_text(json.dumps(obj))
    assert store.get(knot, 0) is None


def test_every_hit_is_spot_checked(tmp_path, cache, monkeypatch):
    from cyclojones import point

    knot = KnotSpec.half(-2, 3)
    store = CoeffCache(tmp_path)
    assert store.get(knot, 0) is None and not store.should_spot_check()  # no hit yet
    cold = coefficient_table(knot, 8, cache, store=store)
    for _ in range(3):
        assert store.get(knot, 0) is not None and store.should_spot_check()
    # a warm table evaluates each of its nine hits at the point, and
    # computes the formula's values once
    evaluated, formula = [], []
    evaluate, h_values = point.evaluate, point.h_values
    monkeypatch.setattr(point, "evaluate", lambda h, a: evaluated.append(h) or evaluate(h, a))
    monkeypatch.setattr(point, "h_values", lambda *args: formula.append(args) or h_values(*args))
    warm = coefficient_table(knot, 8, cache, store=CoeffCache(tmp_path))
    assert warm == cold
    assert evaluated == [entry.h for entry in cold.entries]
    assert len(formula) == 1


def test_put_writes_the_two_pass_bytes(tmp_path, cache):
    # the value is serialized once and spliced in; the file keeps the bytes of
    # the object with the value and its digest serialized separately
    import hashlib

    store = CoeffCache(tmp_path)
    values = [h_coeff(k, KnotSpec.half(-3, 5), cache) for k in range(4)]
    values += [LaurentPoly(), LaurentPoly({-2: -(10 ** 40), 6: 3})]
    for knot in (KnotSpec.half(-3, 5), KnotSpec.full(2, -1)):
        for k, value in enumerate(values):
            value_obj = {"variable": "A", "terms": [[e, str(c)] for e, c in value.items()][::-1]}
            value_json = json.dumps(value_obj, sort_keys=True, separators=(",", ":"))
            obj = {
                "schema": 1,
                "knot": knot_to_obj(knot),
                "k": k,
                "value": value_obj,
                "digest": hashlib.sha256(value_json.encode()).hexdigest(),
            }
            store.put(knot, k, value)
            expected = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
            assert store._path(knot, k).read_text() == expected
            assert store.get(knot, k) == value


def test_cache_rejects_entry_filed_under_other_knot(tmp_path, cache):
    store = CoeffCache(tmp_path)
    source, target = KnotSpec.half(2, 1), KnotSpec.half(3, 1)
    store.put(source, 2, h_coeff(2, source, cache))
    store._path(source, 2).rename(store._path(target, 2))
    with pytest.raises(CacheMismatch, match="is not for"):
        store.get(target, 2)


def test_cache_rejects_entry_filed_under_other_k(tmp_path, cache):
    store = CoeffCache(tmp_path)
    knot = KnotSpec.half(2, 1)
    store.put(knot, 1, h_coeff(1, knot, cache))
    store._path(knot, 1).rename(store._path(knot, 2))
    with pytest.raises(CacheMismatch, match="is not for"):
        store.get(knot, 2)


@pytest.mark.parametrize(
    "payload",
    [
        "{not json",
        "[1, 2]",
        '{"schema": 1, "knot"',
        '{"schema": 1, "knot": {"p": 1, "region": {"kind": "full", "r": 1}}, "k": 0,'
        ' "value": {"variable": "A", "terms": [["x", "1"]]}}',
    ],
)
def test_cache_invalid_json_is_a_mismatch(tmp_path, payload):
    store = CoeffCache(tmp_path)
    knot = KnotSpec.full(1, 1)
    store._path(knot, 0).write_text(payload)
    with pytest.raises(CacheMismatch):
        store.get(knot, 0)


def test_exponent_bound_holds_every_table_entry(cache):
    from cyclojones.serialize import exponent_bound

    knots = [KnotSpec.half(p, s) for p, s in ((2, 1), (-3, 5), (1, 1), (1, -1), (-2, 3), (2, 21))]
    knots += [KnotSpec.full(p, r) for p, r in ((3, -2), (-1, -1), (2, 3))]
    tables = [coefficient_table(knot, 12, cache) for knot in knots]
    tables += [coefficient_table(knot, 6, cache)
               for knot in (KnotSpec.half(-40, 1), KnotSpec.full(-40, 3))]
    for table in tables:
        for entry in table.entries:
            bound = exponent_bound(table.knot, entry.k)
            assert all(abs(e) <= bound for e, _ in entry.h.items()), (table.knot, entry.k)

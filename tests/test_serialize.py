import hashlib
import json
import random
import shutil
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from cyclojones import KnotSpec, LaurentPoly, NotExpressible, QSymbolCache, coefficient_table
from cyclojones.cyclotomic import JonesResult, h_coeff
from cyclojones.serialize import (
    CacheMismatch,
    CoeffCache,
    knot_to_obj,
    poly_from_json,
    poly_to_json,
    serialize,
)

A = LaurentPoly.monomial

# zero, monomials, strides above 1, negative exponents, |c| up to 10^40
wire_polys = st.builds(
    lambda stride, shift, terms: LaurentPoly({shift + stride * e: c for e, c in terms.items()}),
    st.integers(1, 6),
    st.integers(-40, 40),
    st.dictionaries(st.integers(-30, 30), st.integers(-(10**40), 10**40), max_size=12),
)


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


@given(wire_polys)
@example(LaurentPoly())
@example(A(-7, -(10**40)))
def test_writer_is_the_canonical_json_of_the_term_tree_and_the_reader_inverts_it(poly):
    tree = {"variable": "A", "terms": [[e, str(c)] for e, c in sorted(poly.items(), reverse=True)]}
    text = poly_to_json(poly)
    assert text == json.dumps(tree, sort_keys=True, separators=(",", ":"))
    assert poly_from_json(text) == poly


_ORDER = "k=1 has exponents out of strictly descending order"
_GRAMMAR = "an entry is not poly_to_json's text"


@pytest.mark.parametrize(
    "terms, reason",
    [
        ([[0, "1"], [4, "2"]], _ORDER),  # ascending
        ([[4, "1"], [0, "2"], [8, "1"]], _ORDER),  # unsorted
        ([[4, "1"], [4, "2"], [0, "1"]], _ORDER),  # a repeated exponent
        ([[4, "1"], [2, "0"], [0, "1"]], _GRAMMAR),  # a zero coefficient
        ([[0, "0"]], _GRAMMAR),
        ([[float("inf"), "1"]], _GRAMMAR),  # JSON's Infinity
        ([[1.5, "1"]], _GRAMMAR),  # once read as exponent 1
        ([[True, "1"]], _GRAMMAR),  # once read as exponent 1
        ([["3", "1"]], _GRAMMAR),  # once read as exponent 3
        ([[0, 2.9]], _GRAMMAR),  # once read as 2
        ([[0, 5]], _GRAMMAR),  # a JSON number, not a string
        ([[0, "1_000"]], _GRAMMAR),  # once read as 1000
        ([[0, " 7 "]], _GRAMMAR),  # once read as 7
    ],
    ids=["ascending", "unsorted", "repeated", "zero", "zero-monomial", "infinite", "float-exponent",
         "bool-exponent", "string-exponent", "float-coefficient", "number-coefficient",
         "underscored-coefficient", "padded-coefficient"],
)
def test_reader_refuses_all_but_the_writers_form(tmp_path, terms, reason):
    # the old reader summed a repeated exponent, dropped a zero and let the
    # OverflowError of an infinite exponent escape; a valid digest does not
    # make such an entry servable
    value = {"variable": "A", "terms": terms}
    with pytest.raises(ValueError):
        poly_from_json(json.dumps(value, sort_keys=True, separators=(",", ":")))
    knot = KnotSpec.half(2, 1)
    values = [{"variable": "A", "terms": [[0, "1"]]}, value]
    obj = {"cache": 2, "knot": knot_to_obj(knot), "k": 1, "values": values,
           "digest": _digest_of(values)}
    store = CoeffCache(tmp_path)
    store._path(knot, 1).write_text(_as_put_writes(obj))
    with pytest.raises(CacheMismatch, match=f"malformed value in .*: {reason}"):
        store.get(knot, 1)


@pytest.mark.parametrize("far", [10**7, -(10**7)])
def test_reader_refuses_an_exponent_beyond_the_bound_at_either_end(tmp_path, far):
    terms = sorted([[far, "1"], [1, "1"], [0, "1"]], reverse=True)
    knot = KnotSpec.half(2, 1)
    values = [{"variable": "A", "terms": [[0, "1"]]}, {"variable": "A", "terms": terms}]
    obj = {"cache": 2, "knot": knot_to_obj(knot), "k": 1, "values": values,
           "digest": _digest_of(values)}
    store = CoeffCache(tmp_path)
    store._path(knot, 1).write_text(_as_put_writes(obj))
    with pytest.raises(CacheMismatch, match="k=1 exceeds"):
        store.get(knot, 1)


_NOT_FOR = "is not a table for K\\(2, 1/2\\)"
_LAID_OUT = "is not laid out as put writes it"


@pytest.mark.parametrize(
    "stored, reason",
    [
        ({"p": 2, "region": {"kind": "half", "s": 1}, "x": 0}, _NOT_FOR),  # an extra key
        ({"p": 2, "region": {"kind": "full", "s": 1}}, _NOT_FOR),  # a region of the other kind
        ({"p": 2, "region": {"kind": "half", "s": 2}}, _NOT_FOR),  # no knot: s even
        ({"p": "2", "region": {"kind": "half", "s": 1}}, _NOT_FOR),  # a string
        ({"p": float("inf"), "region": {"kind": "half", "s": 1}}, _NOT_FOR),
        ({"p": 2.0, "region": {"kind": "half", "s": 1}}, _LAID_OUT),  # equal to 2, written 2.0
        ({"p": True, "region": {"kind": "half", "s": -1}}, _LAID_OUT),  # equal to K(1, -1/2)
        ("K(2, 1/2)", _NOT_FOR),
        (None, _NOT_FOR),
    ],
    ids=["extra-key", "other-kind", "even-s", "string-p", "infinite-p", "float-p", "bool-p",
         "string", "null"],
)
def test_a_stored_knot_not_written_as_knot_to_obj_writes_it_is_refused(tmp_path, cache, stored,
                                                                        reason):
    knot = KnotSpec.half(2, 1)
    values = [json.loads(poly_to_json(h)) for h in _table(knot, 1, cache)]
    obj = {"cache": 2, "knot": stored, "k": 1, "values": values, "digest": _digest_of(values)}
    store = CoeffCache(tmp_path)
    store._path(knot).write_text(_as_put_writes(obj))
    with pytest.raises(CacheMismatch, match=reason):
        store.get(knot, 1)


def test_a_cache_file_of_the_previous_reader_is_served_unchanged(tmp_path, capsys, monkeypatch):
    # written by `coeffs --p 2 --s -3 --max-k 4 --format json` before the reader took
    # only the canonical form; that request printed the bytes with this SHA-256
    from cyclojones import cyclotomic
    from cyclojones.cli import main

    # the file, written under its knot's name, is served from its class's name
    path = CoeffCache(tmp_path)._path(KnotSpec.half(2, -3))
    shutil.copy(Path(__file__).parent / "data" / "h_v2_p2_s-3.json", path)
    before = path.read_bytes()
    monkeypatch.setattr(cyclotomic, "h_coeff", lambda *args: pytest.fail("recomputed"))
    assert main(["coeffs", "--p", "2", "--s", "-3", "--max-k", "4", "--format", "json",
                 "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c991c6b87607a335327c6c5188f8a7695e5d293aac9b131bc7e6a7637483aee4")
    assert path.read_bytes() == before
    # and put writes the same bytes again
    store, knot = CoeffCache(tmp_path), KnotSpec.half(2, -3)
    store.put(knot, 4, store.get(knot, 4))
    assert path.read_bytes() == before


def test_put_reuses_only_the_texts_of_the_entries_get_served(tmp_path, cache):
    store, knot = CoeffCache(tmp_path), KnotSpec.half(2, 1)
    store.put(knot, 3, _table(knot, 3, cache))
    served = store.get(knot, 3)
    changed = served[:1] + [served[1] + 1] + served[2:]  # the served H_0, then a changed H_1
    store.put(knot, 3, changed)
    assert store.texts == list(map(poly_to_json, changed))
    assert store.get(knot, 3) == changed


def test_serialize_rejects_an_unknown_format_or_value(cache):
    with pytest.raises(ValueError):
        serialize(coefficient_table(KnotSpec.half(2, 1), 1, cache), "xml")
    with pytest.raises(TypeError):  # a bare polynomial is not a calculator output
        serialize(A(4) + 1, "text")


def test_serialize_latex_divisibility():
    result = JonesResult(KnotSpec.half(2, 1), 2, A(3), "theorem")
    with pytest.raises(NotExpressible):
        serialize(result, "latex", display="𝔮")


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


def _table(knot, max_k, cache):
    return [h_coeff(k, knot, cache) for k in range(max_k + 1)]


def _rewrite(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(_as_put_writes(obj))


def _as_put_writes(obj):
    """The text of a cache file laid out as CoeffCache.put writes it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _digest_of(values):
    return hashlib.sha256(json.dumps(values, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _redigest(obj):
    obj["digest"] = _digest_of(obj["values"])


def test_cache_roundtrip(tmp_path, cache):
    store = CoeffCache(tmp_path)
    knot = KnotSpec.half(2, 1)
    assert store.get(knot, 0) is None
    values = _table(knot, 3, cache)
    store.put(knot, 3, values)
    assert store.texts == list(map(poly_to_json, values))
    assert store.get(knot, 3) == values
    assert store.texts == list(map(poly_to_json, values))
    # a shorter request is served the prefix, a longer one the whole table
    assert store.get(knot, 1) == values[:2] and store.texts == list(map(poly_to_json, values[:2]))
    assert store.get(knot, 8) == values
    # structural equality with recomputation (spot-check contract)
    assert store.get(knot, 3) == _table(knot, 3, QSymbolCache())
    assert [path.name for path in tmp_path.iterdir()] == ["h_v2_3_1.json"]


def test_cache_detects_tampering(tmp_path, cache):
    store = CoeffCache(tmp_path)
    knot = KnotSpec.full(1, 1)
    store.put(knot, 2, _table(knot, 2, cache))
    (path,) = tmp_path.glob("*.json")
    _rewrite(path, lambda obj: obj["values"][1].update(terms=[[8, "-2"]]))
    with pytest.raises(CacheMismatch, match="digest mismatch"):
        store.get(knot, 2)


def test_cache_ignores_other_schema(tmp_path, cache):
    store = CoeffCache(tmp_path)
    knot = KnotSpec.full(1, 1)
    store.put(knot, 0, _table(knot, 0, cache))
    (path,) = tmp_path.glob("*.json")
    _rewrite(path, lambda obj: obj.update(cache=999))
    assert store.get(knot, 0) is None


def test_every_hit_is_spot_checked(tmp_path, cache, monkeypatch):
    from cyclojones import point

    knot = KnotSpec.half(-2, 3)
    store = CoeffCache(tmp_path)
    assert store.get(knot, 0) is None and not store.should_spot_check()  # no hit yet
    cold = coefficient_table(knot, 8, cache, store=store)
    for _ in range(3):
        assert store.get(knot, 0) is not None and store.should_spot_check()
    # a warm table evaluates each of its nine entries at the point, and
    # computes the formula's values once
    evaluated, formula = [], []
    evaluate, h_values = point.evaluate, point.h_values
    monkeypatch.setattr(point, "evaluate", lambda h, a: evaluated.append(h) or evaluate(h, a))
    monkeypatch.setattr(point, "h_values", lambda *args: formula.append(args) or h_values(*args))
    warm = coefficient_table(knot, 8, cache, store=CoeffCache(tmp_path))
    assert warm == cold
    assert evaluated == list(cold.values)
    assert len(formula) == 1
    # a prefix served to a shorter request is checked entry by entry too
    evaluated.clear()
    assert coefficient_table(knot, 4, cache, store=CoeffCache(tmp_path)).values == cold.values[:5]
    assert evaluated == list(cold.values[:5])


def test_put_writes_the_two_pass_bytes(tmp_path, cache):
    # the values are serialized once and spliced in; the file keeps the bytes of
    # the object with the values and their digest serialized separately
    store = CoeffCache(tmp_path)
    values = _table(KnotSpec.half(-3, 5), 3, cache)
    values += [LaurentPoly(), LaurentPoly({-2: -(10 ** 40), 6: 3})]
    for knot in (KnotSpec.half(-3, 5), KnotSpec.full(2, -1)):
        for k in range(len(values)):
            table = values[: k + 1]
            value_objs = [{"variable": "A", "terms": [[e, str(c)] for e, c in value.items()][::-1]}
                          for value in table]
            values_json = json.dumps(value_objs, sort_keys=True, separators=(",", ":"))
            obj = {
                "cache": 2,
                "knot": knot_to_obj(knot),
                "k": k,
                "values": value_objs,
                "digest": hashlib.sha256(values_json.encode()).hexdigest(),
            }
            store.put(knot, k, table)
            expected = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
            assert store._path(knot, k).read_text() == expected
            assert store.get(knot, k) == table


@pytest.mark.parametrize(
    "entry",
    [
        '{"terms":[[0, "1"]],"variable":"A"}',
        '{"variable":"A","terms":[[0,"1"]]}',
        '{"terms":[[-0,"1"]],"variable":"A"}',
        '{"terms":[[0,"\\u0031"]],"variable":"A"}',
        '{"terms":[[0,"1"]],"variable":"A","x":1}',
        '{"terms":[],"terms":[[0,"1"]],"variable":"A"}',
    ],
    ids=["space", "key-order", "minus-zero", "escape", "extra-key", "repeated-key"],
)
def test_an_entry_not_written_as_poly_to_json_writes_it_is_refused(tmp_path, entry):
    # JSON reads each as H_0 = 1, and the digest is of the values text as stored;
    # served entry texts are printed as they are, so only the writer's are served
    assert json.loads(entry)["terms"] == [[0, "1"]]
    with pytest.raises(ValueError, match="is not poly_to_json's text"):
        poly_from_json(entry)
    knot = KnotSpec.half(2, 1)
    values_text = f"[{entry}]"
    head = {"cache": 2, "digest": hashlib.sha256(values_text.encode()).hexdigest(), "k": 0,
            "knot": knot_to_obj(knot)}
    store = CoeffCache(tmp_path)
    store._path(knot, 0).write_text(f'{_as_put_writes(head)[:-2]},"values":{values_text}}}\n')
    with pytest.raises(CacheMismatch, match="malformed value in .*: an entry is not poly_to_json's text"):
        store.get(knot, 0)


def test_cache_rejects_entry_filed_under_other_knot(tmp_path, cache):
    store = CoeffCache(tmp_path)
    source, target = KnotSpec.half(2, 1), KnotSpec.half(3, 1)
    store.put(source, 2, _table(source, 2, cache))
    store._path(source, 2).rename(store._path(target, 2))
    with pytest.raises(CacheMismatch, match="is not a table for"):
        store.get(target, 2)


def test_cache_rejects_entry_filed_under_other_k(tmp_path, cache):
    # the header's k must name the last of the values, digest or no digest
    store = CoeffCache(tmp_path)
    knot = KnotSpec.half(2, 1)
    store.put(knot, 1, _table(knot, 1, cache))
    path = store._path(knot, 1)
    for edit in (lambda obj: obj.update(k=2), lambda obj: obj.update(k=0),
                 lambda obj: (obj["values"].append(obj["values"][0]), _redigest(obj)),
                 lambda obj: (obj.update(k=-1, values=[]), _redigest(obj))):
        store.put(knot, 1, _table(knot, 1, cache))
        _rewrite(path, edit)
        with pytest.raises(CacheMismatch, match="is not a table for"):
            store.get(knot, 2)


def test_version_1_entries_are_never_read(tmp_path, cache):
    # a per-entry file of the previous layout is a miss, beside a table or not
    store = CoeffCache(tmp_path)
    knot = KnotSpec.half(2, 1)
    old = tmp_path / "h_v1_p2_s1_k1.json"
    old.write_text('{"schema": 1, "k": 1, "value": "wrong"}')
    assert store.get(knot, 1) is None
    store.put(knot, 1, _table(knot, 1, cache))
    assert store.get(knot, 1) == _table(knot, 1, cache)
    assert old.read_text() == '{"schema": 1, "k": 1, "value": "wrong"}'


_MALFORMED = [{"variable": "A", "terms": [["x", "1"]]}]


@pytest.mark.parametrize(
    "payload",
    [
        "{not json",
        "[1, 2]",
        '{"schema": 1, "knot"',
        '{"schema": 1, "knot": {"p": 1, "region": {"kind": "full", "r": 1}}, "cache": 2, "k": 0,'
        f' "values": {json.dumps(_MALFORMED)}, "digest": "{_digest_of(_MALFORMED)}"}}',
        b'{"cache": 2, "knot": "\xff"}',
    ],
)
def test_cache_invalid_json_is_a_mismatch(tmp_path, payload):
    store = CoeffCache(tmp_path)
    knot = KnotSpec.full(1, 1)
    path = store._path(knot, 0)
    path.write_bytes(payload) if isinstance(payload, bytes) else path.write_text(payload)
    with pytest.raises(CacheMismatch):
        store.get(knot, 0)


def test_a_deeply_nested_cache_file_is_a_mismatch(tmp_path, capsys):
    # json.loads ends such a file in RecursionError, not ValueError
    from cyclojones.cli import main

    knot = KnotSpec.half(1, 1)
    CoeffCache(tmp_path)._path(knot).write_text("[" * 100000)
    with pytest.raises(CacheMismatch, match="unreadable cache file .*maximum recursion depth"):
        CoeffCache(tmp_path).get(knot, 2)
    assert main(["coeffs", "--p", "1", "--s", "1", "--max-k", "2",
                 "--cache-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: unreadable cache file")


def test_exponent_bound_holds_every_table_entry(cache):
    from cyclojones.serialize import exponent_bound

    knots = [KnotSpec.half(p, s) for p, s in ((2, 1), (-3, 5), (1, 1), (1, -1), (-2, 3), (2, 21))]
    knots += [KnotSpec.full(p, r) for p, r in ((3, -2), (-1, -1), (2, 3))]
    tables = [coefficient_table(knot, 12, cache) for knot in knots]
    tables += [coefficient_table(knot, 6, cache)
               for knot in (KnotSpec.half(-40, 1), KnotSpec.full(-40, 3))]
    for table in tables:
        for k, h in enumerate(table.values):
            bound = exponent_bound(table.knot, k)
            assert all(abs(e) <= bound for e, _ in h.items()), (table.knot, k)

"""Serialization (json / csv / latex / text) and the coefficient disk cache.

JSON polynomial schema (always in the A variable, so round trips are
bit-exact regardless of display choices):

    {"terms": [[exponent, "coefficient"], ...], "variable": "A"}

terms strictly descending by integer exponent, coefficients nonzero
canonical decimal strings, str(int(c)) == c (arbitrary precision survives
every JSON consumer), written canonically (sorted keys, no spaces) off
the stored list by poly_to_json.  A reader takes only that text: it must
match _POLY_JSON, and _poly_from_terms then checks the order and places
the terms.  A cache file holds the table of such polynomials of one knot,
whatever its name: it is filed under the knot's 2-bridge normal form
(KnotSpec.two_bridge), under a cache-version header and a content digest.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from itertools import takewhile
from operator import gt, is_
from pathlib import Path

from .cyclotomic import CoeffTable, JonesResult, KnotSpec
from .errors import CacheMismatch, CacheUnusable
from .laurent import LaurentPoly

SCHEMA_VERSION = 1  # of the coeffs and jones JSON payloads
CACHE_VERSION = 2  # of the cache files
CACHE_ENV = "CYCLOJONES_CACHE"
FORMATS = ("json", "csv", "latex", "text")


def _terms(poly: LaurentPoly) -> list[tuple[int, int]]:
    """(exponent, coefficient) of each nonzero term, descending, off LaurentPoly.lattice."""
    base, step, coeffs = poly.lattice()
    top = base + step * (len(coeffs) - 1)
    return [(e, c) for e, c in zip(range(top, base - 1, -step or -1), reversed(coeffs)) if c]


def _object(**fields: str) -> str:
    """The canonical JSON object of already serialized values, keys sorted."""
    return "{" + ",".join(f'"{key}":{text}' for key, text in sorted(fields.items())) + "}"


def _canonical_json(obj) -> str:  # of a knot, a check set or a route, never of a polynomial
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_TERM = r'\[(?:0|-?[1-9][0-9]*),"-?[1-9][0-9]*"\]'
# poly_to_json's texts: no spaces or escapes, no leading zero, no -0 (re compiles it on first use)
_POLY_JSON = r'\{"terms":\[(?:' + _TERM + "(?:," + _TERM + r')*)?\],"variable":"A"\}'


def poly_to_json(poly: LaurentPoly) -> str:
    terms = ",".join([f'[{e},"{c}"]' for e, c in _terms(poly)])
    return f'{{"terms":[{terms}],"variable":"A"}}'


def _poly_from_terms(terms: list, bound: int | None = None) -> LaurentPoly:
    """The polynomial of the parsed terms of a text that matched _POLY_JSON,
    placed on their lattice.  Exponents not strictly descending, and with
    a bound an exponent beyond ±bound, raise ValueError before the list is
    laid out."""
    exponents = [e for e, _ in terms]
    if not all(map(gt, exponents, exponents[1:])):
        raise ValueError("has exponents out of strictly descending order")
    if not exponents:
        return LaurentPoly.zero()
    top, base = exponents[0], exponents[-1]
    if bound is not None and max(top, -base) > bound:
        raise ValueError(f"exceeds ±{bound}, the bound of its exponents")
    step = math.gcd(*[e - base for e in exponents]) or 1
    dense = [0] * ((top - base) // step + 1)
    for e, c in terms:
        dense[(e - base) // step] = int(c)
    return LaurentPoly.from_lattice(base, step, dense)


def poly_from_json(text: str) -> LaurentPoly:
    """The polynomial of a poly_to_json text; any other text raises ValueError."""
    if not re.fullmatch(_POLY_JSON, text):
        raise ValueError("is not poly_to_json's text")
    return _poly_from_terms(json.loads(text)["terms"])


def poly_to_latex(poly: LaurentPoly, display: str = "𝔮") -> str:
    pieces = (piece.partition("^") for piece in poly.render(display).split(" "))
    text = " ".join(f"{head}^{{{exp}}}" if exp else head for head, _, exp in pieces)
    return text.replace("𝔮", r"\mathfrak{q}")


def knot_to_obj(knot: KnotSpec) -> dict:
    if knot.is_half:
        return {"p": knot.p, "region": {"kind": "half", "s": knot.s}}
    return {"p": knot.p, "region": {"kind": "full", "r": knot.r}}


def _knot_from_obj(obj) -> KnotSpec | None:
    """The knot whose knot_to_obj equals obj, or None if there is none."""
    try:
        region, p = obj["region"], int(obj["p"])
        knot = KnotSpec.half(p, int(region["s"])) if region["kind"] == "half" \
            else KnotSpec.full(p, int(region["r"]))
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    return knot if knot_to_obj(knot) == obj else None


# -- top-level serializer ----------------------------------------------


def serialize(value, fmt: str, display: str = "𝔮", *, texts: list[str] | None = None) -> bytes:
    """Render a CoeffTable, a JonesResult, or a tuple of one J'_N's
    JonesResults by several routes, in one of json/csv/latex/text; a json
    table prints texts, the poly_to_json of its values, if given."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (want one of {FORMATS})")
    if isinstance(value, CoeffTable):
        text = _table_str(value, fmt, display, texts)
    elif isinstance(value, JonesResult):
        text = _jones_str(value, fmt, display)
    elif isinstance(value, tuple) and all(isinstance(r, JonesResult) for r in value):
        text = _routes_str(value, fmt, display)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    return text.encode()


def _table_str(table: CoeffTable, fmt: str, display: str, texts: list[str] | None) -> str:
    values = enumerate(table.values)
    if fmt == "json":
        checks = _canonical_json(sorted(table.checks))
        texts = enumerate(texts or map(poly_to_json, table.values))
        entries = ",".join([_object(H=text, checks=checks, k=str(k)) for k, text in texts])
        knot = _canonical_json(knot_to_obj(table.knot))
        return _object(schema=str(SCHEMA_VERSION), knot=knot, max_k=str(table.max_k),
                       entries=f"[{entries}]") + "\n"
    if fmt == "csv":
        return "".join(["k,polynomial\n"] + [f'{k},"{h.render(display)}"\n' for k, h in values])
    if fmt == "latex":
        rows = [rf"{k} & ${poly_to_latex(h, display)}$ \\" for k, h in values]
        lines = [r"\begin{tabular}{rl}", r"$k$ & $H_k$ \\ \hline", *rows, r"\end{tabular}"]
        return "\n".join(lines) + "\n"
    return "".join([f"H_{k} = {h.render(display)}\n" for k, h in values])


def _jones_str(result: JonesResult, fmt: str, display: str) -> str:
    if fmt == "json":
        knot = _canonical_json(knot_to_obj(result.knot))
        return _object(schema=str(SCHEMA_VERSION), knot=knot, N=str(result.N),
                       route=_canonical_json(result.route), value=poly_to_json(result.value)) + "\n"
    if fmt == "csv":
        return "N,polynomial\n" + f'{result.N},"{result.value.render(display)}"\n'
    if fmt == "latex":
        return poly_to_latex(result.value, display) + "\n"
    return result.value.render(display) + "\n"


def _routes_str(results: tuple[JonesResult, ...], fmt: str, display: str) -> str:
    """One line per route, labelled with it (csv: one table, route column)."""
    if fmt == "json":
        return "".join(_jones_str(result, fmt, display) for result in results)
    if fmt == "csv":
        lines = ["route,N,polynomial"]
        lines += [f'{r.route},{r.N},"{r.value.render(display)}"' for r in results]
    elif fmt == "latex":
        lines = [rf"\text{{{r.route}}}: {poly_to_latex(r.value, display)}" for r in results]
    else:
        lines = [f"{r.route}: {r.value.render(display)}" for r in results]
    return "\n".join(lines) + "\n"


# -- disk cache of verified coefficients --------------------------------


def exponent_bound(knot: KnotSpec, k: int) -> int:
    """A bound on |e| over the A-exponents e of H_k.  The degree at infinity and the order
    at 0 of 𝔮^e {a_1}..{a_m}/({b_1}..{b_n}) are e + r and e - r, r = sum a - sum b; they add
    under products, and no sum exceeds its terms' extremes.  In the c', c~' and d sums (as
    point states them) |e| <= 2|p|, |s| and 2|p| times (k+1)^2 and |r| <= 3, 3 and 6 times
    (k+1)^2, so every 𝔮-exponent of H_k is within ±(4|p| + |s| + 12)(k+1)^2, or
    ±(2|p| + 2|r| + 6)(k+1)^2 for c'_p c'_r.  The one looser bound returned covers both:
    (4|p| + 2|t| + 12)(k+1)^2 in 𝔮 = A^2, with t = s or r, so twice that in A."""
    t = knot.s if knot.is_half else knot.r
    return 2 * (4 * abs(knot.p) + 2 * abs(t) + 12) * (k + 1) ** 2


def _head(knot: KnotSpec, max_k: int, digest: str) -> str:
    """A cache file's text before its values text; "values" is the last key."""
    knot_json = _canonical_json(knot_to_obj(knot))
    return f'{{"cache":{CACHE_VERSION},"digest":"{digest}","k":{max_k},"knot":{knot_json},"values":'


class CoeffCache:
    """Atomic JSON cache of verified H_k tables, one file per knot, not per name.

    H_k is a knot invariant, so every name of a knot (K(p, r) and K(r, p), or
    the trefoil as K(2, 1/2) and K(-1, -1)) reads and grows one file,
    h_v2_<α>_<β>.json after its 2-bridge normal form (α, β) = knot.two_bridge;
    a mirror image has its own.  The file holds the table H_0..H_m:

        {"cache": CACHE_VERSION, "knot": ..., "k": m, "digest": ..., "values": [H_0, ..., H_m]}

    laid out as _head(knot, m, digest), the values text and "}\n", with the
    SHA-256 of the values text as the digest, "knot" naming the knot that
    wrote it.  get serves only that layout,
    so texts, the entry texts put wrote or get vetted, are printed as is.
    Writes go through a temp file + rename.  A table is served whole or
    in part: coefficient_table evaluates every served entry at a random
    point of F_P against the paper's formula (cyclojones.point) and
    stores the table again, with the served entries' texts, only when it
    computed more of it.  Files of
    another cache version, such as the per-entry h_v1_*_k*.json of
    version 1, and the version 2 files named by knot (h_v2_p*_s*.json),
    are never read.  A directory that cannot be created,
    read or written raises CacheUnusable.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self._hits = 0
        self._served, self.texts = (), []  # the entries get last served or put wrote, their texts

    @classmethod
    def from_env(cls, fallback: str | os.PathLike) -> CoeffCache:
        return cls(Path(os.environ.get(CACHE_ENV) or fallback))  # an empty value counts as unset

    def _path(self, knot: KnotSpec, max_k: int | None = None) -> Path:
        """The knot's file; every max_k and every name of one knot shares it."""
        return self.directory / "h_v{}_{}_{}.json".format(CACHE_VERSION, *knot.two_bridge)

    def put(self, knot: KnotSpec, max_k: int, values: list[LaurentPoly]) -> None:
        """Store values = H_0..H_max_k as the knot's table, replacing its file."""
        import hashlib

        kept = len(list(takewhile(bool, map(is_, values, self._served))))
        texts = self.texts[:kept] + list(map(poly_to_json, values[kept:]))
        text = "[" + ",".join(texts) + "]"
        payload = _head(knot, max_k, hashlib.sha256(text.encode()).hexdigest()) + text + "}\n"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, self._path(knot))
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise self._unusable(exc) from None
        self._served, self.texts = tuple(values), texts

    def get(self, knot: KnotSpec, max_k: int) -> list[LaurentPoly] | None:
        """H_0..H_min(m, max_k) from the knot's table to k = m, or None if there is none.

        The file, which any name of the knot may have written, is vetted
        (its knot's normal form, length, layout, the digest of the stored
        values text, each entry text against _POLY_JSON) before any
        polynomial is built, and each entry's parsed terms by
        _poly_from_terms (order, exponent bound) before its list is laid out."""
        import hashlib

        path = self._path(knot)
        try:
            text = path.read_text()
            obj = json.loads(text)
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise self._unusable(exc) from None
        except (ValueError, RecursionError) as exc:  # invalid or too deeply nested JSON or UTF-8
            raise CacheMismatch(f"unreadable cache file {path}: {exc}") from None
        if not isinstance(obj, dict):
            raise CacheMismatch(f"cache file {path} is not a JSON object")
        if obj.get("cache") != CACHE_VERSION:
            return None
        values, digest = obj.get("values"), obj.get("digest")
        owner = _knot_from_obj(obj.get("knot"))  # the name that wrote the file
        if owner is None or owner.two_bridge != knot.two_bridge or not isinstance(values, list) \
                or not values or obj.get("k") != len(values) - 1:
            raise CacheMismatch(f"cache file {path} is not a table for {knot}")
        head = _head(owner, len(values) - 1, digest)
        if not (text.startswith(head) and text.endswith("}\n")):
            raise CacheMismatch(f"cache file {path} is not laid out as put writes it")
        # the values text as stored, before a polynomial fills its span
        values_text = text[len(head):-2]
        if digest != hashlib.sha256(values_text.encode()).hexdigest():
            raise CacheMismatch(f"digest mismatch in {path}")
        texts = re.findall(_POLY_JSON, values_text)
        if "[" + ",".join(texts) + "]" != values_text:
            raise CacheMismatch(f"malformed value in {path}: an entry is not poly_to_json's text")
        served = []
        for k, value in enumerate(values):  # their form; coefficient_table checks their values
            try:
                served.append(_poly_from_terms(value["terms"], exponent_bound(knot, k)))
            except ValueError as exc:
                raise CacheMismatch(f"malformed value in {path}: k={k} {exc}") from None
        del served[max_k + 1:], texts[max_k + 1:]
        self._served, self.texts = tuple(served), texts
        self._hits += 1
        return served

    def _unusable(self, exc: OSError) -> CacheUnusable:
        return CacheUnusable(f"cache directory {self.directory} is unusable: {exc.strerror or exc}")

    def should_spot_check(self) -> bool:
        """True once get has returned a hit: every hit table is checked."""
        return self._hits > 0

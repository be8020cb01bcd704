"""Serialization (json / csv / latex / text) and the coefficient disk cache.

JSON polynomial schema (always in the A variable, so round trips are
bit-exact regardless of display choices):

    {"variable": "A", "terms": [[exponent, "coefficient"], ...]}

terms sorted descending by exponent, coefficients as decimal strings so
arbitrary precision survives every JSON consumer.  Cache files add a
schema-version header and a content digest.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .cyclotomic import CoeffTable, HalfTwists, JonesResult, KnotSpec
from .errors import CacheMismatch, CacheUnusable
from .laurent import LaurentPoly

SCHEMA_VERSION = 1
CACHE_ENV = "CYCLOJONES_CACHE"
FORMATS = ("json", "csv", "latex", "text")

_LATEX_GLYPH = {"A": "A", "𝔮": r"\mathfrak{q}", "q": "q"}


def poly_to_obj(poly: LaurentPoly) -> dict:
    terms = sorted(poly.items(), reverse=True)
    return {"variable": "A", "terms": [[e, str(c)] for e, c in terms]}


def poly_from_obj(obj: dict) -> LaurentPoly:
    if obj.get("variable") != "A":
        raise ValueError(f"unsupported polynomial variable {obj.get('variable')!r}")
    return LaurentPoly({int(e): int(c) for e, c in obj["terms"]})


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def poly_to_json(poly: LaurentPoly) -> str:
    return _canonical_json(poly_to_obj(poly))


def poly_from_json(text: str) -> LaurentPoly:
    return poly_from_obj(json.loads(text))


def poly_to_latex(poly: LaurentPoly, display: str = "𝔮") -> str:
    glyph = _LATEX_GLYPH[display]
    text = poly.render(display)
    out = []
    for piece in text.split(" "):
        if "^" in piece:
            head, exp = piece.split("^", 1)
            piece = f"{head}^{{{exp}}}"
        out.append(piece)
    rendered = " ".join(out)
    if display == "𝔮":
        rendered = rendered.replace("𝔮", glyph)
    return rendered


def knot_to_obj(knot: KnotSpec) -> dict:
    if isinstance(knot.region, HalfTwists):
        return {"p": knot.p, "region": {"kind": "half", "s": knot.region.s}}
    return {"p": knot.p, "region": {"kind": "full", "r": knot.region.r}}


def knot_from_obj(obj: dict) -> KnotSpec:
    region = obj["region"]
    if region["kind"] == "half":
        return KnotSpec.half(int(obj["p"]), int(region["s"]))
    if region["kind"] == "full":
        return KnotSpec.full(int(obj["p"]), int(region["r"]))
    raise ValueError(f"unknown twist region kind {region['kind']!r}")


def knot_key(knot: KnotSpec) -> str:
    if isinstance(knot.region, HalfTwists):
        return f"p{knot.p}_s{knot.region.s}"
    return f"p{knot.p}_r{knot.region.r}"


# -- top-level serializer ----------------------------------------------


def serialize(value, fmt: str, display: str = "𝔮") -> bytes:
    """Render a calculator value, or a tuple of one J'_N's JonesResults by
    several routes, in one of json/csv/latex/text."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (want one of {FORMATS})")
    if isinstance(value, LaurentPoly):
        text = _poly_str(value, fmt, display)
    elif isinstance(value, CoeffTable):
        text = _table_str(value, fmt, display)
    elif isinstance(value, JonesResult):
        text = _jones_str(value, fmt, display)
    elif isinstance(value, tuple) and all(isinstance(r, JonesResult) for r in value):
        text = _routes_str(value, fmt, display)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    return text.encode()


def _poly_str(poly: LaurentPoly, fmt: str, display: str) -> str:
    if fmt == "json":
        return poly_to_json(poly) + "\n"
    if fmt == "csv":
        lines = ["exponent,coefficient"]
        lines += [f"{e},{c}" for e, c in sorted(poly.items(), reverse=True)]
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        return poly_to_latex(poly, display) + "\n"
    return poly.render(display) + "\n"


def _table_str(table: CoeffTable, fmt: str, display: str) -> str:
    if fmt == "json":
        obj = {
            "schema": SCHEMA_VERSION,
            "knot": knot_to_obj(table.knot),
            "max_k": table.max_k,
            "entries": [
                {
                    "k": entry.k,
                    "H": poly_to_obj(entry.h),
                    "checks": sorted(entry.checks),
                }
                for entry in table.entries
            ],
        }
        return _canonical_json(obj) + "\n"
    if fmt == "csv":
        lines = ["k,polynomial"]
        lines += [f'{entry.k},"{entry.h.render(display)}"' for entry in table.entries]
        return "\n".join(lines) + "\n"
    if fmt == "latex":
        lines = [r"\begin{tabular}{rl}", r"$k$ & $H_k$ \\ \hline"]
        for entry in table.entries:
            lines.append(rf"{entry.k} & ${poly_to_latex(entry.h, display)}$ \\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines) + "\n"
    return "".join(
        f"H_{entry.k} = {entry.h.render(display)}\n" for entry in table.entries
    )


def _jones_str(result: JonesResult, fmt: str, display: str) -> str:
    if fmt == "json":
        obj = {
            "schema": SCHEMA_VERSION,
            "knot": knot_to_obj(result.knot),
            "N": result.N,
            "route": result.route,
            "value": poly_to_obj(result.value),
        }
        return _canonical_json(obj) + "\n"
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
    ±(2|p| + 2|r| + 6)(k+1)^2 for c'_p c'_r."""
    t = knot.region.s if isinstance(knot.region, HalfTwists) else knot.region.r
    return 2 * (4 * abs(knot.p) + 2 * abs(t) + 12) * (k + 1) ** 2


class CoeffCache:
    """Atomic JSON cache of verified H_k values.

    Keys are (schema version, knot parameters, k); writes go through a
    temp file + rename.  Every hit is spot-checked: coefficient_table
    evaluates it at a random point of F_P against the paper's formula
    (cyclojones.point).  A directory that cannot be created, read or
    written raises CacheUnusable.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self._hits = 0

    @classmethod
    def from_env(cls, fallback: str | os.PathLike) -> CoeffCache:
        return cls(Path(os.environ.get(CACHE_ENV, fallback)))

    def _path(self, knot: KnotSpec, k: int) -> Path:
        return self.directory / f"h_v{SCHEMA_VERSION}_{knot_key(knot)}_k{k}.json"

    def put(self, knot: KnotSpec, k: int, value: LaurentPoly) -> None:
        import hashlib

        # the value is serialized once, for its digest and for the file;
        # "value" sorts after every other key, so it closes the object
        text = poly_to_json(value)
        head = {
            "schema": SCHEMA_VERSION,
            "knot": knot_to_obj(knot),
            "k": k,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
        }
        payload = _canonical_json(head)[:-1] + f',"value":{text}}}\n'
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, self._path(knot, k))
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise self._unusable(exc) from None

    def get(self, knot: KnotSpec, k: int) -> LaurentPoly | None:
        import hashlib

        path = self._path(knot, k)
        try:
            if not path.exists():
                return None
            obj = json.loads(path.read_text())
        except OSError as exc:
            raise self._unusable(exc) from None
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise CacheMismatch(f"unreadable cache entry {path}: {exc}") from None
        if not isinstance(obj, dict):
            raise CacheMismatch(f"cache entry {path} is not a JSON object")
        if obj.get("schema") != SCHEMA_VERSION:
            return None
        if obj.get("knot") != knot_to_obj(knot) or obj.get("k") != k:
            raise CacheMismatch(f"cache entry {path} is not for {knot} k={k}")
        # the value as read, in canonical JSON, before a polynomial fills its span
        value = obj.get("value")
        if obj.get("digest") != hashlib.sha256(_canonical_json(value).encode()).hexdigest():
            raise CacheMismatch(f"digest mismatch in {path}")
        bound = exponent_bound(knot, k)
        try:  # coefficient_table vets the value; a far exponent, here, before a list spans it
            if any(abs(int(e)) > bound for e, _ in value["terms"]):
                raise ValueError(f"an exponent exceeds ±{bound}, the bound of H_{k}")
            value = poly_from_obj(value)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CacheMismatch(f"malformed value in {path}: {exc}") from None
        self._hits += 1
        return value

    def _unusable(self, exc: OSError) -> CacheUnusable:
        return CacheUnusable(f"cache directory {self.directory} is unusable: {exc.strerror or exc}")

    def should_spot_check(self) -> bool:
        """True once get has returned a hit: every hit is checked."""
        return self._hits > 0

"""Serialization (json / csv / latex / text) and the coefficient disk cache.

JSON polynomial schema (always in the A variable, so round trips are
bit-exact regardless of display choices):

    {"variable": "A", "terms": [[exponent, "coefficient"], ...]}

terms sorted descending by exponent, coefficients as decimal strings so
arbitrary precision survives every JSON consumer.  A cache file holds a
knot's table of such polynomials under a cache-version header and a
content digest.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .cyclotomic import CoeffTable, HalfTwists, JonesResult, KnotSpec
from .errors import CacheMismatch, CacheUnusable
from .laurent import LaurentPoly

SCHEMA_VERSION = 1  # of the coeffs and jones JSON payloads
CACHE_VERSION = 2  # of the cache files
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
    """Atomic JSON cache of verified H_k tables, one file per knot.

    A knot's file holds its table H_0..H_m:

        {"cache": CACHE_VERSION, "knot": ..., "k": m, "digest": ..., "values": [H_0, ..., H_m]}

    with the SHA-256 of the canonical JSON of the values as the digest.
    Writes go through a temp file + rename.  A table is served whole or
    in part: coefficient_table evaluates every served entry at a random
    point of F_P against the paper's formula (cyclojones.point) and
    stores the table again only when it computed more of it.  Files of
    another cache version, such as the per-entry h_v1_*_k*.json of
    version 1, are never read.  A directory that cannot be created,
    read or written raises CacheUnusable.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self._hits = 0

    @classmethod
    def from_env(cls, fallback: str | os.PathLike) -> CoeffCache:
        return cls(Path(os.environ.get(CACHE_ENV, fallback)))

    def _path(self, knot: KnotSpec, max_k: int | None = None) -> Path:
        """The knot's file; every max_k of one knot shares it."""
        return self.directory / f"h_v{CACHE_VERSION}_{knot_key(knot)}.json"

    def put(self, knot: KnotSpec, max_k: int, values: list[LaurentPoly]) -> None:
        """Store values = H_0..H_max_k as the knot's table, replacing its file."""
        import hashlib

        # the values are serialized once, for the digest and for the file;
        # "values" sorts after every other key, so it closes the object
        text = "[" + ",".join(map(poly_to_json, values)) + "]"
        head = {
            "cache": CACHE_VERSION,
            "knot": knot_to_obj(knot),
            "k": max_k,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
        }
        payload = _canonical_json(head)[:-1] + f',"values":{text}}}\n'
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

    def get(self, knot: KnotSpec, max_k: int) -> list[LaurentPoly] | None:
        """H_0..H_min(m, max_k) from the knot's table to k = m, or None if there is none.

        The whole file is vetted (knot, length, digest, exponent bound of
        every entry) before any polynomial is built."""
        import hashlib

        path = self._path(knot)
        try:
            obj = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise self._unusable(exc) from None
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise CacheMismatch(f"unreadable cache file {path}: {exc}") from None
        if not isinstance(obj, dict):
            raise CacheMismatch(f"cache file {path} is not a JSON object")
        if obj.get("cache") != CACHE_VERSION:
            return None
        values = obj.get("values")
        if obj.get("knot") != knot_to_obj(knot) or not isinstance(values, list) or not values \
                or obj.get("k") != len(values) - 1:
            raise CacheMismatch(f"cache file {path} is not a table for {knot}")
        # the values as read, in canonical JSON, before a polynomial fills its span
        if obj.get("digest") != hashlib.sha256(_canonical_json(values).encode()).hexdigest():
            raise CacheMismatch(f"digest mismatch in {path}")
        try:  # coefficient_table vets the values; a far exponent, here, before a list spans it
            for k, value in enumerate(values):
                bound = exponent_bound(knot, k)
                if any(abs(int(e)) > bound for e, _ in value["terms"]):
                    raise ValueError(f"an exponent of k={k} exceeds ±{bound}, the bound of H_{k}")
            served = [poly_from_obj(value) for value in values[: max_k + 1]]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CacheMismatch(f"malformed value in {path}: {exc}") from None
        self._hits += 1
        return served

    def _unusable(self, exc: OSError) -> CacheUnusable:
        return CacheUnusable(f"cache directory {self.directory} is unusable: {exc.strerror or exc}")

    def should_spot_check(self) -> bool:
        """True once get has returned a hit: every hit table is checked."""
        return self._hits > 0

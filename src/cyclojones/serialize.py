"""Serialization (json / csv / latex / text) and the coefficient disk cache.

JSON polynomial schema (always in the A variable, so round trips are
bit-exact regardless of display choices):

    {"variable": "A", "terms": [[exponent, "coefficient"], ...]}

terms sorted descending by exponent, coefficients as decimal strings so
arbitrary precision survives every JSON consumer.  Cache files add a
schema-version header and a content digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .cyclotomic import CoeffTable, HalfTwists, JonesResult, KnotSpec
from .errors import CacheMismatch
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


def poly_to_json(poly: LaurentPoly) -> str:
    return json.dumps(poly_to_obj(poly), sort_keys=True, separators=(",", ":"))


def poly_from_json(text: str) -> LaurentPoly:
    return poly_from_obj(json.loads(text))


def poly_digest(poly: LaurentPoly) -> str:
    return hashlib.sha256(poly_to_json(poly).encode()).hexdigest()


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
    """Render a calculator value in one of json/csv/latex/text."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (want one of {FORMATS})")
    if isinstance(value, LaurentPoly):
        text = _poly_str(value, fmt, display)
    elif isinstance(value, CoeffTable):
        text = _table_str(value, fmt, display)
    elif isinstance(value, JonesResult):
        text = _jones_str(value, fmt, display)
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
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
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
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        return "N,polynomial\n" + f'{result.N},"{result.value.render(display)}"\n'
    if fmt == "latex":
        return poly_to_latex(result.value, display) + "\n"
    return result.value.render(display) + "\n"


# -- disk cache of verified coefficients --------------------------------


@dataclass
class CoeffCache:
    """Atomic JSON cache of verified H_k values.

    Keys are (schema version, knot parameters, k); writes go through a
    temp file + rename.  ``check_every`` spot-checks every n-th hit
    against recomputation (deterministic sampling; 0 disables).
    """

    directory: Path
    check_every: int = 8

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        self._hits = 0

    @classmethod
    def from_env(cls, fallback: str | os.PathLike) -> CoeffCache:
        return cls(Path(os.environ.get(CACHE_ENV, fallback)))

    def _path(self, knot: KnotSpec, k: int) -> Path:
        return self.directory / f"h_v{SCHEMA_VERSION}_{knot_key(knot)}_k{k}.json"

    def put(self, knot: KnotSpec, k: int, value: LaurentPoly) -> None:
        obj = {
            "schema": SCHEMA_VERSION,
            "knot": knot_to_obj(knot),
            "k": k,
            "value": poly_to_obj(value),
            "digest": poly_digest(value),
        }
        payload = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, self._path(knot, k))
        except BaseException:
            os.unlink(tmp)
            raise

    def get(self, knot: KnotSpec, k: int) -> LaurentPoly | None:
        path = self._path(knot, k)
        if not path.exists():
            return None
        try:
            obj = json.loads(path.read_text())
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise CacheMismatch(f"unreadable cache entry {path}: {exc}") from None
        if not isinstance(obj, dict):
            raise CacheMismatch(f"cache entry {path} is not a JSON object")
        if obj.get("schema") != SCHEMA_VERSION:
            return None
        if obj.get("knot") != knot_to_obj(knot) or obj.get("k") != k:
            raise CacheMismatch(f"cache entry {path} is not for {knot} k={k}")
        try:
            value = poly_from_obj(obj["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheMismatch(f"malformed value in {path}: {exc}") from None
        if obj.get("digest") != poly_digest(value):
            raise CacheMismatch(f"digest mismatch in {path}")
        self._hits += 1
        return value

    def should_spot_check(self) -> bool:
        """True on hits 1, 1 + n, 1 + 2n, ... for check_every = n."""
        n = self.check_every
        return n > 0 and self._hits > 0 and (self._hits - 1) % n == 0

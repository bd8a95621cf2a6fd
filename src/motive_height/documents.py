"""The text document format for motive data and quotient specs.

Documents are JSON with a format_version gate.  Exact quantities are
strings ("3/4"), never floats; complex period entries are either exact
rational pairs, exact rational multiples of integer powers of 2*pi*i
({"tpi": k, "scale": "3/4"}), or decimal pairs carrying their own certified
digit count ({"re": "...", "im": "...", "digits": 45}).  Canonical bytes
are the sorted-key compact JSON dump plus a trailing newline; parsing a
canonical document and re-canonicalizing is the identity on bytes.

Every field is read once, by one of the typed readers below, straight to
its final form: exact matrices as integer rows over one denominator,
decimals as balls built from integers.  A field of the wrong type or shape
raises DocumentError naming its path; well-formed fields whose mathematics
is wrong raise InvalidMotive.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Any, Mapping

from .balls import ComplexBall, RealBall
from .experiments import QuotientSpec
from .fl import FilPhiModule, LocalLatticeSpec
from .lines import Lattice
from .motive import InvalidMotive, MotiveData, MotiveType
from .rational import QMatrix, parse_rational

FORMAT_VERSION = "1"


class DocumentError(ValueError):
    """Malformed input document."""


def canonical_bytes(doc: Mapping[str, Any]) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=True) + "\n").encode("utf-8")


def load_document(text: str | bytes) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}")
    if _object(doc, "document").get("format_version") != FORMAT_VERSION:
        raise DocumentError(
            f"unsupported format_version {doc.get('format_version')!r}")
    return doc


# ---- the readers ----

def _object(x, where: str, *required: str) -> dict:
    """A JSON object that has every ``required`` key."""
    if not isinstance(x, dict):
        raise DocumentError(f"{where}: expected an object, got {x!r}")
    for key in required:
        if key not in x:
            raise DocumentError(f"{where}: missing field {key!r}")
    return x


def _list(x, where: str, length: int | None = None) -> list:
    """A JSON list, of ``length`` items if given."""
    if isinstance(x, list) and length in (None, len(x)):
        return x
    want = "a list" if length is None else f"a list of length {length}"
    got = f"a list of length {len(x)}" if isinstance(x, list) else repr(x)
    raise DocumentError(f"{where}: expected {want}, got {got}")


def _str(x, where: str) -> str:
    if not isinstance(x, str):
        raise DocumentError(f"{where}: expected a string, got {x!r}")
    return x


def _int(x, where: str, minimum: int | None = None) -> int:
    """A JSON integer (not a boolean) or a decimal integer string, at least
    ``minimum`` if given."""
    digits = x[1:] if isinstance(x, str) and x[:1] in ("+", "-") else x
    if isinstance(x, str) and digits.isascii() and digits.isdigit():
        n = int(x)
    elif isinstance(x, int) and not isinstance(x, bool):
        n = x
    else:
        raise DocumentError(f"{where}: expected an integer, got {x!r}")
    if minimum is not None and n < minimum:
        raise DocumentError(f"{where}: expected an integer >= {minimum}, got {x!r}")
    return n


def _ratio(x, where: str) -> tuple[int, int]:
    """An exact field, a rational string or a JSON integer, as (n, d), d > 0."""
    if isinstance(x, str):
        try:
            return parse_rational(x)
        except ValueError as exc:
            raise DocumentError(f"{where}: {exc}")
    if isinstance(x, int) and not isinstance(x, bool):
        return x, 1
    raise DocumentError(f"{where}: exact fields must be strings, got {type(x).__name__}")


def _matrix(x, where: str, rows: int, cols: int | None = None) -> QMatrix:
    """An exact rows x cols matrix (cols = the first row's length if not
    given), read in one flat pass as integers over one lcm denominator."""
    x = _list(x, where, rows)
    if cols is None:
        cols = len(_list(x[0], where)) if x else 0
    entries = [_ratio(v, where) for row in x for v in _list(row, where, cols)]
    den = lcm(*[d for _, d in entries])
    flat = [n * (den // d) for n, d in entries]
    return QMatrix.from_numerators(
        tuple([tuple(flat[i * cols:i * cols + cols]) for i in range(rows)]), den, cols)


def _decimal(x, where: str, digits: int | None) -> RealBall:
    """A decimal string certified to ``digits`` digits, as a ball."""
    x = _str(x, where)
    try:
        return RealBall.from_decimal(x, digits)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}")


def _period_entry(x, where: str) -> ComplexBall:
    if isinstance(x, str):
        return ComplexBall.from_rationals(Fraction(*_ratio(x, where)))
    entry = _object(x, where)
    if "tpi" in entry:
        return ComplexBall.tpi_power(_int(entry["tpi"], f"{where}.tpi"),
                                     Fraction(*_ratio(entry.get("scale", 1), f"{where}.scale")))
    if "re" in entry or "im" in entry:
        digits = entry.get("digits")
        digits = None if digits is None else _int(digits, f"{where}.digits", 0)
        return ComplexBall(*(_decimal(entry.get(part, "0"), f"{where}.{part}", digits)
                             for part in ("re", "im")))
    raise DocumentError(f"{where}: unrecognized period entry {entry!r}")


def _built(where: str, make, *args):
    """make(*args) on well-formed fields; a ValueError then means the
    mathematics is wrong, which is a validation failure."""
    try:
        return make(*args)
    except ValueError as exc:
        raise InvalidMotive([f"{where}: {exc}"])


def parse_motive(doc: Mapping[str, Any]) -> MotiveData:
    """Build a MotiveData from a parsed document; schema errors raise
    DocumentError, and semantic ones InvalidMotive or, from validate(),
    a failed report."""
    tspec = _object(doc.get("type"), "type", "weight")
    hodge = _object(tspec.get("hodge_numbers", {}), "type.hodge_numbers")
    numbers = {_int(r, "type.hodge_numbers"): _int(h, f"type.hodge_numbers[{r}]", 0)
               for r, h in hodge.items()}
    window = tspec.get("window")
    if window is not None:
        a = _int(_list(window, "type.window", 2)[0], "type.window")
        window = (a, _int(window[1], "type.window", a))
    mtype = _built("type", MotiveType.of, _int(tspec["weight"], "type.weight"), numbers, window)
    n = mtype.rank

    betti = _object(doc.get("betti", {}), "betti")
    if _int(betti.get("rank", n), "betti.rank") != n:
        raise DocumentError(f"betti.rank {betti['rank']} != type rank {n}")
    dr = _object(doc.get("dr", {}), "dr")
    declared = dr.get("filtration_dims")
    for r, d in _object({} if declared is None else declared, "dr.filtration_dims").items():
        if mtype.filtration_dim(_int(r, "dr.filtration_dims")) != \
                _int(d, f"dr.filtration_dims[{r}]"):
            raise DocumentError(f"dr.filtration_dims[{r}] = {d} disagrees with the type")

    period = [[_period_entry(x, f"period[{i}][{j}]")
               for j, x in enumerate(_list(row, f"period[{i}]", n))]
              for i, row in enumerate(_list(doc.get("period"), "period", n))]

    local = {}
    for index, entry in enumerate(_list(doc.get("local", []), "local")):
        p = _int(_object(entry, f"local[{index}]", "p")["p"], "local.p")
        where = f"local[p={p}]"
        if ("fl" in entry) == ("override" in entry):
            raise DocumentError(f"{where}: exactly one of fl/override required")
        if "override" in entry:
            values = {_int(r, where): _int(v, f"{where}[{r}]")
                      for r, v in _object(entry["override"], where).items()}
            local[p] = _built(where, LocalLatticeSpec.from_map, p, mtype.window, values)
        else:
            local[p] = _parse_fl(entry["fl"], p, mtype, where)

    bad = [_int(p, "bad_primes") for p in _list(doc.get("bad_primes", []), "bad_primes")]
    label = _str(_object(doc.get("metadata", {}), "metadata").get("id", "M"), "metadata.id")
    return MotiveData(mtype, period, local, bad_primes=bad, label=label)


def _parse_fl(spec, p: int, mtype: MotiveType, where: str) -> FilPhiModule:
    spec = _object(spec, f"{where}.fl", "phi", "lattice")
    n = mtype.rank
    phi = _matrix(spec["phi"], f"{where}.phi", n, n)
    lattice = _matrix(spec["lattice"], f"{where}.lattice", n, n)
    fil = {}
    for step in _list(spec.get("filtration", []), f"{where}.filtration"):
        i = _int(_object(step, f"{where}.filtration", "i", "basis")["i"], f"{where}.filtration.i")
        fil[i] = _matrix(step["basis"], f"{where}.filtration[i={i}]", n, mtype.filtration_dim(i))
    return _built(where, lambda: FilPhiModule(p, Lattice(lattice), phi, fil, mtype.window))


def parse_quotient_spec(doc: Mapping[str, Any], m: MotiveData) -> QuotientSpec:
    doc = _object(doc, "quotient spec", "p", "k")
    p = _int(doc["p"], "p")
    k = _int(doc["k"], "k", 0)
    exponent = _int(doc.get("exponent", 1), "exponent", 0)
    n = m.rank
    q_dr = _matrix(doc.get("q_dr"), "q_dr", k, n)
    q_betti = _matrix(doc.get("q_betti"), "q_betti", k, n)
    phi_u = _matrix(doc.get("phi_u"), "phi_u", k, k)
    fil_u = []
    for step in _list(doc.get("filtration_u", []), "filtration_u"):
        i = _int(_object(step, "filtration_u", "i", "basis")["i"], "filtration_u.i")
        fil_u.append((i, _matrix(step["basis"], f"filtration_u[i={i}]", k)))
    return QuotientSpec(p, k, q_dr, q_betti, phi_u, tuple(fil_u), exponent)


# ---------------------------------------------------------------------------
# example documents (the CLI emits these)
# ---------------------------------------------------------------------------

def example_document(name: str) -> dict:
    """Builder documents: 'trivial', 'tate:<r>', 'elliptic:square'."""
    if name == "elliptic:square":
        return _elliptic_square_document()
    if name == "trivial" or name.startswith("tate:"):
        return _tate_document(_int("0" if name == "trivial" else name[5:], name))
    raise DocumentError(f"unknown example {name!r} (try trivial, tate:<r>, elliptic:square)")


def _tate_document(r: int) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "metadata": {"id": f"tate:{r}"},
        "type": {"weight": -2 * r, "hodge_numbers": {str(-r): 1},
                 "window": [-r, -r + 1]},
        "dr": {"reference": "adapted-standard",
               "filtration_dims": {str(-r): 1, str(-r + 1): 0}},
        "betti": {"rank": 1},
        "period": [[{"tpi": -r, "scale": "1"}]],
        "local": [
            {"p": 2, "fl": {"phi": [[str(Fraction(2) ** -r)]],
                            "lattice": [["1"]], "filtration": []}},
        ],
        "bad_primes": [],
    }
    return json.loads(canonical_bytes(doc))


def _elliptic_square_document() -> dict:
    # y^2 = x^3 - x: square period lattice Omega * (Z + iZ), Omega the
    # lemniscate-type constant pi / agm(sqrt(2), 1); 45 certified digits.
    omega = ("2.6220575542921198104648395898911194136827549514"
             "316231628168217038007905870704142502302955329614")
    digits = 45
    doc = {
        "format_version": FORMAT_VERSION,
        "metadata": {"id": "elliptic:square",
                     "curve": "y^2 = x^3 - x (conductor 32, minimal)"},
        "type": {"weight": -1, "hodge_numbers": {"-1": 1, "0": 1},
                 "window": [-1, 1]},
        "dr": {"reference": "adapted-standard",
               "filtration_dims": {"-1": 2, "0": 1, "1": 0}},
        "betti": {"rank": 2},
        "period": [
            [{"re": "0.38137988175090659403116299048180789664631461867404",  # 1/Omega
              "im": "0", "digits": digits},
             {"re": "0", "im": omega[:digits + 2], "digits": digits}],
            [{"re": "0", "im": "0"},
             {"re": "-" + omega[:digits + 2], "im": "0", "digits": digits}],
        ],
        "local": [
            {"p": 3, "fl": _elliptic_fl_rows(3, 0)},
            {"p": 5, "fl": _elliptic_fl_rows(5, -2)},
            {"p": 2, "override": {"0": 0}},
        ],
        "bad_primes": [2],
    }
    return json.loads(canonical_bytes(doc))


def _elliptic_fl_rows(p: int, a_p: int) -> dict:
    return {
        "phi": [[str(Fraction(a_p, p)), "1"], [str(Fraction(-1, p)), "0"]],
        "lattice": [["1", "0"], ["0", "1"]],
        "filtration": [{"i": 0, "basis": [["0"], ["1"]]}],
    }

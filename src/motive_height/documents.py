"""The text document format for motive data and quotient specs.

Documents are JSON with a format_version gate.  Exact quantities are
strings ("3/4"), never floats; complex period entries are either exact
rational pairs, exact rational multiples of integer powers of 2*pi*i
({"tpi": k, "scale": "3/4"}), or decimal pairs carrying their own certified
digit count ({"re": "...", "im": "...", "digits": 45}).  Canonical bytes
are the sorted-key compact JSON dump plus a trailing newline; parsing a
canonical document and re-canonicalizing is the identity on bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping

from .balls import ComplexBall, RealBall
from .experiments import QuotientSpec
from .fl import FilPhiModule, LocalLatticeSpec
from .lines import Lattice
from .motive import MotiveData, MotiveType
from .rational import QMatrix

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
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DocumentError(
            f"unsupported format_version {doc.get('format_version')!r}")
    return doc


def _fraction(s, where: str) -> Fraction:
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{where}: bad rational {s!r} ({exc})")
    if isinstance(s, int):
        return Fraction(s)
    raise DocumentError(f"{where}: exact fields must be strings, got {type(s).__name__}")


def _qmatrix(rows, where: str, shape: tuple[int, int] | None = None) -> QMatrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise DocumentError(f"{where}: expected a list of rows")
    m = QMatrix([[_fraction(x, where) for x in row] for row in rows]) \
        if rows and rows[0] else QMatrix.zeros(len(rows), 0)
    if shape is not None and (m.rows, m.cols) != shape:
        raise DocumentError(f"{where}: expected shape {shape}, got {(m.rows, m.cols)}")
    return m


def _period_entry(entry, where: str) -> ComplexBall:
    if isinstance(entry, str):
        return ComplexBall.from_rationals(_fraction(entry, where))
    if isinstance(entry, dict):
        if "tpi" in entry:
            k = entry["tpi"]
            if not isinstance(k, int):
                raise DocumentError(f"{where}: tpi exponent must be an integer")
            scale = _fraction(entry.get("scale", "1"), where)
            return ComplexBall.tpi_power(k, scale)
        if "re" in entry or "im" in entry:
            digits = entry.get("digits")
            if digits is not None and not isinstance(digits, int):
                raise DocumentError(f"{where}: digits must be an integer")
            re = entry.get("re", "0")
            im = entry.get("im", "0")
            if not isinstance(re, str) or not isinstance(im, str):
                raise DocumentError(f"{where}: decimal entries must be strings")
            try:
                return ComplexBall(RealBall.from_decimal(re, digits),
                                   RealBall.from_decimal(im, digits))
            except ValueError as exc:
                raise DocumentError(f"{where}: {exc}")
    raise DocumentError(f"{where}: unrecognized period entry {entry!r}")


def _int_keyed(mapping, where: str) -> dict[int, int]:
    if not isinstance(mapping, dict):
        raise DocumentError(f"{where}: expected an object")
    out = {}
    for k, v in mapping.items():
        try:
            out[int(k)] = int(v)
        except (TypeError, ValueError):
            raise DocumentError(f"{where}: bad entry {k!r}: {v!r}")
    return out


def parse_motive(doc: Mapping[str, Any]) -> MotiveData:
    """Build a MotiveData from a parsed document; schema errors raise
    DocumentError (semantic problems are left to validate())."""
    tspec = doc.get("type")
    if not isinstance(tspec, dict):
        raise DocumentError("missing type object")
    try:
        weight = int(tspec["weight"])
        numbers = _int_keyed(tspec.get("hodge_numbers", {}), "type.hodge_numbers")
        window = tspec.get("window")
        window = (int(window[0]), int(window[1])) if window is not None else None
        mtype = MotiveType.of(weight, numbers, window)
    except (KeyError, ValueError, TypeError) as exc:
        raise DocumentError(f"bad type object: {exc}")
    n = mtype.rank

    betti = doc.get("betti", {})
    if betti and int(betti.get("rank", n)) != n:
        raise DocumentError(f"betti.rank {betti.get('rank')} != type rank {n}")
    dr = doc.get("dr", {})
    declared = dr.get("filtration_dims")
    if declared is not None:
        for r, d in _int_keyed(declared, "dr.filtration_dims").items():
            if mtype.filtration_dim(r) != d:
                raise DocumentError(
                    f"dr.filtration_dims[{r}] = {d} disagrees with the type")

    period_rows = doc.get("period")
    if not isinstance(period_rows, list) or len(period_rows) != n \
            or any(not isinstance(r, list) or len(r) != n for r in period_rows):
        raise DocumentError(f"period must be a {n}x{n} matrix")
    period = [[_period_entry(x, f"period[{i}][{j}]")
               for j, x in enumerate(row)] for i, row in enumerate(period_rows)]

    local = {}
    for entry in doc.get("local", []):
        if not isinstance(entry, dict) or "p" not in entry:
            raise DocumentError("each local entry needs a prime p")
        p = int(entry["p"])
        where = f"local[p={p}]"
        if ("fl" in entry) == ("override" in entry):
            raise DocumentError(f"{where}: exactly one of fl/override required")
        if "override" in entry:
            try:
                local[p] = LocalLatticeSpec.from_map(
                    p, mtype.window, _int_keyed(entry["override"], where))
            except ValueError as exc:
                raise DocumentError(f"{where}: {exc}")
        else:
            local[p] = _parse_fl(entry["fl"], p, mtype, where)

    bad = doc.get("bad_primes", [])
    if not isinstance(bad, list):
        raise DocumentError("bad_primes must be a list")
    label = str(doc.get("metadata", {}).get("id", "M"))
    return MotiveData(mtype, period, local, bad_primes=[int(p) for p in bad],
                      label=label)


def _parse_fl(spec, p: int, mtype: MotiveType, where: str) -> FilPhiModule:
    if not isinstance(spec, dict):
        raise DocumentError(f"{where}: fl must be an object")
    n = mtype.rank
    a, b = mtype.window
    try:
        phi = _qmatrix(spec["phi"], f"{where}.phi", (n, n))
        lattice = _qmatrix(spec["lattice"], f"{where}.lattice", (n, n))
        fil = {}
        for step in spec.get("filtration", []):
            i = int(step["i"])
            k = mtype.filtration_dim(i)
            fil[i] = _qmatrix(step["basis"], f"{where}.filtration[i={i}]", (n, k))
    except KeyError as exc:
        raise DocumentError(f"{where}: missing field {exc}")
    try:
        return FilPhiModule(p, Lattice(lattice), phi, fil, (a, b))
    except DocumentError:
        raise
    except ValueError as exc:
        # shape was fine, the mathematics is not: a validation failure
        from .motive import InvalidMotive
        raise InvalidMotive([f"{where}: {exc}"])


def parse_quotient_spec(doc: Mapping[str, Any], m: MotiveData) -> QuotientSpec:
    try:
        p = int(doc["p"])
        k = int(doc["k"])
        exponent = int(doc.get("exponent", 1))
    except (KeyError, ValueError, TypeError) as exc:
        raise DocumentError(f"bad quotient spec: {exc}")
    n = m.rank
    a, b = m.window
    q_dr = _qmatrix(doc.get("q_dr"), "q_dr", (k, n))
    q_betti = _qmatrix(doc.get("q_betti"), "q_betti", (k, n))
    phi_u = _qmatrix(doc.get("phi_u"), "phi_u", (k, k))
    fil_u = []
    for step in doc.get("filtration_u", []):
        i = int(step["i"])
        fil_u.append((i, _qmatrix(step["basis"], f"filtration_u[i={i}]")))
    return QuotientSpec(p, k, q_dr, q_betti, phi_u, tuple(fil_u), exponent)


# ---------------------------------------------------------------------------
# example documents (the CLI emits these)
# ---------------------------------------------------------------------------

def example_document(name: str) -> dict:
    """Builder documents: 'trivial', 'tate:<r>', 'elliptic:square'."""
    if name == "trivial":
        name = "tate:0"
    if name.startswith("tate:"):
        try:
            r = int(name.split(":", 1)[1])
        except ValueError:
            raise DocumentError(f"bad tate parameter in {name!r}")
        return _tate_document(r)
    if name == "elliptic:square":
        return _elliptic_square_document()
    raise DocumentError(
        f"unknown example {name!r} (try trivial, tate:<r>, elliptic:square)")


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
            [{"re": _inverse_decimal(omega, digits), "im": "0", "digits": digits},
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


def _inverse_decimal(decimal: str, digits: int) -> str:
    from mpmath import mp, mpf, nstr
    with mp.workdps(digits + 15):
        return nstr(1 / mpf(decimal), digits + 5)

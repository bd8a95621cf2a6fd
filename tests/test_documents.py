import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

from motive_height.balls import RealBall, working_precision
from motive_height.documents import (
    DocumentError,
    _parse_fl,
    canonical_bytes,
    example_document,
    load_document,
    parse_motive,
    parse_quotient_spec,
)
from motive_height.fl import local_valuations
from motive_height.motive import InvalidMotive, MotiveType, height, tate_motive, validate
from motive_height.rational import QMatrix


def test_canonical_bytes_stable():
    doc = example_document("tate:1")
    blob = canonical_bytes(doc)
    again = canonical_bytes(load_document(blob))
    assert blob == again


def test_example_documents_validate():
    for name in ("trivial", "tate:0", "tate:1", "tate:-2", "elliptic:square"):
        m = parse_motive(example_document(name))
        rep = validate(m)
        assert rep.ok, (name, rep.issues)


def test_tate_document_height_matches_builder():
    m_doc = parse_motive(example_document("tate:1"))
    m_builder = tate_motive(1, fl_primes=(2,))
    h1, h2 = height(m_doc), height(m_builder)
    assert h1.h.overlaps(h2.h)
    assert h1.lattice_scalar == h2.lattice_scalar


def test_elliptic_document_height_value():
    m = parse_motive(example_document("elliptic:square"))
    rep = height(m)
    mp.dps = 60
    omega = mp.pi / mp.agm(mp.sqrt(2), 1)
    expected = -mp.log(2 * omega ** 2) / 2
    assert abs(rep.h.mid - expected) < mpf("1e-40") + rep.h.rad


def test_elliptic_document_inverse_period_pinned():
    # the decimal 1/omega is fixed, and building it leaves mp.prec as it was
    for prec in (53, 158, 300):
        mp.prec = prec
        doc = example_document("elliptic:square")
        assert mp.prec == prec
        assert doc["period"][0][0]["re"] == \
            "0.38137988175090659403116299048180789664631461867404"


@pytest.mark.parametrize("name", ["trivial", "tate:1", "elliptic:square"])
def test_example_heights_ignore_the_callers_mp_prec(name):
    # balls take their precision from current_bits(), so mp.prec left at
    # any value outside working_precision changes neither mid nor rad
    seen = set()
    for prec in (53, 158, 400):
        mp.prec = prec
        h = height(parse_motive(example_document(name))).h
        seen.add((h.mid._mpf_, h.rad._mpf_))
    assert len(seen) == 1


def test_unknown_example_rejected():
    with pytest.raises(DocumentError):
        example_document("elliptic:rectangular")


def test_format_version_gate():
    doc = example_document("trivial")
    doc["format_version"] = "0"
    with pytest.raises(DocumentError):
        load_document(canonical_bytes(doc))


def test_float_period_entry_rejected():
    doc = example_document("tate:0")
    doc["period"] = [[{"re": 1.5, "im": "0"}]]
    with pytest.raises(DocumentError):
        parse_motive(doc)


def test_bad_rational_rejected():
    doc = example_document("tate:0")
    doc["local"] = [{"p": 2, "fl": {"phi": [["1/0"]], "lattice": [["1"]],
                                    "filtration": []}}]
    with pytest.raises(DocumentError):
        parse_motive(doc)


def test_wrong_period_shape_rejected():
    doc = example_document("tate:0")
    doc["period"] = [["1", "0"]]
    with pytest.raises(DocumentError):
        parse_motive(doc)


def test_non_nested_filtration_is_semantic_error():
    doc = example_document("elliptic:square")
    for entry in doc["local"]:
        if "fl" in entry:
            # D^0 larger than D^{-1} is impossible; force a saturation break
            entry["fl"]["filtration"] = [{"i": 0, "basis": [["0"], ["5"]]}]
    with pytest.raises(InvalidMotive):
        parse_motive(doc)


def test_declared_dims_cross_checked():
    doc = example_document("tate:1")
    doc["dr"]["filtration_dims"]["-1"] = 7
    with pytest.raises(DocumentError):
        parse_motive(doc)


def test_quotient_spec_parsing():
    m = parse_motive(example_document("tate:1"))
    spec_doc = {
        "format_version": "1", "p": 2, "k": 1, "exponent": 2,
        "q_dr": [["1"]], "q_betti": [["1"]], "phi_u": [["1/2"]],
        "filtration_u": [],
    }
    spec = parse_quotient_spec(load_document(canonical_bytes(spec_doc)), m)
    assert spec.p == 2 and spec.k == 1 and spec.exponent == 2
    from fractions import Fraction

    from motive_height.experiments import invariance_experiment
    rep = invariance_experiment(m, spec)
    assert rep.passed
    assert rep.lattice_ratio == Fraction(1, 4)


def test_integer_fields_take_json_integers_and_decimal_strings():
    doc = example_document("elliptic:square")
    doc["type"]["weight"] = "-1"
    doc["local"][0]["p"] = "3"
    doc["bad_primes"] = ["2"]
    m = parse_motive(doc)
    assert sorted(m.local) == [2, 3, 5] and list(m.bad_primes) == [2]
    for bad in ("3.0", "0x3", "", "³", True, 3.0, None):
        doc = example_document("elliptic:square")
        doc["local"][0]["p"] = bad
        with pytest.raises(DocumentError, match="local.p: expected an integer"):
            parse_motive(doc)
    for field, value in (("weight", 1.0), ("weight", False), ("window", [-1, "1.5"]),
                         ("window", [-1])):
        doc = example_document("elliptic:square")
        doc["type"][field] = value
        with pytest.raises(DocumentError, match=rf"^type\.{field}: expected "):
            parse_motive(doc)
    doc = example_document("elliptic:square")
    doc["betti"]["rank"] = 2.0
    with pytest.raises(DocumentError, match="betti.rank"):
        parse_motive(doc)
    doc = example_document("tate:1")
    doc["period"][0][0]["tpi"] = True
    with pytest.raises(DocumentError, match="tpi: expected an integer"):
        parse_motive(doc)
    doc = example_document("elliptic:square")
    doc["period"][0][1]["digits"] = True
    with pytest.raises(DocumentError, match="digits: expected an integer"):
        parse_motive(doc)


def test_quotient_spec_integer_fields_rejected():
    m = parse_motive(example_document("elliptic:square"))
    good = {"format_version": "1", "p": 3, "k": 1, "exponent": 1,
            "q_dr": [["0", "1"]], "q_betti": [["0", "1"]], "phi_u": [["0"]],
            "filtration_u": [{"i": 0, "basis": [["1"]]}]}
    assert parse_quotient_spec(good, m).filtration_u[0][0] == 0
    for field, value in (("p", 2.5), ("k", "one"), ("exponent", True),
                         ("filtration_u", [{"i": "x", "basis": [["1"]]}]),
                         ("filtration_u", [3])):
        with pytest.raises(DocumentError):
            parse_quotient_spec(dict(good, **{field: value}), m)


def test_bench_generated_documents_parse(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    rng = random.Random("curves-cli:1")
    docs = [workloads.curve_document(rng, i)[0] for i in range(4)]
    docs += [workloads.tate_document(r) for r in range(-3, 4)]
    for doc in docs:
        assert validate(parse_motive(load_document(json.dumps(doc)))).ok


def test_fl_parse_and_valuations_read_no_fraction_view(monkeypatch):
    # QMatrix.data builds Fractions on each read; parsing and deciding a
    # curves-cli-style rank-2 module runs on the integer form alone
    reads = []
    view = QMatrix.data
    monkeypatch.setattr(QMatrix, "data", property(lambda m: reads.append(m) or view.fget(m)))
    mtype = MotiveType.of(-1, {-1: 1, 0: 1}, (-1, 1))
    for p, a_p in ((3, 0), (7, -4), (13, 5), (29, 10)):
        spec = {"phi": [[str(Fraction(a_p, p)), "1"], [str(Fraction(-1, p)), "0"]],
                "lattice": [["1", "0"], ["0", "1"]],
                "filtration": [{"i": 0, "basis": [["0"], ["1"]]}]}
        module = _parse_fl(spec, p, mtype, f"local[p={p}]")
        assert local_valuations(module).v == ((-1, 0), (0, 0), (1, 0))
    assert reads == []
    assert QMatrix.identity(1).data and len(reads) == 1  # the spy is live


# ---------------------------------------------------------------------------
# spellings, period balls and mutations
# ---------------------------------------------------------------------------

TATE_SPEC = {"format_version": "1", "p": 2, "k": 1, "exponent": 1, "q_dr": [["1"]],
             "q_betti": [["1"]], "phi_u": [["1/2"]], "filtration_u": []}
ELLIPTIC_SPEC = {"format_version": "1", "p": 3, "k": 2, "exponent": 1,
                 "q_dr": [["1", "0"], ["0", "1"]], "q_betti": [["1", "0"], ["0", "1"]],
                 "phi_u": [["0", "1"], ["-1/3", "0"]],
                 "filtration_u": [{"i": 0, "basis": [["0"], ["1"]]}]}

# Fraction's grammar, whitespace and underscores included; each exact
# spelling reads the same as a period entry and as a matrix entry
ACCEPTED = {"3/4": Fraction(3, 4), "-0": 0, "1e3": 1000, " 3/4": Fraction(3, 4),
            "1_0": 10, "2/4": Fraction(1, 2)}
REJECTED = ("3 / 4", "1/0", "nan", 1.5, True)


def _with_period(entry):
    doc = example_document("tate:0")
    doc["period"] = [[entry]]
    return doc


def test_exact_and_decimal_spellings_pinned():
    m = parse_motive(example_document("tate:1"))
    for text, value in ACCEPTED.items():
        z = parse_motive(_with_period(text)).period[0][0]
        assert z.exact == {0: (value, 0)}
        assert parse_quotient_spec(dict(TATE_SPEC, phi_u=[[text]]), m).phi_u[0, 0] == value
        z = parse_motive(_with_period({"re": text, "im": "0", "digits": 45})).period[0][0]
        assert z.re.mid == RealBall(value).mid and z.im.mid == 0
    for bad in REJECTED:
        # a rejection; test_cli pins that each one is malformed input
        for doc in (_with_period(bad), _with_period({"re": "1", "im": bad, "digits": 45})):
            with pytest.raises((DocumentError, ZeroDivisionError)):
                parse_motive(doc)
        with pytest.raises(DocumentError):
            parse_quotient_spec(dict(TATE_SPEC, phi_u=[[bad]]), m)


def _curve_documents(monkeypatch, count):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    rng = random.Random("curves-cli:1")
    return [workloads.curve_document(rng, i)[0] for i in range(count)]


def test_decimal_period_balls_enclose_their_certified_decimals(monkeypatch):
    # each decimal q certified to d digits reads as the ball with the
    # midpoint of q and a radius no larger than RealBall(q, |q| 10^-d)'s
    # that still holds q ± |q| 10^-d
    docs = [example_document("elliptic:square")] + _curve_documents(monkeypatch, 4)
    checked = 0
    for bits in (64, 128, 256):
        with working_precision(bits):
            for doc in docs:
                period = parse_motive(doc).period
                for i, row in enumerate(doc["period"]):
                    for j, entry in enumerate(row):
                        if "digits" not in entry:
                            continue
                        for part in ("re", "im"):
                            q = Fraction(entry[part])
                            r = (abs(q) or 1) / Fraction(10) ** entry["digits"]
                            ball, wide = getattr(period[i][j], part), RealBall(q, r)
                            assert ball.mid == wide.mid and ball.rad <= wide.rad
                            mid, rad = (RealBall(x).exact_fraction() for x in (ball.mid, ball.rad))
                            assert mid - rad <= q - r and q + r <= mid + rad
                            checked += 1
    assert checked == 3 * (6 + 4 * 6)


MUTANTS = (7, "x", [1], {"a": 1}, True, None, -1, "1/0")


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutated(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def test_mutated_documents_and_specs_never_raise(monkeypatch, tmp_path, capsys):
    # one node of a valid document or quotient spec replaced by a value of
    # another type: the CLI answers with an exit code, never a traceback
    from motive_height.cli import main

    def exit_code(*argv):
        code = main(list(argv))
        capsys.readouterr()
        return code

    rng = random.Random(11)
    motive = tmp_path / "motive.json"
    mutant = tmp_path / "mutant.json"
    docs = [example_document("elliptic:square"), example_document("tate:1")]
    docs += _curve_documents(monkeypatch, 1)
    for doc in docs:
        for path in _paths(doc):
            value = rng.choice(MUTANTS)
            mutant.write_text(json.dumps(_mutated(doc, path, value)))
            assert exit_code("height", str(mutant)) in (0, 1, 2, 3), (path, value)
    for name, spec in (("tate:1", TATE_SPEC), ("elliptic:square", ELLIPTIC_SPEC)):
        motive.write_bytes(canonical_bytes(example_document(name)))
        for path in _paths(spec):
            value = rng.choice(MUTANTS)
            mutant.write_text(json.dumps(_mutated(spec, path, value)))
            assert exit_code("experiment", str(motive), str(mutant)) in (0, 1, 2, 3), \
                (name, path, value)

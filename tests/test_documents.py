import json

import pytest
from mpmath import mp, mpf

from motive_height.documents import (
    DocumentError,
    canonical_bytes,
    example_document,
    load_document,
    parse_motive,
    parse_quotient_spec,
)
from motive_height.motive import InvalidMotive, height, tate_motive, validate


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

import json
import subprocess
import sys
import time

import pytest
from mpmath import mp, mpf

from motive_height import cli
from motive_height.cli import build_parser, main
from motive_height.documents import canonical_bytes, example_document


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_example(tmp_path, name, filename=None):
    path = tmp_path / (filename or name.replace(":", "_") + ".json")
    path.write_bytes(canonical_bytes(example_document(name)))
    return str(path)


def test_example_roundtrip_validates(capsys, tmp_path):
    code, out, err = run_cli(capsys, "example", "tate:1")
    assert code == 0
    path = tmp_path / "doc.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert "valid" in out


def test_height_tate0_exact_zero(capsys, tmp_path):
    path = write_example(tmp_path, "tate:0")
    code, out, err = run_cli(capsys, "height", path)
    assert code == 0
    assert "h = 0.0 ± 0" in out


def test_height_tate1_value_and_radius(capsys, tmp_path):
    path = write_example(tmp_path, "tate:1")
    code, out, err = run_cli(capsys, "height", path, "--format", "rows")
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[0] == "tate:1"
    assert (fields[1], fields[2]) == ("-1", "0")
    mp.dps = 50
    assert abs(mpf(fields[3]) + mp.log(2 * mp.pi)) < mpf("1e-24")
    assert mpf(fields[4]) < mpf("1e-30")
    assert mpf(fields[5]) == 0


def test_height_deterministic(capsys, tmp_path):
    path = write_example(tmp_path, "elliptic:square")
    code1, out1, _ = run_cli(capsys, "height", path)
    code2, out2, _ = run_cli(capsys, "height", path)
    assert code1 == code2 == 0
    assert out1 == out2


def test_precision_monotone(capsys, tmp_path):
    path = write_example(tmp_path, "tate:1")
    _, out128, _ = run_cli(capsys, "--precision", "128", "height", path,
                           "--format", "rows")
    _, out192, _ = run_cli(capsys, "--precision", "192", "height", path,
                           "--format", "rows")
    rad128 = mpf(out128.strip().split("\t")[4])
    rad192 = mpf(out192.strip().split("\t")[4])
    assert rad192 < rad128


def test_window_override_flag(capsys, tmp_path):
    path = write_example(tmp_path, "tate:1")
    _, base, _ = run_cli(capsys, "height", path, "--format", "rows")
    code, widened, err = run_cli(capsys, "height", path, "--window=-3,2",
                                 "--format", "rows")
    assert code == 0
    f_base, f_wide = base.split("\t"), widened.split("\t")
    assert (f_wide[1], f_wide[2]) == ("-3", "2")
    assert f_base[3] == f_wide[3]  # same height, report echoes the window
    code, out, err = run_cli(capsys, "height", path, "--window", "0,1")
    assert code == 1  # window does not contain the Hodge support


def test_parser_built_once_and_calls_independent(capsys, tmp_path):
    # one parser serves every call; a flag given to one call must not leak
    # into the namespace or the output of the next
    path = write_example(tmp_path, "elliptic:square")
    assert build_parser() is build_parser()
    text = run_cli(capsys, "height", path)
    valid = run_cli(capsys, "validate", path)
    rows = run_cli(capsys, "height", path, "--format", "rows")
    assert run_cli(capsys, "validate", path) == valid
    assert run_cli(capsys, "height", path) == text
    assert text[0] == valid[0] == rows[0] == 0
    assert text[1].startswith("id: ") and "valid" in valid[1]
    assert rows[1].startswith("elliptic") and "\t" in rows[1]
    # after those calls the shared parser still reads every argv exactly as
    # a freshly built one does
    for argv in (["height", path, "--format", "rows"], ["validate", path],
                 ["--precision", "64", "height", path]):
        assert vars(build_parser().parse_args(argv)) == \
            vars(build_parser.__wrapped__().parse_args(argv))
    first = build_parser().parse_args(["height", path, "--format", "rows"])
    second = build_parser().parse_args(["validate", path])
    assert first is not second and not hasattr(second, "format")


def test_validate_semantic_failure_exit1(capsys, tmp_path):
    doc = example_document("tate:1")
    # claim bad reduction at 7 without an override
    doc["bad_primes"] = [7]
    path = tmp_path / "bad.json"
    path.write_bytes(canonical_bytes(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "bad prime 7" in err


def test_non_nested_filtration_exit1(capsys, tmp_path):
    doc = example_document("elliptic:square")
    for entry in doc["local"]:
        if "fl" in entry:
            entry["fl"]["filtration"] = [{"i": 0, "basis": [["0"], ["5"]]}]
    path = tmp_path / "nonnested.json"
    path.write_bytes(canonical_bytes(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "p=3" in err or "p=5" in err


def _weight1_document(f1_second_entry):
    """Rank-2 weight-1 document with F^1 spanned by (1, f1_second_entry)."""
    return {"format_version": "1", "metadata": {"id": "w1"},
            "type": {"weight": 1, "hodge_numbers": {"0": 1, "1": 1}},
            "period": [["1", "1"], ["0", f1_second_entry]],
            "local": [], "bad_primes": []}


def test_opposition_det_exact_zero_exit1_ball_zero_exit2(capsys, tmp_path):
    # F^1 = span(1/3, 1/3) is real and F^1 = span(2 pi i, 2 pi i) imaginary:
    # either way D_1 = det[F^1 | conj F^1] is exactly zero, so the document
    # is not pure
    for entry in ("1/3", {"tpi": 1, "scale": "1"}):
        doc = _weight1_document(entry)
        doc["period"][0][1] = entry
        exact = tmp_path / "exact.json"
        exact.write_bytes(canonical_bytes(doc))
        for command in ("validate", "height"):
            code, out, err = run_cli(capsys, command, str(exact))
            assert code == 1, (command, err)
            assert "D_1 = 0" in err
    # F^1 = span(1, 1 + (0 +- 1e-40) i): the D_1 ball contains zero but the
    # data cannot decide, which is a precision verdict
    fuzzy = tmp_path / "fuzzy.json"
    fuzzy.write_bytes(canonical_bytes(_weight1_document(
        {"re": "1", "im": "0", "digits": 40})))
    for command in ("validate", "height"):
        code, out, err = run_cli(capsys, command, str(fuzzy))
        assert code == 2, (command, err)
        assert "precision exhausted" in err


def test_malformed_json_exit3(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 3
    code, out, err = run_cli(capsys, "height", str(path))
    assert code == 3


def test_missing_file_exit3(capsys, tmp_path):
    code, out, err = run_cli(capsys, "height", str(tmp_path / "nope.json"))
    assert code == 3


def test_local_command(capsys, tmp_path):
    path = write_example(tmp_path, "elliptic:square")
    code, out, err = run_cli(capsys, "local", path, "--p", "5")
    assert code == 0
    assert "computed-from-FL" in out
    assert "v(0) = 0" in out
    code, out, err = run_cli(capsys, "local", path, "--p", "11")
    assert code == 0
    assert "default-good" in out


def test_invariants_command(capsys, tmp_path):
    path = write_example(tmp_path, "tate:1")
    code, out, err = run_cli(capsys, "invariants", path)
    assert code == 0
    assert "s = -1" in out and "t = -1" in out and "pass" in out


def test_experiment_command(capsys, tmp_path):
    path = write_example(tmp_path, "tate:1")
    spec = {"format_version": "1", "p": 2, "k": 1, "exponent": 1,
            "q_dr": [["1"]], "q_betti": [["1"]], "phi_u": [["1/2"]],
            "filtration_u": []}
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(canonical_bytes(spec))
    code, out, err = run_cli(capsys, "experiment", path, str(spec_path), "-n", "2")
    assert code == 0
    assert "lattice ratio: 1/4" in out
    assert "heights match within radii: yes" in out


def test_batch_order_and_parallel_determinism(capsys, tmp_path):
    paths = [write_example(tmp_path, n)
             for n in ("tate:1", "tate:0", "elliptic:square")]
    code1, seq, _ = run_cli(capsys, "batch", *paths)
    assert code1 == 0
    code2, par, _ = run_cli(capsys, "batch", "--jobs", "2", *paths)
    assert code2 == 0
    assert seq == par
    lines = seq.strip().splitlines()
    assert lines[2].startswith("tate:1\t")
    assert lines[3].startswith("tate:0\t")
    assert lines[4].startswith("elliptic:square\t")


def test_batch_pool_is_no_larger_than_the_batch(capsys, tmp_path, monkeypatch):
    # the pool forks all its workers on the first submit, so it is sized by
    # the documents too; a stand-in records the size and starts no process
    sizes = []

    class Recording:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
    paths = [write_example(tmp_path, n) for n in ("tate:1", "tate:0", "elliptic:square")]
    code, seq, _ = run_cli(capsys, "batch", *paths)
    assert code == 0 and sizes == []
    for jobs, size in (("2", 2), ("3", 3), ("64", 3)):
        assert run_cli(capsys, "batch", "--jobs", jobs, *paths) == (0, seq, "")
        assert sizes.pop() == size
    assert run_cli(capsys, "batch", "--jobs", "64", paths[0])[0] == 0
    assert sizes == []
    for jobs in ("0", "-3"):
        assert run_cli(capsys, "batch", "--jobs", jobs, *paths) == \
            (3, "", f"malformed input: --jobs: expected an integer >= 1, got {jobs}\n")
    assert sizes == []


def test_batch_directory_input(capsys, tmp_path):
    write_example(tmp_path, "tate:0", "a.json")
    write_example(tmp_path, "tate:1", "b.json")
    code, out, err = run_cli(capsys, "batch", str(tmp_path), "--format", "rows")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("tate:0\t")


def test_batch_reports_bad_documents_and_prints_every_good_row(capsys, tmp_path):
    # rows go to stdout in path order, each failure to stderr as
    # "<path>: <message>", and the exit code is the worst one seen
    write_example(tmp_path, "tate:1", "a.json")
    (tmp_path / "b.json").write_text('{"format_version": 1}')
    write_example(tmp_path, "elliptic:square", "c.json")
    fuzzy = example_document("tate:0")  # weight 0, rank 1, FL at p = 2
    fuzzy["period"] = [[{"re": "0.001", "im": "0", "digits": 1}]]
    (tmp_path / "d.json").write_bytes(canonical_bytes(fuzzy))
    not_sd = example_document("tate:1")
    not_sd["local"][0]["fl"]["phi"] = [["1"]]
    (tmp_path / "e.json").write_bytes(canonical_bytes(not_sd))
    runs = [run_cli(capsys, "batch", str(tmp_path), "--format", "rows", "--jobs", jobs)
            for jobs in ("1", "2")]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == 3
    assert [row.split("\t")[0] for row in out.splitlines()] == ["tate:1", "elliptic:square"]
    assert err.splitlines() == [
        f"{tmp_path / 'b.json'}: malformed input: unsupported format_version 1",
        f"{tmp_path / 'd.json'}: precision exhausted: D_0 = det[F^0 | conj F^1] "
        "cannot be certified nonzero at 128 bits",
        f"{tmp_path / 'e.json'}: invalid: local datum at p=2: strong divisibility "
        "fails (lattice sum has basis ((Fraction(2, 1),),))"]
    (tmp_path / "b.json").unlink()
    assert run_cli(capsys, "batch", str(tmp_path), "--format", "rows")[0] == 2
    (tmp_path / "d.json").unlink()
    assert run_cli(capsys, "batch", str(tmp_path), "--format", "rows")[0] == 1


def _broken_elliptic(change):
    doc = example_document("elliptic:square")
    change(doc)
    return doc


def _set_local(index, key, value):
    return lambda doc: doc["local"][index].__setitem__(key, value)


def _set_fl(key, value):
    return lambda doc: doc["local"][0]["fl"].__setitem__(key, value)


def _set_entry(key, value):
    return lambda doc: doc["period"][0][1].__setitem__(key, value)


# each malformed field of elliptic:square (integers, containers of the wrong
# type, a ragged matrix row, decimals), with the message it gives
MALFORMED_FIELDS = {
    "p-word": (_set_local(0, "p", "x"), "local.p: expected an integer, got 'x'"),
    "p-list": (_set_local(0, "p", [3]), "local.p: expected an integer, got [3]"),
    "p-float": (_set_local(0, "p", 3.9), "local.p: expected an integer, got 3.9"),
    "i-word": (lambda doc: doc["local"][0]["fl"]["filtration"][0].__setitem__("i", "x"),
               "local[p=3].filtration.i: expected an integer, got 'x'"),
    "bad-prime-word": (lambda doc: doc.__setitem__("bad_primes", ["x"]),
                       "bad_primes: expected an integer, got 'x'"),
    "override-float": (_set_local(2, "override", {"0": 1.5}),
                       "local[p=2][0]: expected an integer, got 1.5"),
    "phi-bool": (lambda doc: doc["local"][0]["fl"]["phi"][0].__setitem__(1, True),
                 "local[p=3].phi: exact fields must be strings, got bool"),
    "local": (lambda doc: doc.__setitem__("local", 5), "local: expected a list, got 5"),
    "betti": (lambda doc: doc.__setitem__("betti", 5), "betti: expected an object, got 5"),
    "dr": (lambda doc: doc.__setitem__("dr", 5), "dr: expected an object, got 5"),
    "metadata": (lambda doc: doc.__setitem__("metadata", 5),
                 "metadata: expected an object, got 5"),
    "filtration": (_set_fl("filtration", 5), "local[p=3].filtration: expected a list, got 5"),
    "ragged-phi": (_set_fl("phi", [["-1/3", "1", "0"], ["-1/3", "0"]]),
                   "local[p=3].phi: expected a list of length 2, got a list of length 3"),
    "digits": (_set_entry("digits", -1),
               "period[0][1].digits: expected an integer >= 0, got -1"),
    "re-zero-denominator": (_set_entry("re", "1/0"),
                            "period[0][1].re: invalid rational literal '1/0'"),
    "re-spaced": (_set_entry("re", "3 / 4"),
                  "period[0][1].re: invalid rational literal '3 / 4'"),
    "re-decimal-letters": (_set_entry("re", "1.dd"),
                           "period[0][1].re: invalid rational literal '1.dd'"),
    "id": (lambda doc: doc["metadata"].__setitem__("id", 5),
           "metadata.id: expected a string, got 5"),
}


@pytest.mark.parametrize("case", MALFORMED_FIELDS)
def test_malformed_integer_fields_exit3(capsys, tmp_path, case):
    change, message = MALFORMED_FIELDS[case]
    path = tmp_path / "bad.json"
    path.write_bytes(canonical_bytes(_broken_elliptic(change)))
    for command in ("validate", "height"):
        assert run_cli(capsys, command, str(path)) == (3, "", f"malformed input: {message}\n")


@pytest.mark.parametrize("literal", ["1e1000000", "1e-1000000"])
@pytest.mark.parametrize("field, change", [
    ("period[0][1].re", lambda doc, x: doc["period"][0][1].__setitem__("re", x)),
    ("local[p=3].phi", lambda doc, x: doc["local"][0]["fl"]["phi"][0].__setitem__(0, x)),
])
def test_huge_decimal_exponent_exits3_at_once(capsys, tmp_path, field, change, literal):
    path = tmp_path / "bad.json"
    path.write_bytes(canonical_bytes(_broken_elliptic(lambda doc: change(doc, literal))))
    start = time.perf_counter()
    assert run_cli(capsys, "height", str(path)) == \
        (3, "", f"malformed input: {field}: exponent of {literal!r} exceeds 4300 in magnitude\n")
    assert time.perf_counter() - start < 1


def test_batch_prints_good_rows_around_a_malformed_integer(capsys, tmp_path):
    good = write_example(tmp_path, "elliptic:square", "a.json")
    bad = tmp_path / "b.json"
    for case in ("p-word", "local"):
        change, message = MALFORMED_FIELDS[case]
        bad.write_bytes(canonical_bytes(_broken_elliptic(change)))
        for jobs in ("1", "2"):
            code, out, err = run_cli(capsys, "batch", good, str(bad), good,
                                     "--format", "rows", "--jobs", jobs)
            assert code == 3
            assert [row.split("\t")[0] for row in out.splitlines()] == ["elliptic:square"] * 2
            assert err == f"{bad}: malformed input: {message}\n"


TATE_SPEC = {"format_version": "1", "p": 2, "k": 1, "exponent": 1, "q_dr": [["1"]],
             "q_betti": [["1"]], "phi_u": [["1/2"]], "filtration_u": []}


@pytest.mark.parametrize("spec, flags, message", [
    ({}, ["-n", "-1"], "-n: expected an integer >= 0, got -1"),
    ({"exponent": -1}, [], "exponent: expected an integer >= 0, got -1"),
    ({"filtration_u": 5}, [], "filtration_u: expected a list, got 5"),
])
def test_malformed_experiment_inputs_exit3(capsys, tmp_path, spec, flags, message):
    path = write_example(tmp_path, "tate:1")
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(canonical_bytes(dict(TATE_SPEC, **spec)))
    assert run_cli(capsys, "experiment", path, str(spec_path), *flags) == \
        (3, "", f"malformed input: {message}\n")


def test_precision_and_digits_below_their_minimum_exit3(capsys, tmp_path):
    path = write_example(tmp_path, "tate:1")
    assert run_cli(capsys, "--precision", "4", "height", path) == \
        (3, "", "malformed input: --precision: expected an integer >= 8, got 4\n")
    assert run_cli(capsys, "--precision", "8", "height", path)[0] == 0
    for digits in ("0", "-5"):
        assert run_cli(capsys, "--digits", digits, "height", path) == \
            (3, "", f"malformed input: --digits: expected an integer >= 1, got {digits}\n")
    code, out, _ = run_cli(capsys, "--digits", "1", "height", path)
    assert code == 0 and "h = -2.0 ± " in out


def test_local_needs_a_prime(capsys, tmp_path):
    path = write_example(tmp_path, "elliptic:square")
    for p in ("4", "1", "0", "-3"):
        assert run_cli(capsys, "local", path, "--p", p) == \
            (3, "", f"malformed input: --p: expected a prime, got {p}\n")
    code, out, _ = run_cli(capsys, "local", path, "--p", "7")
    assert code == 0 and out.startswith("p = 7 (default-good)\n")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "motive_height.cli", "example", "trivial"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["format_version"] == "1"

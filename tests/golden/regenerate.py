"""Rewrite the golden files in this directory from the current tree.

    PYTHONPATH=src python tests/golden/regenerate.py

Each ``demos/<demo>.py`` prints into ``<demo>.txt``, and each CLI example
(``trivial``, ``tate:1``, ``tate:-2``, ``elliptic:square``) prints
``height`` as text and as rows, ``local --p 3`` and ``--p 5`` and
``invariants`` at 64, 128 and 256 bits into ``cli_<example>.txt``, and each
quotient spec ``spec_<example>_p<p>.json`` here (hand-written inputs, not
rewritten) gives ``experiment -n 1`` and ``-n 2`` at the same precisions in
``cli_experiment_<example>_p<p>.txt``.  The eight ``ACCEPTANCE`` lines of
``tests/test_acceptance.py``, each without its ``(elapsed, budget)`` note, go
into ``acceptance.txt``.  ``tests/test_demos.py``,
``tests/test_cli_goldens.py`` and ``tests/test_acceptance_golden.py`` compare
the same output against these files, so run this only after a deliberate
change to an output, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import re
import runpy
import subprocess
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXAMPLES = ("trivial", "tate:1", "tate:-2", "elliptic:square")
BITS = (64, 128, 256)
COMMANDS = (("height",), ("height", "--format", "rows"), ("local", "--p", "3"),
            ("local", "--p", "5"), ("invariants",))
SPECS = (("elliptic:square", 3), ("elliptic:square", 5), ("tate:1", 2))
EXPONENTS = (1, 2)
ACCEPTANCE = GOLDEN / "acceptance.txt"
_ELAPSED = re.compile(r" \(\d+\.\d\ds, budget [\d.]+s\)")


STALE = "output differs from {}: after a deliberate change run tests/golden/regenerate.py"


def demo_output(path: pathlib.Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def _cli_run(bits: int, argv: list, shown: list) -> list:
    """One CLI run at ``bits`` bits: the command line with the file names
    ``shown``, its stdout, its stderr lines marked ``stderr:`` and its exit
    code."""
    from motive_height.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--precision", str(bits), *argv])
    return ([" ".join(("$ motive-height --precision", str(bits), *shown))]
            + out.getvalue().splitlines()
            + [f"stderr: {line}" for line in err.getvalue().splitlines()]
            + [f"exit {code}"])


def _with_document(example: str, run) -> str:
    """run(path) on the example's document written to a temporary file."""
    from motive_height.documents import canonical_bytes, example_document

    with tempfile.TemporaryDirectory() as tmp:
        doc = pathlib.Path(tmp) / "doc.json"
        doc.write_bytes(canonical_bytes(example_document(example)))
        return "\n".join(run(str(doc))) + "\n"


def cli_output(example: str) -> str:
    """Every command of ``COMMANDS`` at every precision of ``BITS`` on the
    example's document."""
    return _with_document(example, lambda doc: [
        line for bits in BITS for command in COMMANDS
        for line in _cli_run(bits, [command[0], doc, *command[1:]],
                             [command[0], "doc.json", *command[1:]])])


def experiment_output(example: str, p: int) -> str:
    """``experiment`` with the example's spec at p, at every exponent of
    ``EXPONENTS`` and every precision of ``BITS``."""
    spec = spec_document(example, p)
    return _with_document(example, lambda doc: [
        line for bits in BITS for n in EXPONENTS
        for line in _cli_run(bits, ["experiment", doc, str(spec), "-n", str(n)],
                             ["experiment", "doc.json", spec.name, "-n", str(n)])])


def _stem(example: str) -> str:
    return example.replace(":", "_")


def cli_golden(example: str) -> pathlib.Path:
    return GOLDEN / f"cli_{_stem(example)}.txt"


def spec_document(example: str, p: int) -> pathlib.Path:
    return GOLDEN / f"spec_{_stem(example)}_p{p}.json"


def experiment_golden(example: str, p: int) -> pathlib.Path:
    return GOLDEN / f"cli_experiment_{_stem(example)}_p{p}.txt"


def acceptance_output() -> str:
    """The ``ACCEPTANCE`` lines that ``tests/test_acceptance.py`` prints in a
    fresh interpreter, each without its ``(elapsed, budget)`` note."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                          str(ROOT / "tests" / "test_acceptance.py")],
                         cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True)
    return "".join(_ELAPSED.sub("", line).rstrip() + "\n"
                   for line in run.stdout.splitlines() if line.startswith("ACCEPTANCE "))


def main() -> None:
    for path in DEMOS:
        (GOLDEN / f"{path.stem}.txt").write_text(demo_output(path), encoding="utf-8")
    for example in EXAMPLES:
        cli_golden(example).write_text(cli_output(example), encoding="utf-8")
    for example, p in SPECS:
        experiment_golden(example, p).write_text(experiment_output(example, p),
                                                 encoding="utf-8")
    ACCEPTANCE.write_text(acceptance_output(), encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()

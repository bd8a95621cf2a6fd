"""Rewrite the golden files in this directory from the current tree.

    PYTHONPATH=src python tests/golden/regenerate.py

Each ``demos/<demo>.py`` prints into ``<demo>.txt``, and each CLI example
(``trivial``, ``tate:1``, ``tate:-2``, ``elliptic:square``) prints
``height`` as text and as rows, ``local --p 3`` and ``--p 5`` and
``invariants`` at 64, 128 and 256 bits into ``cli_<example>.txt``.
``tests/test_demos.py`` and ``tests/test_cli_goldens.py`` compare the same
output against these files, so run this only after a deliberate change to
an output, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import runpy
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXAMPLES = ("trivial", "tate:1", "tate:-2", "elliptic:square")
BITS = (64, 128, 256)
COMMANDS = (("height",), ("height", "--format", "rows"), ("local", "--p", "3"),
            ("local", "--p", "5"), ("invariants",))


STALE = "output differs from {}: after a deliberate change run tests/golden/regenerate.py"


def demo_output(path: pathlib.Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def cli_output(example: str) -> str:
    """Every command of ``COMMANDS`` at every precision of ``BITS`` on the
    example's document, as the command line, its stdout, its stderr lines
    marked ``stderr:`` and its exit code."""
    from motive_height.cli import main
    from motive_height.documents import canonical_bytes, example_document

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        doc = pathlib.Path(tmp) / "doc.json"
        doc.write_bytes(canonical_bytes(example_document(example)))
        for bits in BITS:
            for command in COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["--precision", str(bits), command[0], str(doc), *command[1:]])
                lines.append(" ".join(("$ motive-height --precision", str(bits), command[0],
                                       "doc.json", *command[1:])))
                lines += out.getvalue().splitlines()
                lines += [f"stderr: {line}" for line in err.getvalue().splitlines()]
                lines.append(f"exit {code}")
    return "\n".join(lines) + "\n"


def cli_golden(example: str) -> pathlib.Path:
    return GOLDEN / f"cli_{example.replace(':', '_')}.txt"


def main() -> None:
    for path in DEMOS:
        (GOLDEN / f"{path.stem}.txt").write_text(demo_output(path), encoding="utf-8")
    for example in EXAMPLES:
        cli_golden(example).write_text(cli_output(example), encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()

"""Every script in demos/ runs to the end and prints what it printed when
its golden file under tests/golden/ was written.

After a deliberate change to a demo's output, regenerate its golden file
from the repository root with

    PYTHONPATH=src python demos/<demo>.py > tests/golden/<demo>.txt
"""

import contextlib
import io
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


def test_demos_found():
    assert "height_invariance.py" in {path.name for path in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue() == (GOLDEN / f"{path.stem}.txt").read_text(encoding="utf-8")
    if path.name == "height_invariance.py":
        assert out.getvalue().count("all identities: pass") == 4

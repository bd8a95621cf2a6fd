"""Every script in demos/ runs to the end and prints what it printed when
its golden file under tests/golden/ was written.

After a deliberate change to a demo's output, regenerate the golden files
from the repository root with

    PYTHONPATH=src python tests/golden/regenerate.py

and review the diff.
"""

import pytest

from golden.regenerate import DEMOS, GOLDEN, STALE, demo_output


def test_demos_found():
    assert "height_invariance.py" in {path.name for path in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path):
    out = demo_output(path)
    golden = GOLDEN / f"{path.stem}.txt"
    assert out == golden.read_text(encoding="utf-8"), STALE.format(golden.name)
    if path.name == "height_invariance.py":
        assert out.count("all identities: pass") == 4

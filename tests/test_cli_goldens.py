"""The CLI prints, for each builder example, what it printed when its golden
file under tests/golden/ was written: ``height`` as text and as rows,
``local --p 3`` and ``--p 5`` and ``invariants``, each at 64, 128 and 256
bits, with stderr and the exit code.  A one-digit change to any printed
height or radius fails here; regenerate with tests/golden/regenerate.py
after a deliberate change, and list the changed lines.
"""

import pytest

from golden.regenerate import EXAMPLES, STALE, cli_golden, cli_output


@pytest.mark.parametrize("example", EXAMPLES)
def test_cli_output_matches_golden(example):
    golden = cli_golden(example)
    assert cli_output(example) == golden.read_text(encoding="utf-8"), STALE.format(golden.name)

"""The CLI prints, for each builder example, what it printed when its golden
file under tests/golden/ was written: ``height`` as text and as rows,
``local --p 3`` and ``--p 5`` and ``invariants``, each at 64, 128 and 256
bits, with stderr and the exit code; and ``experiment -n 1`` and ``-n 2`` with
each quotient spec document there, at the same precisions.  A one-digit change to any printed
height or radius fails here; regenerate with tests/golden/regenerate.py
after a deliberate change, and list the changed lines.
"""

import pytest

from golden.regenerate import (EXAMPLES, SPECS, STALE, cli_golden, cli_output,
                               experiment_golden, experiment_output)


@pytest.mark.parametrize("example", EXAMPLES)
def test_cli_output_matches_golden(example):
    golden = cli_golden(example)
    assert cli_output(example) == golden.read_text(encoding="utf-8"), STALE.format(golden.name)


@pytest.mark.parametrize("example, p", SPECS, ids=lambda x: str(x))
def test_experiment_output_matches_golden(example, p):
    golden = experiment_golden(example, p)
    assert experiment_output(example, p) == golden.read_text(encoding="utf-8"), \
        STALE.format(golden.name)

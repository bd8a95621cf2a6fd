"""The acceptance suite prints what it printed when tests/golden/acceptance.txt
was written: the eight ``ACCEPTANCE`` lines with their PASS verdicts and
details, without the elapsed times, which vary from run to run.  The suite
runs once more here, in a fresh interpreter; regenerate with
tests/golden/regenerate.py after a deliberate change, and list the changed
lines.
"""

from golden.regenerate import ACCEPTANCE, STALE, acceptance_output


def test_acceptance_lines_match_golden():
    lines = acceptance_output()
    assert len(lines.splitlines()) == 8 and lines.count(": PASS") == 8, lines
    assert lines == ACCEPTANCE.read_text(encoding="utf-8"), STALE.format(ACCEPTANCE.name)

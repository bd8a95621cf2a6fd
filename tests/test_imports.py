"""Every name a library module imports is read somewhere in that module,
no library module reaches into another's private names, and none reads
mpmath's global precision.

No linter ships with the project, so these AST scans stand in for one.  In
the unused-import scan ``__init__.py`` (which re-exports) and
``from __future__`` imports are exempt.  The private-name scan covers every
module: an underscore-prefixed name imported from another library module,
or read as an attribute of one or of a name (a class, say) imported from
one, is a helper that belongs next to its caller.
The precision scan keeps results independent of a caller's ``mp.prec``:
balls take their precision from ``current_bits()``, and only
``working_precision`` reads ``mp.prec``, to restore it on exit.
The raw-part scan keeps mpmath's raw ``_mpf_`` tuples inside ``balls``:
other modules read a ball's integer parts through ``balls.ball_parts``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "motive_height"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = SRC.name


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_scan_finds_unused_import():
    src = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert unused_imports(src) == ["path (line 1)", "sys (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> list[str]:
    """Private names a module takes from other modules of the package."""
    tree = ast.parse(source)
    found, owners = [], set()  # sibling modules and names imported from them
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == PACKAGE):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{alias.name} (line {node.lineno})")
                else:
                    owners.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    owners.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in owners:
                found.append(f"{node.attr} (line {node.lineno})")
    return sorted(found)


def test_scan_finds_private_import():
    src = ("from .fl import _coords_in, local_valuations\n"
           "from motive_height.balls import _fixed\n"
           "from . import hodge as h\n"
           "import motive_height.rational\n"
           "from os import _exit\n"
           "h._exactly_singular(motive_height.rational._bareiss, h.__name__)\n"
           "from .rational import QMatrix as Q\n"
           "from fractions import Fraction\n"
           "Q._reduced(Q.identity(2)._num, Fraction._operator_fallbacks)\n")
    assert private_imports(src) == ["_bareiss (line 6)", "_coords_in (line 1)",
                                    "_exactly_singular (line 6)", "_fixed (line 2)",
                                    "_reduced (line 9)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def precision_reads(source: str) -> list[str]:
    """Reads of ``mp.prec`` or ``mp.dps``, each named by its outermost
    enclosing function or class (``<module>`` at the top level)."""
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in ("prec", "dps")
                    and isinstance(node.ctx, ast.Load)
                    and (isinstance(node.value, ast.Name) and node.value.id == "mp"
                         or isinstance(node.value, ast.Attribute) and node.value.attr == "mp")):
                found.append(f"{scope} (line {node.lineno})")
    return sorted(found)


def test_scan_finds_precision_reads():
    src = ("import mpmath\nfrom mpmath import mp\n"
           "mp.prec = 53\n"
           "def f():\n    return mp.prec + mp.dps\n"
           "class C:\n    def g(self):\n        self.saved = mpmath.mp.prec\n"
           "print(mp.prec, fp.prec)\n")
    assert precision_reads(src) == ["<module> (line 9)", "C (line 8)",
                                    "f (line 5)", "f (line 5)"]


PRECISION_READERS = {"balls.py": ("working_precision",)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_precision_reads(path):
    allowed = PRECISION_READERS.get(path.name, ())
    reads = precision_reads(path.read_text(encoding="utf-8"))
    assert [r for r in reads if r.split()[0] not in allowed] == []


def raw_part_reads(source: str) -> list[str]:
    """Lines that read an ``_mpf_`` attribute, on any object."""
    return sorted(f"_mpf_ (line {node.lineno})" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "_mpf_")


def test_scan_finds_raw_part_reads():
    src = ("from mpmath import mpf\n"
           "sign, man, exp, bc = mpf(3)._mpf_\n"
           "def f(ball):\n    return ball.mid._mpf_, getattr(ball, '_mpf_')\n"
           "x = mpf(1).man\n")
    assert raw_part_reads(src) == ["_mpf_ (line 2)", "_mpf_ (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_raw_part_reads_outside_balls(path):
    reads = raw_part_reads(path.read_text(encoding="utf-8"))
    assert path.name == "balls.py" or reads == []

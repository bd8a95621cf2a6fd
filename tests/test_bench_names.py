"""Every name the benchmark's tracer wraps still exists in the library.

``bench/tracing.py`` patches functions and methods by name; a rename in
the library would otherwise surface only when ``bench/run.py --trace 1``
is run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("owner, attr, name", tracing.SPANNED,
                         ids=[name + ":" + attr for _, attr, name in tracing.SPANNED])
def test_spanned_name_exists(owner, attr, name):
    assert callable(getattr(owner, attr, None))


@pytest.mark.parametrize("cls, attrs, name", tracing.COUNTED,
                         ids=[name for _, _, name in tracing.COUNTED])
def test_counted_methods_exist(cls, attrs, name):
    # the tracer patches these from the class's own namespace
    missing = [a for a in attrs if a not in vars(cls)]
    assert not missing

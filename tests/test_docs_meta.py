"""Documentation hygiene: every public item in the library is documented.

Deliverable (e) requires doc comments on every public item; this test
makes that a regression-checked property rather than a promise.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

SKIP_MODULES = set()


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        yield importlib.import_module(info.name)


MODULES = list(iter_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_documented(module):
    for name, cls in inspect.getmembers(module, inspect.isclass):
        if name.startswith("_") or cls.__module__ != module.__name__:
            continue
        assert cls.__doc__, "%s.%s lacks a docstring" % (module.__name__, name)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_functions_documented(module):
    for name, fn in inspect.getmembers(module, inspect.isfunction):
        if name.startswith("_") or fn.__module__ != module.__name__:
            continue
        assert fn.__doc__, "%s.%s lacks a docstring" % (module.__name__, name)


def test_package_exports_resolve():
    """Every name in a package __all__ actually exists."""
    for module in MODULES:
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), (module.__name__, name)


def test_run_options_table_matches_runspec():
    """docs/performance.md's "Run options" table lists exactly the
    RunSpec fields, with their flag, variable and comparability."""
    import pathlib

    from repro.harness.lifecycle import RunSpec

    doc = (pathlib.Path(__file__).resolve().parents[1] / "docs"
           / "performance.md").read_text()
    section = doc.split("## Run options", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        field, flag, var, _default, comparable = cells
        rows[field.strip("`")] = (None if flag == "—" else flag.strip("`"),
                                  var.strip("`"), comparable == "yes")
    want = {name: (flag, var, name in RunSpec.COMPARABLE)
            for name, (flag, var) in RunSpec.OPTIONS.items()}
    assert rows == want

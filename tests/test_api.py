"""The public API: every exported name resolves, and none is listed twice.

The README's repository layout names exactly the package's modules, and the
key-objects tables of README.md and PAPER.md name real methods with their
real parameters.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import legdiff

# legdiff.__main__ only starts the command line and exports nothing.
_SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(legdiff.__path__) if info.name != "__main__"
)


def _module(name: str):
    return legdiff if name == "legdiff" else importlib.import_module(f"legdiff.{name}")


@pytest.mark.parametrize("name", ["legdiff", *_SUBMODULES])
def test_every_exported_name_resolves_once(name):
    module = _module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(
        n for n in set(exported) if exported.count(n) > 1
    )
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing


def test_package_exports_come_from_submodules():
    """A package-level name is the object its submodule exports."""
    owners = {}
    for name in _SUBMODULES:
        module = _module(name)
        for exported in module.__all__:
            owners.setdefault(exported, getattr(module, exported))
    for exported in legdiff.__all__:
        if exported == "__version__":
            continue
        assert exported in owners, exported
        assert getattr(legdiff, exported) is owners[exported], exported


def test_readme_layout_names_every_module():
    """The "Repository layout" block lists each src/legdiff/*.py but __init__ and __main__."""
    package = Path(legdiff.__file__).parent
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Repository layout", 1)[1].split("```")[1]
    listed = re.findall(r"^\s+(\w+\.py)\b", block, flags=re.MULTILINE)
    entry_points = ("__init__.py", "__main__.py")
    modules = sorted(path.name for path in package.glob("*.py") if path.name not in entry_points)
    assert sorted(listed) == modules
    assert len(listed) == len(set(listed))


def _resolve(owner, dotted: str):
    """The object ``dotted`` names on ``owner``, or None."""
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
    return owner


def _resolves(owner, dotted: str) -> bool:
    return _resolve(owner, dotted) is not None


#: The documents whose "Key objects" table the two checks below read.
_KEY_OBJECT_DOCS = ["README.md", "PAPER.md"]


def _key_object_rows(document: str):
    """A document's "Key objects" table rows as (names cell, role cell)."""
    text = (Path(legdiff.__file__).parents[2] / document).read_text(encoding="utf-8")
    table = text.split("Key objects:", 1)[1].strip().split("\n\n", 1)[0]
    for row in table.splitlines()[2:]:  # past the header and its rule
        _, names, role, _ = row.split("|")
        yield names, role


@pytest.mark.parametrize("document", _KEY_OBJECT_DOCS)
def test_key_object_rows_name_real_objects(document):
    """The first backticked name of every "Key objects" row resolves on legdiff,
    so no row outlives the object it describes."""
    rows = list(_key_object_rows(document))
    assert rows
    for names, _ in rows:
        first = re.match(r"\s*`(\w+)", names).group(1)
        assert _resolves(legdiff, first), first


@pytest.mark.parametrize("document", _KEY_OBJECT_DOCS)
def test_readme_key_objects_name_real_methods(document):
    """In a "Key objects" row led by a class legdiff exports, each `name(` of the
    role cell resolves on that class or in legdiff."""
    checked = []
    for names, role in _key_object_rows(document):
        first = re.match(r"\s*`(\w+)", names).group(1)
        cls = getattr(legdiff, first, None)
        if not isinstance(cls, type):
            continue
        for called in re.findall(r"`([\w.]+)\(", role):
            assert _resolves(cls, called) or _resolves(legdiff, called), (first, called)
            checked.append((first, called))
    assert ("DerivativeExpansion", "apply_both") in checked


@pytest.mark.parametrize("document", _KEY_OBJECT_DOCS)
def test_readme_key_object_calls_list_real_parameters(document):
    """Each backticked call `name(p, q=v)` in the "Key objects" table whose name
    resolves in legdiff, or on the class that leads its row (`.name(` too),
    lists only parameters of its signature, and each default v is the
    signature's.  A call in a row's names cell must resolve, so no row names
    a call that is gone."""
    checked = []
    for names, role in _key_object_rows(document):
        row_class = _resolve(legdiff, re.match(r"\s*`(\w+)", names).group(1))
        for called, listed in re.findall(r"`([\w.]+)\(([^`]*)\)`", names + role):
            target = _resolve(legdiff, called)
            if target is None and isinstance(row_class, type):
                target = _resolve(row_class, called.lstrip("."))
            if not callable(target):
                assert f"`{called}(" not in names, (document, called)
                continue
            parameters = inspect.signature(target).parameters
            for item in filter(None, (part.strip() for part in listed.split(","))):
                name, _, default = (text.strip() for text in item.partition("="))
                assert name in parameters, (called, name, list(parameters))
                if default:
                    assert parameters[name].default == ast.literal_eval(default), (called, item)
            checked.append(called)
    assert {"run", "error_report", "apply_both", "convergence_sweep"} <= set(checked)

"""The public API: every exported name resolves, and none is listed twice.

The README's repository layout names exactly the package's modules.
"""

import importlib
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


def _resolves(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_readme_key_objects_name_real_methods():
    """In a "Key objects" row led by a class legdiff exports, each `name(` of the
    role cell resolves on that class or in legdiff."""
    readme = (Path(legdiff.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Key objects:", 1)[1].strip().split("\n\n", 1)[0]
    checked = []
    for row in table.splitlines()[2:]:  # past the header and its rule
        _, names, role, _ = row.split("|")
        first = re.match(r"\s*`(\w+)", names).group(1)
        cls = getattr(legdiff, first, None)
        if not isinstance(cls, type):
            continue
        for called in re.findall(r"`([\w.]+)\(", role):
            assert _resolves(cls, called) or _resolves(legdiff, called), (first, called)
            checked.append((first, called))
    assert ("DerivativeExpansion", "apply_both") in checked

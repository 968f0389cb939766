"""The public API: every exported name resolves, and none is listed twice.

The README's repository layout names exactly the package's modules, and the
key-objects tables of README.md and PAPER.md name real methods with their
real parameters.
"""

import ast
import importlib
import inspect
import math
import pkgutil
import re
import textwrap
from pathlib import Path

import numpy as np
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


def _approx():
    """A small derived series: phi_2 phi_2 on the box, differentiated twice per axis."""
    field = legdiff.CoeffField.from_dense(np.eye(4))
    config = legdiff.MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3, domain_shape="box")
    return legdiff.run(field, config)


def _config(**changed):
    return legdiff.MethodConfig(**{"r": 2, "mu": 5.5, "delta": 1e-6, **changed})


def _noise(**changed):
    return legdiff.NoiseSpec(**{"kind": "gaussian", "delta": 1e-6, **changed})


_NAN, _INF = math.nan, math.inf
#: An integer parameter's bad values: a float, a whole float, NaN, then its out-of-range value.
_NO_INTEGER = (2.5, 3.0, _NAN)
_SWEEP_DELTAS = (1e-4, 1e-6, 1e-8)

#: (entry and parameter, call taking the bad value, bad values, what the message names).
_BOUNDARY = [
    ("exact_coeffs.k_max", lambda v: legdiff.exact_coeffs(legdiff.F1, v, 3), (*_NO_INTEGER, -1),
     r"\bk_max=|^degree bounds"),
    ("exact_coeffs.j_max", lambda v: legdiff.exact_coeffs(legdiff.F1, 3, v), (*_NO_INTEGER, -1),
     r"\bj_max=|^degree bounds"),
    ("exact_coeffs.G", lambda v: legdiff.exact_coeffs(legdiff.F1, 3, 3, G=v), (*_NO_INTEGER, 10**6),
     r"\bG="),
    ("trapezoid_coeffs.k_max", lambda v: legdiff.trapezoid_coeffs(legdiff.F1, 0.1, v, 3),
     (*_NO_INTEGER, -1), r"\bk_max=|^degree bounds"),
    ("trapezoid_coeffs.j_max", lambda v: legdiff.trapezoid_coeffs(legdiff.F1, 0.1, 3, v),
     (*_NO_INTEGER, -1), r"\bj_max=|^degree bounds"),
    ("gauss_rule.G", legdiff.gauss_rule, (*_NO_INTEGER, 0), r"^G\b"),
    ("composite_gauss_rule.G", legdiff.composite_gauss_rule, (*_NO_INTEGER, 0), r"^G\b"),
    ("eval_phi_table.k_max", lambda v: legdiff.eval_phi_table(v, [0.0]), (*_NO_INTEGER, -1),
     r"^k_max\b"),
    ("phi_derivative_coeffs.k", lambda v: legdiff.phi_derivative_coeffs(v, 1),
     (*_NO_INTEGER, -1), r"^k\b"),
    ("phi_derivative_coeffs.r", lambda v: legdiff.phi_derivative_coeffs(3, v),
     (*_NO_INTEGER, -1), r"\br\b"),
    ("DerivativeExpansion.r", lambda v: legdiff.DerivativeExpansion(v, 10), (*_NO_INTEGER, 0),
     r"\br="),
    ("DerivativeExpansion.max_degree", lambda v: legdiff.DerivativeExpansion(2, v),
     (*_NO_INTEGER, -1), r"^max_degree\b"),
    ("run_table.seeds", lambda v: legdiff.run_table(legdiff.get_preset("table1"), seeds=v),
     (*_NO_INTEGER, 0), r"^seeds="),
    ("run_table.seeds (trapezoid)",
     lambda v: legdiff.run_table(legdiff.get_preset("table2"), seeds=v), (*_NO_INTEGER, 0),
     r"^seeds="),
    ("convergence_sweep.seeds",
     lambda v: legdiff.convergence_sweep(legdiff.F2, 6.0, 2.0, 2.0, _SWEEP_DELTAS, seeds=v),
     (*_NO_INTEGER, 0), r"^seeds="),
    ("l2_error.G", lambda v: legdiff.l2_error(_approx(), legdiff.F1, v), (*_NO_INTEGER, 10**6),
     r"\bG="),
    ("sup_error.m", lambda v: legdiff.sup_error(_approx(), legdiff.F1, v), (*_NO_INTEGER, 4),
     r"\bm="),
    ("MethodConfig.r", lambda v: _config(r=v), (*_NO_INTEGER, 0), r"\br="),
    ("MethodConfig.n_override", lambda v: _config(delta=0.0, n_override=v), (*_NO_INTEGER, 2),
     r"^n(_override)?="),
    ("MethodConfig.s", lambda v: _config(s=v), (_NAN, _INF, 0.5), r"^s="),
    ("MethodConfig.p", lambda v: _config(p=v), (_NAN, 0.5), r"^p="),
    ("MethodConfig.mu", lambda v: _config(mu=v), (_NAN, _INF, 1.0), r"\bmu="),
    ("MethodConfig.delta", lambda v: _config(delta=v), (_NAN, 1.5), r"^delta="),
    ("MethodConfig.rule_constant", lambda v: _config(rule_constant=v), (_NAN, _INF, 0.0),
     r"^rule constant"),
    ("choose_n.r", lambda v: legdiff.choose_n(1e-6, 5.5, r=v), (*_NO_INTEGER, 0), r"\br="),
    ("choose_n.s", lambda v: legdiff.choose_n(1e-6, 5.5, s=v), (_NAN, _INF, 0.5), r"^s="),
    ("choose_n.p", lambda v: legdiff.choose_n(1e-6, 5.5, p=v), (_NAN, 0.5), r"^p="),
    ("choose_n.mu", lambda v: legdiff.choose_n(1e-6, v, p=1.0), (_NAN, _INF, 0.1), r"\bmu\b"),
    ("choose_n.delta", lambda v: legdiff.choose_n(v, 5.5), (_NAN, 1.5), r"^delta="),
    ("choose_n.rule_constant", lambda v: legdiff.choose_n(1e-6, 5.5, rule_constant=v),
     (_NAN, _INF, 0.0), r"^rule constant"),
    ("theoretical_exponent.r", lambda v: legdiff.theoretical_exponent(5.5, v, 2.0, 2.0),
     (*_NO_INTEGER, -3), r"\br="),
    ("theoretical_exponent.s", lambda v: legdiff.theoretical_exponent(5.5, 2, v, 2.0),
     (_NAN, _INF, 0), r"^s="),
    ("theoretical_exponent.p", lambda v: legdiff.theoretical_exponent(5.5, 2, 2.0, v),
     (_NAN, 0), r"^p="),
    ("theoretical_exponent.mu", lambda v: legdiff.theoretical_exponent(v, 1, 2.0, 1.0),
     (_NAN, _INF, 0.5), r"\bmu\b"),
    ("NoiseSpec.p", lambda v: _noise(p=v), (_NAN, 0.5), r"^p="),
    ("NoiseSpec.delta", lambda v: _noise(delta=v), (_NAN, 1.5), r"\bdelta="),
    ("NoiseSpec.seed", lambda v: _noise(seed=v), (*_NO_INTEGER, -1), r"^seed="),
    ("smoothness_norm.s", lambda v: legdiff.smoothness_norm(_approx().series, v, 5.5),
     (_NAN, _INF, 0.5), r"^s="),
    ("smoothness_norm.mu", lambda v: legdiff.smoothness_norm(_approx().series, 2.0, v),
     (_NAN, _INF, 0.0), r"^mu="),
]


@pytest.mark.parametrize(
    ("call", "value", "names"),
    [
        pytest.param(call, value, names, id=f"{entry}={value!r}")
        for entry, call, values, names in _BOUNDARY
        for value in values
    ],
)
def test_every_entry_refuses_through_the_parameter_rules(call, value, names):
    """Each public entry refuses a bad count, degree, order or exponent with
    ValueError (ConfigError is one) naming the parameter: never a TypeError or
    ZeroDivisionError from inside, and never a result."""
    with pytest.raises(ValueError) as refused:
        call(value)
    assert re.search(names, str(refused.value)), str(refused.value)


def _quick_start(source: str) -> str:
    """The quick-start code of a document: README.md and PAPER.md's python block
    under "Library quick start", or the package docstring's indented block."""
    if source == "legdiff":
        block = legdiff.__doc__.split("Quick start::\n", 1)[1]
        return textwrap.dedent(block)
    text = (Path(legdiff.__file__).parents[2] / source).read_text(encoding="utf-8")
    return text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("source", ["README.md", "PAPER.md", "legdiff"])
def test_quick_starts_run(source, capsys):
    """Each quick start runs as written and hands run() the whole field, which
    gives the bytes of the field restricted by hand."""
    namespace = {}
    exec(compile(_quick_start(source), source, "exec"), namespace)
    field, config, approx = namespace["field"], namespace["config"], namespace["approx"]
    assert ".restrict(" not in _quick_start(source)
    restricted = legdiff.run(field.restrict(config.domain()), config)
    assert approx.series.values.tobytes() == restricted.series.values.tobytes()
    assert namespace["values"].shape == ((1, 1) if source == "legdiff" else (3, 2))
    if source != "legdiff":
        l2, sup, card = capsys.readouterr().out.split()
        assert (float(l2), float(sup), int(card)) == (
            namespace["report"].l2_error, namespace["report"].sup_error, 38,
        )


#: Public names no program code reads, each with the reader that keeps it.
_UNCALLED_BUT_KEPT = {
    "DerivativeExpansion.matrix": "ROADMAP items 4a and 8b build on the dense map",
    "MethodConfig.satisfies_sup_hypothesis": "ROADMAP item 4b reports the uniform-norm hypothesis",
    "IndexDomain.box": "the twin of IndexDomain.cross, which the benchmark calls",
    "smoothness_norm": "the class norm fixing F1's and F2's scales, which "
    "test_normalization_close_to_unit_smoothness_norm holds",
}


def _loaded_names() -> set[str]:
    """Every name the program code loads, as a bare name or an attribute, in
    src/legdiff/*.py and perfbench/*.py, outside the definition of that name."""
    root = Path(legdiff.__file__).parents[2]
    loaded = set()
    for path in sorted([*(root / "src" / "legdiff").glob("*.py"), *(root / "perfbench").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {}  # id of a node -> the name whose definition holds it
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for inner in ast.walk(node):
                    own.setdefault(id(inner), set()).add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name not in own.get(id(node), ()):
                loaded.add(name)
    return loaded


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each name in legdiff.__all__, and each public method or property of the
    classes it exports, is loaded by program code (src/legdiff or perfbench),
    outside its own definition and the __all__ lists, or is kept in
    _UNCALLED_BUT_KEPT with its reader.  Names are matched alone, not with
    their class: a method is read when any attribute of that name is, so
    QuadratureRule.validate would have hidden behind ErrorReport.validate."""
    loaded = _loaded_names()
    public = []
    for name in legdiff.__all__:
        if name.startswith("__"):
            continue
        public.append((name, name))
        owner = getattr(legdiff, name)
        if isinstance(owner, type):
            tree = ast.parse(textwrap.dedent(inspect.getsource(owner)))
            for node in tree.body[0].body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    public.append((f"{name}.{node.name}", node.name))
    unread = {qualified for qualified, bare in public if bare not in loaded}
    assert unread == set(_UNCALLED_BUT_KEPT), sorted(unread ^ set(_UNCALLED_BUT_KEPT))

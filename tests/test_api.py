"""Every exported name resolves, every imported name is used, and every
package name the benchmark hooks or imports, or the README names, still
exists: a stale `__all__` entry, an import orphaned by a deletion, a refactor
that blinds the benchmark's layer hooks or its gate, or a README left naming
a deleted internal fails here."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import vanetgame

MODULES = ["vanetgame"] + [f"vanetgame.{m.name}"
                           for m in pkgutil.iter_modules(vanetgame.__path__)]
ROOT = pathlib.Path(__file__).parent.parent
PERFBENCH = ROOT / "perfbench"
SOURCES = sorted((ROOT / "src" / "vanetgame").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(elt.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts)
    unused = sorted(imported - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _perfbench_names():
    """(module, name) of every perfbench tracer boundary and of every name that a
    `from vanetgame... import` statement in perfbench/*.py imports."""
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "BOUNDARIES"
                                                for t in node.targets):
            for _, module, attr, _ in ast.literal_eval(node.value):
                yield module, attr
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vanetgame"):
                yield from ((node.module, alias.name) for alias in node.names)


@pytest.mark.parametrize("module, name", sorted(set(_perfbench_names())),
                         ids=lambda value: value)
def test_every_name_perfbench_uses_resolves(module, name):
    if not hasattr(importlib.import_module(module), name):
        importlib.import_module(f"{module}.{name}")   # a submodule, such as vanetgame._kernels


def _readme_names():
    """(module, name) of every backticked `module.name` in README.md's prose whose
    module is a vanetgame module, and (None, name) of every bare private `_name`."""
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    for module, name in re.findall(r"`(?:(\w+)\.)?(\w+)`", prose):
        if f"vanetgame.{module}" in MODULES:
            yield f"vanetgame.{module}", name
        elif not module and name.startswith("_"):
            yield None, name


@pytest.mark.parametrize("module, name", sorted(set(_readme_names()), key=str),
                         ids=lambda value: value or "any")
def test_every_name_readme_names_exists(module, name):
    modules = [importlib.import_module(m) for m in ([module] if module else MODULES)]
    assert any(hasattr(m, name) for m in modules), \
        f"README.md names `{name}`, which no module in {module or 'vanetgame'} defines"


def test_oracle_names_no_fast_path():
    """The brute-force relay oracle stays independent of the closed forms it checks."""
    tree = ast.parse((ROOT / "src" / "vanetgame" / "analytic.py").read_text())
    oracle, = (node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "oracle_relay_mean")
    named = {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(oracle) if isinstance(node, ast.Attribute)}
    fast = {"_extend", "_bracket", "_brackets", "_relay_probs", "_table", "_reports"}
    assert not named & fast, f"oracle_relay_mean names fast-path helpers {sorted(named & fast)}"


def test_source_stays_within_its_line_budget():
    # the ceiling on `wc -l src/vanetgame/*.py`: newline bytes, summed over the files
    lines = sum(path.read_bytes().count(b"\n")
                for path in (ROOT / "src" / "vanetgame").glob("*.py"))
    assert lines <= 2190, f"src/vanetgame/*.py holds {lines} lines, over the 2,190 ceiling"

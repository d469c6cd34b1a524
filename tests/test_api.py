"""Every exported name resolves, every imported name is used, and every
package name the benchmark hooks or imports, or the README names, still
exists: a stale `__all__` entry, an import orphaned by a deletion, a refactor
that blinds the benchmark's layer hooks or its gate, or a README left naming
a deleted internal fails here."""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

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


def test_no_two_modules_export_different_objects_under_one_name():
    # the package star-imports every module, so a second object under one name would
    # shadow the first without a word
    exported = {}   # name: [(module, object), ...]
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            exported.setdefault(attr, []).append((name, getattr(module, attr)))
    clashes = {attr: [name for name, _ in pairs] for attr, pairs in exported.items()
               if any(obj is not pairs[0][1] for _, obj in pairs)}
    assert not clashes, f"modules that export different objects under one name: {clashes}"
    assert sorted(vanetgame.__all__) == sorted(["__version__", *exported])
    moved = [attr for attr, pairs in exported.items()
             if getattr(vanetgame, attr) is not pairs[0][1]]
    assert not moved, f"vanetgame exports other objects than its modules under {moved}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    """A `from .x import *` counts as used only where the `__all__` expression reads
    `x.__all__`, so the star import re-exports exactly what x declares."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(f"{node.module}.*" if alias.name == "*" else alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                for t in node.targets):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
            used.update(f"{elt.value.id}.*" for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Attribute) and elt.attr == "__all__"
                        and isinstance(elt.value, ast.Name))
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


def test_readme_library_block_runs():
    """The ```python block of README's Library section runs as documented."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library\n+```python\n(.*?)^```", text, flags=re.S | re.M).group(1)
    exec(compile(block, "README.md#library", "exec"), {})


def test_oracle_names_no_fast_path():
    """The brute-force relay oracle stays independent of the closed forms it checks."""
    tree = ast.parse((ROOT / "src" / "vanetgame" / "analytic.py").read_text())
    fast = {"_extend", "_bracket", "_brackets", "_relay_probs", "_table", "_vehicle_rows",
            "_rsu_product", "_reports"}
    for name in ("oracle_relay_mean", "_oracle_batch"):
        oracle, = (node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == name)
        named = {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(oracle) if isinstance(node, ast.Attribute)}
        assert not named & fast, f"{name} names fast-path helpers {sorted(named & fast)}"


def test_coalition_table_path_holds_no_float_constant():
    """Every zero, one and accumulator of the table path comes from its inputs: a
    float literal there would turn the results of a Fraction config into floats."""
    tree = ast.parse((ROOT / "src" / "vanetgame" / "analytic.py").read_text())
    path = {"_extend", "_bracket", "_brackets", "_relay_probs", "_vehicle_rows", "_table",
            "_tables", "_reports"}
    functions = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in path]
    assert {node.name for node in functions} == path
    floats = [f"{node.name}:{const.lineno} {const.value!r}" for node in functions
              for const in ast.walk(node)
              if isinstance(const, ast.Constant) and isinstance(const.value, float)]
    assert not floats, f"float constants on the coalition table path: {floats}"


def test_setup_leaves_the_thread_pool_unimported():
    # the benchmark's setup_s times `import vanetgame.cli` plus load_config, and importing
    # concurrent.futures costs 6-19 ms: only a draw loop imports it
    code = ("import sys, vanetgame.cli\n"
            "vanetgame.cli.load_config()\n"
            "print('concurrent.futures' in sys.modules)\n"
            "list(vanetgame.geometry.uniform_chunks(0, 10, 1, 1, 1))\n"
            "print('concurrent.futures' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(vanetgame.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\nTrue\n"), proc.stderr


def test_source_stays_within_its_line_budget():
    # the ceiling on `wc -l src/vanetgame/*.py`: newline bytes, summed over the files
    lines = sum(path.read_bytes().count(b"\n")
                for path in (ROOT / "src" / "vanetgame").glob("*.py"))
    assert lines <= 2025, f"src/vanetgame/*.py holds {lines} lines, over the 2,025 ceiling"


def test_no_source_line_is_over_100_characters():
    # without this the line budget above could be met by packing lines
    long = [f"{path.name}:{k}" for path in sorted((ROOT / "src" / "vanetgame").glob("*.py"))
            for k, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert not long, f"lines over 100 characters: {long}"

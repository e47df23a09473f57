"""Import hygiene and module structure of the package and the test suite.

No linter ships with the toolchain, so the sources are parsed with ``ast``.
An imported name counts as used when it appears as a name anywhere in its
module (the root of an attribute chain included) or in the module's
``__all__``.  Package ``__init__`` modules exist to re-export names and are
exempt, as are ``from __future__`` imports.

The structure gate keeps ``fem`` the one owner of the grid geometry and of
the element tables: no other module, in the package or the test suite,
reads a ``.mesh``, a reference element ``.ref`` or inverse cell sizes
``inv_h``.  The space's two ``axes`` hold the cell counts, widths and
origins, and every module reads the space's physical tables (``quad_phi``,
``quad_dx``, ...) or, as the test oracles do, tabulates the shape
functions itself (``fem_oracle.shape_eval``).

The reader gate keeps test-only code out of the package: every ``def``
and ``class`` in the package and in ``perfbench`` is referenced somewhere
in that code, as a name or an attribute (strings and docstrings do not
count), unless it is a dunder.  Exported names get no exemption: neither
a module's ``__all__`` nor a package ``__init__``, whose re-exports are the
only mention of a name that no code runs, counts as a reader.  References
live by name, so a method shares its readers with every attribute of the
same name.  A reference that only tests need lives in a test oracle
(``tests/fem_oracle.py``).

The dependency gate runs the package in a fresh interpreter, as the
command line does, and finds no ``scipy`` module loaded: numpy is the
package's one runtime dependency, and scipy serves the test oracles only.

The settable-value gate counts the package's knobs: the defaults of every
``def``, the dataclass fields that have a default and the ``--`` flags of
``add_argument``.  A default that every caller outside the tests
overrides, or an optional path that none of them takes, is not kept.  A
change that adds a knob updates the pinned count and says why.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gepup"
SOURCES = [p for p in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_gate_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.zeros(b)\n"
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("name", [p.stem for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"gepup.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


RUN_WITHOUT_SCIPY = """
import json, sys
import gepup, gepup.bench, gepup.cli, gepup.output
code = gepup.cli.main(["run", "--case", "taylor-green", "--degree", "2", "--level", "0", "--base", "1",
                       "--t-end", "0.05", "--outdir", sys.argv[1]])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_the_package_runs_without_scipy(tmp_path):
    # the imports and the one-cell run of test_cli_run_on_one_q2_cell, in a
    # fresh interpreter, so that no test module's own scipy import counts
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_SCIPY, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [0, []]


FEM_INTERNALS = ("ref", "inv_h", "mesh")


def fem_internal_reads(source: str) -> list[str]:
    """Lines that read ``.ref``, ``.inv_h`` or ``.mesh`` (or a bare ``inv_h``)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FEM_INTERNALS:
            hits.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Name) and node.id == "inv_h":
            hits.append((node.lineno, "inv_h"))
    return [f"{name} (line {line})" for line, name in sorted(hits)]


def test_structure_gate_flags_fem_internals():
    source = "a = space.ref.phi\nb = x @ space.quad_dx\ninv_h = space.inv_h\nh = space.mesh.h_max\n"
    expected = [".ref (line 1)", ".inv_h (line 3)", "inv_h (line 3)", ".mesh (line 4)"]
    assert fem_internal_reads(source) == expected


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "fem"], ids=lambda p: p.name)
def test_only_fem_reads_the_reference_element(path):
    assert fem_internal_reads(path.read_text()) == []


READ_SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """The ``def`` and ``class`` names in ``sources`` (module name -> source)
    that no Name or Attribute node of any of them outside an ``__init__``
    module references, as "module.name", except dunders."""
    referenced, defined = set(), []
    for module, source in sources.items():
        reads = not module.endswith("__init__")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and reads:
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and reads:
                referenced.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
    return sorted(
        f"{module}.{name}"
        for module, name in defined
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    )


def test_reader_gate_flags_a_definition_nothing_references():
    a = (
        "__all__ = ['public', 'exported']\n"
        "def public(): pass\n"
        "def exported(): pass\n"
        "def helper(): pass\n"
        "def unread():\n    'helper is called in a docstring'\n"
        "class Unused:\n    def __init__(self): pass\n    def method(self): pass\n"
    )
    b = "from a import helper\nhelper()\nx.method\ns = 'Unused'\nimport pkg\npkg.public()\n"
    init = "from a import exported, public\n__all__ = ['exported', 'public']\nexported.__doc__\n"
    expected = ["a.Unused", "a.exported", "a.unread"]
    assert unread_definitions({"a": a, "b": b, "pkg/__init__": init}) == expected


def test_every_package_definition_has_a_reader():
    assert unread_definitions({f"{p.parent.name}/{p.stem}": p.read_text() for p in READ_SOURCES}) == []


SETTABLE_VALUES = {"def defaults": 6, "dataclass defaults": 10, "cli flags": 12}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None)):
            return True
    return False


def settable_values(source: str) -> dict[str, int]:
    counts = dict.fromkeys(SETTABLE_VALUES, 0)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            counts["def defaults"] += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            counts["dataclass defaults"] += sum(
                isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body
            )
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            counts["cli flags"] += any(
                isinstance(a, ast.Constant) and str(a.value).startswith("--") for a in node.args
            )
    return counts


def test_settable_value_count_flags_each_kind():
    source = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "@dataclass(frozen=True)\nclass C:\n    x: int\n    y: int = 0\n"
        "class Plain:\n    z: int = 0\n"
        "p.add_argument('--flag', default=1)\np.add_argument('name')\n"
    )
    assert settable_values(source) == {"def defaults": 2, "dataclass defaults": 1, "cli flags": 1}


def test_settable_values():
    counts = dict.fromkeys(SETTABLE_VALUES, 0)
    for path in sorted(PACKAGE.glob("*.py")):
        for key, n in settable_values(path.read_text()).items():
            counts[key] += n
    assert counts == SETTABLE_VALUES

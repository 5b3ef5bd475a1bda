"""Module boundaries of the package, checked on its source."""

import ast
import importlib
import os
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np

import koalition

PACKAGE = Path(koalition.__file__).parent
REFERENCE = Path(__file__).parent / "reference.py"
GOLDEN_FIGURES = Path(__file__).parent / "golden_figures.py"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_sibling_uses(source: str) -> list[str]:
    """Each place where source imports or reads a sibling module's private name.

    Siblings are the package's own modules, imported relatively or as
    koalition.<module>; dunder names such as __version__ are not private.
    """
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # The package is flat: level 1 is the package itself.
            source_module = node.module or ""
            if node.level == 1:
                source_module = f"koalition.{source_module}".rstrip(".")
            for alias in node.names:
                if source_module == "koalition":
                    modules.add(alias.asname or alias.name)
                elif source_module.startswith("koalition.") and _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
        elif isinstance(node, ast.Import):
            modules.update(
                alias.asname for alias in node.names
                if alias.asname and alias.name.startswith("koalition.")
            )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return found


def test_guard_sees_every_form_of_private_sibling_access():
    source = (
        "from .engine import _Band, estimate_poe\n"
        "from koalition.forecast import _shrink\n"
        "from . import engine, posterior as post\n"
        "import koalition.viz as viz\n"
        "engine._column(); post._party_key(); viz._fmt(1.0); engine.__name__\n"
    )
    assert private_sibling_uses(source) == [
        "line 1: imports _Band",
        "line 2: imports _shrink",
        "line 5: reads engine._column",
        "line 5: reads post._party_key",
        "line 5: reads viz._fmt",
    ]


def test_no_module_uses_a_siblings_private_names():
    found = {
        path.name: uses
        for path in sorted(PACKAGE.glob("*.py"))
        if (uses := private_sibling_uses(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_every_exported_name_exists():
    modules = [koalition] + [
        importlib.import_module(f"koalition.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """Each name that source imports but neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported, exported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(alias.asname or alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported
            if name not in read and name not in exported]


def test_guard_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import Mapping, Sequence\n"
        "from .engine import run\n"
        "__all__ = ['run']\n"
        "def f(x: Sequence) -> str:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["line 2: system", "line 3: Mapping"]


def test_no_module_imports_a_name_it_does_not_use():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def koalition_imports(source: str) -> list[str]:
    """Each import of the koalition package or one of its modules in source.

    A relative import, as in the package's own modules, is named as
    koalition.<module>; the package is flat, so level 1 is koalition.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            names = [f"koalition.{node.module}"]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [f"koalition.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] == "koalition"]
    return found


def test_reference_imports_nothing_from_koalition():
    # No oracle imports the code it checks.
    planted = (
        "import koalition\nfrom koalition.electoral import allocate_many\nimport numpy\n"
        "from .pooling import pool\nfrom . import polls, engine\n"
    )
    assert koalition_imports(planted) == [
        "line 1: koalition", "line 2: koalition.electoral", "line 4: koalition.pooling",
        "line 5: koalition.polls", "line 5: koalition.engine",
    ]
    assert koalition_imports(REFERENCE.read_text(encoding="utf-8")) == []


def test_golden_figures_import_only_the_cli():
    # The goldens are what `koalition plot` writes, assembled nowhere else.
    found = koalition_imports(GOLDEN_FIGURES.read_text(encoding="utf-8"))
    assert [entry.split(": ")[1] for entry in found] == ["koalition.cli"]


def test_forecast_works_without_polls_pooling_or_a_prior():
    # A forecast takes posteriors and dates; each posterior carries its prior.
    source = (PACKAGE / "forecast.py").read_text(encoding="utf-8")
    imported = {entry.split(": ")[1] for entry in koalition_imports(source)}
    assert imported.isdisjoint({"koalition.polls", "koalition.pooling"})
    assert "prior_alpha" not in source


def module_buffers(module) -> list[str]:
    """Names that bind an ndarray or a threading.local at module scope.

    Block buffers belong to one call and its threads; bound to a module
    they would outlive the call and be shared by every caller.
    """
    return sorted(
        name for name, value in vars(module).items()
        if isinstance(value, (np.ndarray, threading.local))
    )


def test_guard_sees_module_level_buffers():
    planted = types.ModuleType("planted")
    planted.BUFFER = np.empty(4)
    planted._local = threading.local()
    planted.ARRAY_TYPE = np.ndarray
    assert module_buffers(planted) == ["BUFFER", "_local"]


def test_no_module_holds_a_buffer_or_thread_local():
    found = {
        path.stem: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := module_buffers(importlib.import_module(
            "koalition" if path.stem == "__init__" else f"koalition.{path.stem}"
        )))
    }
    assert found == {}


def foreign_imports(source: str) -> list[str]:
    """Each import in source of a top-level module that is neither in the
    standard library nor numpy nor koalition itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "koalition"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in allowed]
    return found


def test_guard_sees_foreign_imports():
    planted = (
        "from __future__ import annotations\n"
        "import os, scipy.stats\n"
        "from hypothesis import given\n"
        "from . import engine\n"
        "from numpy.typing import NDArray\n"
        "import koalition.viz\n"
    )
    assert foreign_imports(planted) == ["line 2: scipy.stats", "line 3: hypothesis"]


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency; scipy and hypothesis are test
    # extras, so an import of either would break an installed CLI.
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := foreign_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
    project = PYPROJECT.read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", project, re.MULTILINE | re.DOTALL)
    requirements = re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1))
    assert requirements == ["numpy"]


def test_cli_import_loads_no_network_or_xml_modules():
    # xml.sax.saxutils imports urllib.request, and with it http, email,
    # ssl and socket: every CLI start would pay for them.
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = (
        "import sys, koalition.cli\n"
        "print(sorted({name.split('.')[0] for name in sys.modules}"
        " & {'http', 'email', 'ssl', 'socket', 'xml'}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout == "[]\n"

"""Module boundaries of the package, checked on its source."""

import ast
import importlib
from pathlib import Path

import koalition

PACKAGE = Path(koalition.__file__).parent


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

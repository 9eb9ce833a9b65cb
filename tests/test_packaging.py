"""The declared dependencies are exactly what the package and its tests import,
and every declared console script resolves to code."""

import ast
import importlib
import importlib.metadata
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def third_party_imports(directory):
    """Top-level names imported by the .py files under directory, minus stdlib and mqoc."""
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    local = {path.stem for path in directory.glob("*.py")}
    return names - set(sys.stdlib_module_names) - local - {"mqoc"}


def distributions(import_names):
    """Normalised distribution names that provide the given import names."""
    installed = importlib.metadata.packages_distributions()
    return {d.lower() for name in import_names for d in installed.get(name, [name])}


def declared(requirements):
    return {re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0].lower() for req in requirements}


def test_runtime_dependencies_are_the_package_imports():
    assert declared(PROJECT["dependencies"]) == distributions(
        third_party_imports(ROOT / "src" / "mqoc"))


def test_test_extra_covers_the_test_imports():
    available = declared(PROJECT["dependencies"] + PROJECT["optional-dependencies"]["test"])
    assert distributions(third_party_imports(ROOT / "tests")) <= available


def test_console_scripts_resolve_to_callables():
    for name, target in PROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} -> {target} is not callable"

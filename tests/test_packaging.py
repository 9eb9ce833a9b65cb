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


# Public names of `src/mqoc` that nothing in the package, the scripts or the benchmark's
# pipelines reads, each kept for one reason.  Any other such name is dead code.
KEPT = {
    "lindblad_drift": "the validated drift, named as the kernel's entry by the design",
    "fluctuation": "the validated fluctuation, named as the kernel's entry by the design",
    "filter_observable_check": "the filter's scalar-SDE check, named by the design",
    "build_AB": "the moment model's A and B from its Hamiltonian parameters",
    "to_quadrature": "moves build_AB's matrices into the quadratures a LinearModel takes",
    "step_sme": "one filter step on a caller's increment, the entry for a given record",
    "noise_increments": "one seed's innovation stream, by which simulate_ensemble's "
                        "docstring defines each trajectory's noise",
}
CALLERS = [*(ROOT / "src" / "mqoc").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
           *(ROOT / "bench" / f"{name}.py" for name in ("workloads", "run", "selftest"))]


def public_names(path):
    """Top-level functions, classes and constants of a module whose names lack a leading _."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def read_names(path):
    """Every name a module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def uncalled(modules, callers):
    """Public names defined in modules that no file in callers reads."""
    defined = set().union(*map(public_names, modules))
    return defined - set().union(*map(read_names, callers))


def test_public_names_have_a_caller():
    assert sorted(uncalled((ROOT / "src" / "mqoc").glob("*.py"), CALLERS)) == sorted(KEPT), (
        "a public name with no caller must go or get a reason in KEPT, and a KEPT "
        "name must still be defined and uncalled")


def test_guard_flags_a_new_public_name_with_no_caller(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("LIMIT = 3\n_PRIVATE = 1\ndef used(): pass\n"
                      "def unused(): pass\nclass Unused: pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text("import module\nmodule.used()\nx = LIMIT\n")
    assert uncalled([module], [caller]) == {"unused", "Unused"}


def test_guard_flags_a_kept_name_that_gained_a_caller(tmp_path):
    caller = tmp_path / "caller.py"
    caller.write_text("from mqoc import belavkin\nbelavkin.step_sme\n")
    found = uncalled((ROOT / "src" / "mqoc").glob("*.py"), [*CALLERS, caller])
    assert "step_sme" not in found and sorted(found) != sorted(KEPT)

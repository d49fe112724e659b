"""The package is layered: a module imports only the modules below it.

Read with ast, so an import that climbs the order fails here even when it
happens to resolve at run time.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "k3lat"

# lowest first: each module may import the ones before it
ORDER = ("exact", "fqm", "lattice", "enumeration", "glue", "classify",
         "dataset", "cli")
# import nothing from the package; any module may import them, lazily too
LEAVES = ("hilb2", "fixtures")


def package_imports(name):
    """The k3lat modules that src/k3lat/<name>.py imports, anywhere in it."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and \
                    node.module.startswith("k3lat."):
                found.add(node.module.split(".")[1])
            elif node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "k3lat":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("k3lat."))
    return found


def test_every_module_has_a_place():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER) | set(LEAVES)


@pytest.mark.parametrize("name", ORDER)
def test_imports_only_lower_layers(name):
    allowed = set(ORDER[:ORDER.index(name)]) | set(LEAVES)
    assert package_imports(name) - allowed == set()


@pytest.mark.parametrize("name", LEAVES)
def test_leaves_import_nothing_from_the_package(name):
    assert package_imports(name) == set()


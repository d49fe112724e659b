"""The benchmark reaches into k3lat by name: every name it uses must exist.

perfbench/ is read with ast and never imported or changed here, so an API
deletion that would crash a benchmark run fails this suite first.
"""

import ast
import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def is_k3(node):
    """The dict of k3lat modules: ``k3`` or ``self.k3``."""
    return (isinstance(node, ast.Name) and node.id == "k3") or \
        (isinstance(node, ast.Attribute) and node.attr == "k3")


def module_attributes(path):
    """(module, name) for each ``cli.<name>`` and ``k3["<module>"].<name>``
    the file reads; ``cli`` is the k3lat.cli module wherever it is used."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == "cli":
            found.add(("cli", node.attr))
        elif isinstance(owner, ast.Subscript) and is_k3(owner.value) and \
                isinstance(owner.slice, ast.Constant):
            found.add((owner.slice.value, node.attr))
    return sorted(found)


def module_constant(path, name):
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == name
                    for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


@pytest.mark.parametrize("script", ["workloads.py", "run.py",
                                    "setup_child.py"])
def test_every_binding_the_benchmark_reads_exists(script):
    used = module_attributes(PERFBENCH / script)
    missing = [f"{mod}.{name}" for mod, name in used
               if not hasattr(importlib.import_module(f"k3lat.{mod}"), name)]
    assert missing == []


def test_workloads_read_the_query_bindings():
    # the reader above must see what run_query reaches through cli
    used = module_attributes(PERFBENCH / "workloads.py")
    assert {("cli", "anti_embeddings"), ("cli", "k3sq_glue_admissible"),
            ("cli", "hom_image"), ("cli", "disc_map"),
            ("cli", "builtin_dataset"), ("cli", "parse_dataset"),
            ("glue", "partner_disc_candidates")} <= set(used)


@pytest.mark.parametrize("name", ["parse_dataset", "emit_dataset",
                                  "builtin_dataset"])
def test_cli_dataset_names_are_the_dataset_functions(name):
    # the benchmark reaches the dataset format through cli: clear_caches
    # must find builtin_dataset's cache there, and the tracer wraps cli's
    # binding of the function it times
    cli, dataset = (importlib.import_module(f"k3lat.{mod}")
                    for mod in ("cli", "dataset"))
    assert getattr(cli, name) is getattr(dataset, name)


def test_every_traced_function_exists():
    traced = module_constant(PERFBENCH / "spans.py", "TRACED")
    layers = module_constant(PERFBENCH / "spans.py", "LAYERS")
    assert set(traced) <= set(layers)
    missing = [f"{layer}.{name}" for layer in layers
               for name in traced.get(layer, ())
               if not callable(getattr(importlib.import_module(
                   f"k3lat.{layer}"), name, None))]
    assert missing == []

"""Which src/ functions can a k3lat command or the benchmark reach?

A walk over the source with ast, never importing the package.  The roots
are cli.main, every k3lat name the benchmark reads (the bindings that
test_benchmark_bindings checks, and the functions perfbench/spans.py
traces), and the statements each module runs at import.  A function
reaches every function or method whose name its body mentions, as a bare
name or an attribute, so the walk over-approximates the call graph.  A
reached class reaches its dunder methods, which Python calls implicitly,
and, when it subclasses a class from outside the package, every method,
as the base class may call each override.

The functions left unreached are pinned, each with the reason it stays:
acceptance (it backs an acceptance criterion), roadmap (an open item will
give it a command) or tests (only tests read it).  A new entry fails this
test until it is pinned, deleted or given a caller.
"""

import ast
import functools
import pathlib

from test_benchmark_bindings import PERFBENCH, module_attributes, \
    module_constant

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "k3lat"

UNREACHED = {
    "fqm.Fqm.element_order": "roadmap",
    "fqm.FqmHom.negates_form": "roadmap",
    "fqm.isomorphisms": "roadmap",
    "fqm.orthogonal_group": "roadmap",
    "glue.glue_pairs": "acceptance",
    "glue.overlattice": "roadmap",
    "glue.wall_divisor_scan": "roadmap",
    "lattice.a2": "acceptance",
    "lattice.direct_sum": "acceptance",
    "lattice.discriminant_group": "acceptance",
    "lattice.divisibility": "roadmap",
    "lattice.e8": "acceptance",
    "lattice.hyperbolic_plane": "acceptance",
    "lattice.k3_lattice": "acceptance",
    "lattice.k3_square_lattice": "acceptance",
    "lattice.saturate": "acceptance",
    "lattice.span_of_square": "acceptance",
}


@functools.cache
def modules():
    """(module name, parsed module) for every module of the package."""
    return tuple((path.stem, ast.parse(path.read_text(encoding="utf-8")))
                 for path in sorted(SRC.glob("*.py")))


def definitions():
    """{"module.name" or "module.Class.name": (node, class node or None)}
    for every function and method of the package."""
    out = {}
    for stem, tree in modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out[f"{stem}.{node.name}"] = (node, None)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        out[f"{stem}.{node.name}.{item.name}"] = (item, node)
    return out


def mentioned(nodes):
    """Every identifier the nodes read, as a bare name or an attribute.  A
    bare name counts only where it is loaded: a local that shadows a
    function's name, as an assignment or loop target, calls nothing."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def import_time_statements():
    """The module-level statements other than function and class bodies,
    with each class's bases and decorators."""
    out = []
    for _, tree in modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out += node.decorator_list
            elif isinstance(node, ast.ClassDef):
                out += node.bases + node.decorator_list
            else:
                out.append(node)
    return out


def roots():
    names = {"main"}
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= {name for _, name in module_attributes(path)}
    for layer in module_constant(PERFBENCH / "spans.py", "TRACED").values():
        names |= set(layer)
    return names | mentioned(import_time_statements())


def unreached():
    defs = definitions()
    classes = {node.name: node for _, tree in modules() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    seen_names, seen_defs = set(), set()
    todo = list(roots())
    while todo:
        name = todo.pop()
        if name in seen_names:
            continue
        seen_names.add(name)
        hits = [key for key in defs if key.rsplit(".", 1)[1] == name]
        cls = classes.get(name)
        if cls is not None:
            foreign = any(not (isinstance(b, ast.Name) and b.id in classes)
                          for b in cls.bases)
            hits += [key for key, (node, owner) in defs.items()
                     if owner is cls and (foreign or (
                         node.name.startswith("__")
                         and node.name.endswith("__")))]
        for key in hits:
            if key not in seen_defs:
                seen_defs.add(key)
                todo += mentioned([defs[key][0]])
    return sorted(set(defs) - seen_defs)


def test_unreached_functions_are_pinned():
    assert unreached() == sorted(UNREACHED)
    assert set(UNREACHED.values()) <= {"acceptance", "roadmap", "tests"}


def test_subgroup_presentation_is_not_in_src():
    assert not [key for key in definitions()
                if key.endswith(".subgroup_presentation")]
    assert "subgroup_presentation" not in mentioned(
        tree for _, tree in modules())


def test_degenerate_module_paths_are_not_in_src():
    # every Fqm is nondegenerate, checked once when it is built, so no
    # code tests a module or a map for a radical again
    gone = {"_nondegenerate", "is_injective", "check_injective"}
    assert not [key for key in definitions()
                if key.rsplit(".", 1)[1] in gone]
    assert not gone & mentioned(tree for _, tree in modules())
    # a good isometry's order is read off its trace
    assert "multiplicative_order" not in mentioned(
        [tree for stem, tree in modules() if stem == "classify"])


def test_solver_and_table_reader_are_not_in_src():
    # hilb2.vector_with is one completed-square test, the verdict takes no
    # predicate, and the table reader is a test oracle
    gone = {"_ext_gcd", "_quadratic_roots", "picard_excludes", "parse_table"}
    assert not [key for key in definitions()
                if key.rsplit(".", 1)[1] in gone]
    assert not gone & mentioned(tree for _, tree in modules())
    assert not gone & {arg.arg for _, tree in modules()
                       for node in ast.walk(tree)
                       if isinstance(node, ast.arguments)
                       for arg in node.args + node.kwonlyargs}


def test_hermite_row_basis_is_not_in_src():
    # every Hermite basis is one exact.hermite_basis_mod, which takes the
    # moduli instead of a diagonal block
    assert not [key for key in definitions()
                if key.endswith(".hermite_row_basis")]
    assert "hermite_row_basis" not in mentioned(
        tree for _, tree in modules())


def test_glue_images_are_classes_not_subgroups():
    # classify reads extension, div and the k3 flag off the class c, and
    # the admissible scan keeps (c, w) pairs: neither builds a Subgroup
    classify_tree = [tree for stem, tree in modules() if stem == "classify"]
    assert not {"divisibility_in_glued", "Subgroup"} & mentioned(
        classify_tree)
    node, _ = definitions()["fqm.Fqm._admissible_images"]
    assert "Subgroup" not in mentioned([node])


def test_assigned_names_reach_nothing():
    # a local named like a package function, such as a2 or e8 in lattice,
    # is written, not read, and must not mark that function reached
    tree = ast.parse("def f(x):\n    a2 = x.gram\n    for e8 in a2:\n"
                     "        del e8\n    return x\n")
    assert mentioned([tree]) == {"x", "gram", "a2"}

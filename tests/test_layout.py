"""Static layout checks over the hyql package, stdlib only.

Every import is used, the modules depend on each other only in one
direction: context -> qlearn -> collab/casebase -> agent -> simenv ->
store/bench -> cli; collab and simenv need only context, since an item is
its catalog index. Only simenv spells the scenario format's keys and builds
the items' id strings, and only bench spells the experiment spec's keys.
Every function, method and class is used by the package itself, not only by
the tests; every annotated class field is read by it in the class's module
or in one that imports the class, and every attribute a method sets on
`self` is read by it. A private attribute is read only through
`self` or inside the module that sets it. There is one context: only
context builds a `ContextModel`, and no function takes a `context`.
"""

import ast
from pathlib import Path

import hyql
from hyql.bench import SPEC_KEYS, VARIANT_KEYS
from hyql.simenv import SCENARIO_KEYS

PACKAGE = Path(hyql.__file__).parent

# module -> the hyql modules it may import
ALLOWED = {
    "context": set(),
    "qlearn": {"context"},
    "collab": {"context"},
    "casebase": {"context", "qlearn"},
    "agent": {"casebase", "collab", "context", "qlearn"},
    "simenv": {"context"},
    "store": {"context", "qlearn"},
    "bench": {"agent", "collab", "context", "qlearn", "simenv", "store"},
    "cli": {"bench", "store"},
    "__init__": {"agent", "casebase", "collab", "context", "qlearn", "simenv",
                 "store"},
}


def modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def hyql_imports(tree):
    """The hyql modules a module imports, relatively or by absolute name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "hyql." * node.level + (node.module or "")  # the package is flat
            if module in ("hyql", "hyql."):  # from . import x, from hyql import x
                names += [f"hyql.{alias.name}" for alias in node.names]
            else:
                names.append(module)
    return {name.split(".")[1] for name in names if name.startswith("hyql.")}


def unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_no_unused_imports():
    found = {name: unused_imports(tree) for name, tree in modules().items()
             if name != "__init__"}  # the package's imports are its exports
    assert {name: names for name, names in found.items() if names} == {}


def test_imports_follow_the_dependency_table():
    trees = modules()
    assert set(trees) == set(ALLOWED), "every module needs a row in ALLOWED"
    wrong = {name: sorted(hyql_imports(tree) - ALLOWED[name])
             for name, tree in trees.items()}
    assert {name: mods for name, mods in wrong.items() if mods} == {}


def spelt_outside(owner, keys):
    """The keys each module but `owner` names as a string constant."""
    found = {name: sorted({node.value for node in ast.walk(tree)
                           if isinstance(node, ast.Constant) and node.value in keys})
             for name, tree in modules().items() if name != owner}
    return {name: spelt for name, spelt in found.items() if spelt}


def test_only_simenv_spells_the_scenario_keys():
    """The scenario format stays behind simenv: no other module names a key.

    "name" is exempt, since it is also an ordinary word for a variant name.
    """
    assert spelt_outside("simenv", SCENARIO_KEYS - {"name"}) == {}


def test_only_simenv_builds_item_ids():
    """An item is its catalog index everywhere else: only the scenario
    parser spells the "doc" prefix of an item's id."""
    assert spelt_outside("simenv", {"doc"}) == {}


def test_only_bench_spells_the_spec_keys():
    """The spec format stays behind bench: no other module names a key.

    "name" is exempt, as for the scenario keys, and so is "scenario", which
    simenv's messages use as the word for what it parses.
    """
    assert spelt_outside("bench", (SPEC_KEYS | VARIANT_KEYS) - {"name", "scenario"}) == {}


def unreferenced_definitions(trees):
    """Functions, methods and classes no code refers to outside their own body.

    A reference is an `ast.Name` or `ast.Attribute` spelling the definition's
    name anywhere in the given modules, outside the definition itself.
    Dunders are exempt: the interpreter calls them.
    """
    references: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append(id(node))
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = {id(child) for child in ast.walk(node)}
            if all(ref in inside for ref in references.get(node.name, [])):
                found.append(f"{module}.{node.name} (line {node.lineno})")
    return sorted(found)


def test_every_definition_is_used_by_the_package():
    """API that only the tests call is dead weight; the package's own
    re-exports in __init__ do not count as a use."""
    trees = {name: tree for name, tree in modules().items() if name != "__init__"}
    assert unreferenced_definitions(trees) == []


def loaded_attributes(trees):
    """Every name an `ast.Attribute` in load context spells in the modules."""
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def imported_names(tree):
    """Every name a module imports with `from ... import`."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def unread_fields(trees):
    """Annotated class fields no code reads as an attribute where the class
    is known.

    A read is an `ast.Attribute` in load context spelling the field's name
    in the module that defines the class, or in a module that imports the
    class's name; so another class's field of the same name elsewhere does
    not count, nor do a keyword argument that sets the field, a store and
    a `del`.
    """
    loaded = {module: loaded_attributes({module: tree}) for module, tree in trees.items()}
    imported = {module: imported_names(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            read = set().union(*(loaded[reader] for reader in trees
                                 if reader == module or cls.name in imported[reader]))
            found += [f"{module}.{cls.name}.{stmt.target.id} (line {stmt.lineno})"
                      for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                      and stmt.target.id not in read]
    return sorted(found)


def unread_instance_attributes(trees):
    """Attributes a method stores on `self` that no code reads as an attribute.

    A store is a `self.<name>` assignment target anywhere in a class body,
    `__init__` included; a read is as for `unread_fields`.
    """
    loaded = loaded_attributes(trees)
    return sorted({f"{module}.{cls.name}.{node.attr}"
                   for module, tree in trees.items()
                   for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in ast.walk(cls)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name) and node.value.id == "self"
                   and node.attr not in loaded})


def test_every_field_is_read_by_the_package():
    """A field that is set but never read is state no result depends on."""
    trees = {name: tree for name, tree in modules().items() if name != "__init__"}
    assert unread_fields(trees) == []


def test_every_instance_attribute_is_read_by_the_package():
    """The same rule for the attributes methods set on `self`."""
    trees = {name: tree for name, tree in modules().items() if name != "__init__"}
    assert unread_instance_attributes(trees) == []


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads_from_outside(trees):
    """Reads of a private attribute (one leading underscore) other than
    through `self`, in a module whose classes never set it on `self`."""
    found = []
    for module, tree in trees.items():
        own = {node.attr for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in ast.walk(cls)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
               and isinstance(node.value, ast.Name) and node.value.id == "self"}
        found += [f"{module}: .{node.attr} (line {node.lineno})"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and is_private(node.attr) and node.attr not in own
                  and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    return sorted(found)


def test_private_attributes_stay_private():
    """A class's private state is read through its methods everywhere else:
    agent and casebase read a Q-table through `row`, `value`, `best_value`
    and `greedy_action`, so none of them can bypass the row maxima that
    `set_value` keeps."""
    assert private_reads_from_outside(modules()) == []


def test_only_context_builds_a_context_model():
    """Every layer reads the one built-in `CONTEXT`."""
    found = sorted(f"{module} (line {node.lineno})"
                   for module, tree in modules().items() if module != "context"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and "ContextModel" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None)))
    assert found == []


def test_no_function_takes_a_context():
    found = sorted(f"{module}.{getattr(node, 'name', 'lambda')} (line {node.lineno})"
                   for module, tree in modules().items()
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                   for arg in ast.walk(node.args)
                   if isinstance(arg, ast.arg) and arg.arg == "context")
    assert found == []

"""Every public name of `src/kkt` is used by the program, not only by tests.

A public module-level function or class, or a public method, must be
referenced somewhere in `src/kkt`, `perfbench/*.py` or `demos/*.py` outside
its own definition. A reference is a name, an attribute, an imported name
or a string constant equal to it (the benchmark wraps methods by name). An
import in `kkt/__init__.py` is no use: a re-export cannot keep a name alive.

Likewise every field of a `src/kkt` dataclass must be read there, outside
its own definition, as an attribute or as a string constant equal to it
(`getattr` by name, JSON keys).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Reference ops that the model never runs, kept in `kkt.tensor`:
KEPT = {
    # the per-head op chain that `tensor.attention` is checked against is built from it
    "softmax_rows",
    # the scalar loss of the gradient checks and the autodiff demo
    "sum_all",
}

# Dataclass fields that the program writes but never reads:
KEPT_FIELDS = {
    # `predict`'s output; the option-permutation and bit-identity tests read it
    "PredictResult.logits",
    # the key-turn rows, which the refine oracle tests check
    "RefinedReprs.h_kt",
    # printed by `kkt retrieve` through `asdict`; the fact is built from it at parse
    "KnowledgeTriple.relation",
}


def _program_trees():
    """The `src/kkt` module paths, and the parse of every file the rules search by path."""
    sources = sorted((ROOT / "src" / "kkt").glob("*.py"))
    users = sources + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    return sources, {path: ast.parse(path.read_text(encoding="utf-8")) for path in users}


def _referenced_names(tree, skip):
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def test_every_public_name_of_the_package_has_a_use_outside_tests():
    sources, trees = _program_trees()
    defined, unused = set(), []
    for path in sources:
        for node in _public_definitions(trees[path]):
            defined.add(node.name)
            if node.name not in KEPT and not any(node.name in _referenced_names(t, node)
                                                 for user, t in trees.items() if user.name != "__init__.py"):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"public names used only by tests (delete them, or add them to KEPT with a reason): {unused}"
    assert KEPT <= defined, f"KEPT names that no longer exist: {sorted(KEPT - defined)}"


def _dataclass_fields(tree):
    """(class, field) for every field of a class decorated `@dataclass` or `@dataclass(...)`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            yield from ((node, f) for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name))


def test_every_dataclass_field_is_read_outside_tests():
    sources, trees = _program_trees()
    fields = {path: list(_dataclass_fields(trees[path])) for path in sources}
    definitions = {id(f) for found in fields.values() for _, f in found}
    reads, stack = set(), list(trees.values())
    while stack:
        node = stack.pop()
        if id(node) in definitions:
            continue
        if isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    defined = {f"{cls.name}.{f.target.id}" for found in fields.values() for cls, f in found}
    unread = [f"{path.name}:{f.lineno} {cls.name}.{f.target.id}" for path, found in fields.items() for cls, f in found
              if f.target.id not in reads and f"{cls.name}.{f.target.id}" not in KEPT_FIELDS]
    assert not unread, ("fields never read outside tests (delete them, or add them to KEPT_FIELDS with a "
                        f"reason): {unread}")
    assert KEPT_FIELDS <= defined, f"KEPT_FIELDS entries that no longer exist: {sorted(KEPT_FIELDS - defined)}"

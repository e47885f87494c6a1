"""Every public name of `src/kkt` is used by the program, not only by tests.

A public module-level function or class, or a public method, must be
referenced somewhere in `src/kkt`, `perfbench/*.py` or `demos/*.py` outside
its own definition. A reference is a name, an attribute, an imported name
or a string constant equal to it (the benchmark wraps methods by name).
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
    sources = sorted((ROOT / "src" / "kkt").glob("*.py"))
    users = sources + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in users}
    defined, unused = set(), []
    for path in sources:
        for node in _public_definitions(trees[path]):
            defined.add(node.name)
            if node.name not in KEPT and not any(node.name in _referenced_names(t, node) for t in trees.values()):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"public names used only by tests (delete them, or add them to KEPT with a reason): {unused}"
    assert KEPT <= defined, f"KEPT names that no longer exist: {sorted(KEPT - defined)}"

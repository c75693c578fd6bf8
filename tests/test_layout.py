"""`src/moco4d` holds only what the correction job and the benchmark reach.

Every top-level function, class and module constant, and every non-dunder
method, defined in `src/moco4d` must be loaded, by name or as an attribute,
somewhere in `src/moco4d` or `moco4d_bench` outside its own definition. Code
that only tests reach belongs in `tests/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "moco4d"
SCOPE = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "moco4d_bench").glob("*.py"))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, bare name, node) of each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not _is_dunder(t.id):
                    yield t.id, t.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def _loads(tree):
    """(bare name, line) of every name or attribute read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def test_every_package_definition_is_reached_outside_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SCOPE}
    loads = {path: list(_loads(tree)) for path, tree in trees.items()}
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, node in _definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and (p != path or line not in own)
                       for p, found in loads.items() for n, line in found):
                unreached.append(f"{path.stem}.{qualified}")
    assert not unreached, f"reached only by tests or by nothing: {unreached}"

"""`src/moco4d` holds only what the correction job and the benchmark reach.

Every top-level function, class and module constant, and every non-dunder
method, defined in `src/moco4d` must be loaded, by name or as an attribute,
somewhere in `src/moco4d` or `moco4d_bench` outside its own definition. Code
that only tests reach belongs in `tests/`.

Every settable value in `src/moco4d` (each optional parameter, and each
dataclass field with a default) must be set by some call in `src/moco4d`,
`moco4d_bench` or `tests/`: by keyword, or by position, on a callee with its
bare name (the class name for `__init__` and for dataclass fields). A call
that passes `*args` or `**kwargs` sets every optional parameter of its callee.
A value nothing sets is a module constant.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "moco4d"
SCOPE = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "moco4d_bench").glob("*.py"))
CALLERS = SCOPE + sorted((ROOT / "tests").glob("*.py"))


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


def _optional_params(fn, skip):
    """(name, position) of each optional parameter of `fn`, with `skip`
    leading positional parameters not counted; keyword-only ones have no
    position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first:], start=first):
        yield a.arg, i - skip
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None


def _is_dataclass(cls):
    names = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(n, ast.Name) and n.id == "dataclass" for n in names)


def _settable(tree):
    """(qualified name, callee, position, keyword) of each optional parameter
    and each dataclass field with a default."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for name, pos in _optional_params(node, 0):
                yield f"{node.name}({name}=)", node.name, pos, name
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_dataclass(node):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            for pos, item in enumerate(fields):
                if item.value is not None:
                    yield f"{node.name}.{item.target.id}", node.name, pos, item.target.id
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                callee = node.name if item.name == "__init__" else item.name
                for name, pos in _optional_params(item, 1):
                    yield f"{node.name}.{item.name}({name}=)", callee, pos, name


def _calls(tree):
    """(bare callee name, positional count, keywords, passes * or **) of
    every call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        keywords = {k.arg for k in node.keywords}
        star = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
        yield callee, len(node.args), keywords, star


def test_every_settable_value_is_set_somewhere():
    calls = [c for path in CALLERS for c in _calls(ast.parse(path.read_text(), str(path)))]
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, callee, pos, keyword in _settable(ast.parse(path.read_text())):
            if not any(name == callee and (star or keyword in keywords
                                           or (pos is not None and pos < n_pos))
                       for name, n_pos, keywords, star in calls):
                unset.append(f"{path.stem}.{qualified}")
    assert not unset, f"settable values nothing sets (make them constants): {unset}"

"""`src/moco4d` holds only what the correction job and the benchmark reach.

Every top-level function, class and module constant, and every non-dunder
method, defined in `src/moco4d` must be loaded, by name or as an attribute,
somewhere in `src/moco4d` or `moco4d_bench` outside its own definition. Code
that only tests reach belongs in `tests/`.

Every settable value in `src/moco4d` (each optional parameter, and each
dataclass field with a default) must be set by some call in `src/moco4d` or
`moco4d_bench`: by keyword, or by position, on a callee with its bare name
(the class name for `__init__` and for dataclass fields). A call that passes
`*args` or `**kwargs` sets every optional parameter of its callee. A value
that only tests set is a module constant, unless SET_BY_TESTS_ONLY names it
with its reason.

No module of `src/moco4d` loads an underscore-prefixed attribute of another
`moco4d` module or imports such a name from one: each module keeps its own
decisions.

`python tests/test_layout.py` prints each settable value with the number of
calls that set it from `src/moco4d` plus `moco4d_bench` and from `tests/`,
and the number of settable values.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "moco4d"
SCOPE = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "moco4d_bench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

_LOSS_WINDOW = "tests run the loss on grids smaller than the 9-voxel window"
_REFERENCE = "the reference-frame choice of ROADMAP items 4-5"
# settable values that only tests set, each with its reason
SET_BY_TESTS_ONLY = {
    "losses.LossConfig.lam": _LOSS_WINDOW,
    "losses.LossConfig.ncc_window": _LOSS_WINDOW,
    "losses.LossConfig.ncc_epsilon": _LOSS_WINDOW,
    "network.init_net_params(extents=)": "only B-LSTM needs it, and no workload runs B-LSTM",
    "network.init_net_params(dtype=)": "the float64 reference of the gradchecks",
    "phantom.MotionSpec.reference_index": _REFERENCE,
    "train.TrainConfig.reference_index": _REFERENCE,
}


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


def _is_private(name):
    return name.startswith("_") and not _is_dunder(name)


def _private_reaches(tree):
    """(line, name) of each underscore-prefixed name that a module imports
    from another `moco4d` module, or loads as an attribute of one."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "moco4d"
                                                 or node.module.startswith("moco4d.")):
            for alias in node.names:
                if _is_private(alias.name):
                    yield node.lineno, alias.name
                elif node.module in (None, "moco4d"):     # `from . import autodiff as ad`
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("moco4d."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in modules
                and _is_private(node.attr)):
            yield node.lineno, f"{node.value.id}.{node.attr}"


def test_no_module_reaches_into_another_modules_private_names():
    found = [f"{path.name}:{line} {name}" for path in sorted(PACKAGE.glob("*.py"))
             for line, name in _private_reaches(ast.parse(path.read_text(), str(path)))]
    assert not found, f"private names of another moco4d module: {found}"


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


def _setting_calls(callers):
    """{qualified name: number of calls in `callers` that set it} over every
    settable value in `src/moco4d`."""
    calls = [c for path in callers for c in _calls(ast.parse(path.read_text(), str(path)))]
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, callee, pos, keyword in _settable(ast.parse(path.read_text())):
            counts[f"{path.stem}.{qualified}"] = sum(
                name == callee and (star or keyword in keywords
                                    or (pos is not None and pos < n_pos))
                for name, n_pos, keywords, star in calls)
    return counts


def test_every_settable_value_is_set_somewhere():
    by_scope, by_tests = _setting_calls(SCOPE), _setting_calls(TESTS)
    unset = [q for q, n in by_scope.items() if not n and q not in SET_BY_TESTS_ONLY]
    assert not unset, f"settable values only tests or nothing set (make them constants): {unset}"
    # each exception is a value that tests set and the job does not
    stale = [q for q in SET_BY_TESTS_ONLY if by_scope.get(q, 1) or not by_tests[q]]
    assert not stale, f"SET_BY_TESTS_ONLY entries not set by tests alone: {stale}"


if __name__ == "__main__":
    by_scope, by_tests = _setting_calls(SCOPE), _setting_calls(TESTS)
    width = max(map(len, by_scope))
    print(f"{'settable value':<{width}}  src+bench  tests")
    for q, n in by_scope.items():
        print(f"{q:<{width}}  {n:>9}  {by_tests[q]:>5}")
    print(f"{len(by_scope)} settable values")

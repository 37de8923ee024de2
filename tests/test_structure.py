"""Package structure: every import sits at module level, the modules of
protosel import each other without a cycle, and no loop hand-sets a block
size."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "protosel"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def internal_imports(tree) -> set[str]:
    """The protosel modules a module imports, by stem; a name taken from the
    package itself that is no module counts as __init__."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found.update(p[1] for p in parts if p[0] == "protosel" and len(p) > 1)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("protosel"):
                continue
            parts = (node.module or "").split(".")[1 if node.level == 0 else 0 :]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(a.name if a.name in TREES else "__init__" for a in node.names)
    return found


def test_the_package_has_modules():
    assert {"greedy", "baselines", "gradopt", "objectives"} <= set(TREES)


def test_no_import_inside_a_function():
    local = [
        f"{name}.py:{inner.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


def test_internal_import_graph_is_acyclic():
    graph = {name: internal_imports(tree) & set(TREES) for name, tree in TREES.items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(" -> ".join(path[path.index(name) :] + [name]))
        if name in done:
            return
        path.append(name)
        for target in sorted(graph[name]):
            visit(target)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_no_range_has_a_literal_step():
    # blocked loops take their blocks from kernel.row_blocks
    literal = [
        f"{name}.py:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range"
        and len(node.args) == 3 and isinstance(node.args[2], ast.Constant)
    ]
    assert literal == []

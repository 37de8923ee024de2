"""Package structure: every import sits at module level, the modules of
protosel import each other without a cycle, no loop hand-sets a block size,
every defaulted parameter is passed by some call in the package, no
parameter is set to one literal or module constant by every call in the
package, every function reads every parameter it takes, every library
function is named outside selftest, only the kernel evaluators call exp,
gradopt does not import kernel_matrix, only Method reads its reads_sums
column, and the package imports only the scipy subpackages it needs."""

import ast
import os
import subprocess
import sys
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


def defaulted_parameters(func) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter of func that has a default; the
    position is None for a keyword-only one."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    found = [(i, positional[i].arg) for i in range(first, len(positional))]
    found += [(None, a.arg) for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults) if d is not None]
    return found


def package_calls() -> dict[str, list[ast.Call]]:
    """Every call in the package, by the name it calls: a function's name or
    a method's attribute."""
    calls = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    return calls


def bound_methods(tree) -> set[int]:
    """ids of the methods of tree whose call binds self (or cls) outside its
    argument list: every method but a staticmethod."""
    return {
        id(f)
        for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef)
        for f in c.body
        if not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in getattr(f, "decorator_list", []))
    }


def passes(call, position, name) -> bool:
    """Whether call sets the parameter by keyword, by position or through
    *args or **kwargs."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and position < len(call.args)


def test_every_defaulted_parameter_is_passed_by_the_package():
    # A default that no call in the package overrides is a constant with a
    # name; tests observe loops through module constants and attributes that
    # are read at call time (MAX_ITER, MAX_ITERATIONS, CHUNK_BYTES,
    # gradopt.minimize), not through parameters. Exempt: the selftest suites'
    # settings, which configure the oracles, and cli.main(argv), which the
    # console script calls with no arguments and tests call with a list.
    calls = package_calls()
    unused = []
    for module, tree in TREES.items():
        if module == "selftest":
            continue
        bound = bound_methods(tree)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or (module, func.name) == ("cli", "main"):
                continue
            shift = id(func) in bound
            for position, name in defaulted_parameters(func):
                if position is not None and shift:
                    position -= 1
                if not any(passes(call, position, name) for call in calls.get(func.name, [])):
                    unused.append(f"{module}.{func.name}({name})")
    assert unused == []


# the names bound at module level in the package, such as CV_FOLDS
MODULE_NAMES = {
    target.id
    for tree in TREES.values()
    for node in tree.body
    if isinstance(node, (ast.Assign, ast.AnnAssign))
    for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    if isinstance(target, ast.Name)
}


def fixed_value(call, position, name) -> str | None:
    """The literal or module-level name to which call sets the parameter, or
    None when it sets it to any other expression, leaves it unset, or passes
    *args or **kwargs, which count as varying."""
    if any(k.arg is None for k in call.keywords) or any(isinstance(a, ast.Starred) for a in call.args):
        return None
    node = next((k.value for k in call.keywords if k.arg == name), None)
    if node is None and position is not None and position < len(call.args):
        node = call.args[position]
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id if node.id in MODULE_NAMES else None
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def test_no_parameter_is_fixed_by_every_package_call():
    # A parameter that every call in the package sets to one literal, or to
    # one module-level constant, is a fixed choice passed around: it lives in
    # the function that applies it, as CV_FOLDS does in stratified_folds and
    # MEDIAN_PAIRS in kernel.median_gamma. With the two rules above, every
    # parameter is read, and a default is one that some call overrides.
    calls = package_calls()
    fixed = []
    for module, tree in TREES.items():
        bound = bound_methods(tree)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name not in calls:
                continue
            shift = int(id(func) in bound)
            positional = func.args.posonlyargs + func.args.args
            params = [(i - shift, a.arg) for i, a in enumerate(positional) if i >= shift]
            params += [(None, a.arg) for a in func.args.kwonlyargs]
            for position, name in params:
                values = {fixed_value(call, position, name) for call in calls[func.name]}
                if len(values) == 1 and None not in values:
                    fixed.append(f"{module}.{func.name}({name})")
    assert fixed == []


def test_every_function_reads_every_parameter():
    # A parameter that its function never reads is a calling convention, not
    # an input. Exempt: self and cls, which Python binds by protocol.
    unread = []
    for module, tree in TREES.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = func.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, [args.vararg, args.kwarg])]
            read = {node.id for node in ast.walk(func) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{module}.{getattr(func, 'name', '<lambda>')}({a.arg})" for a in params
                       if a.arg not in ("self", "cls") and a.arg not in read]
    assert unread == []


# modules whose functions serve production runs; selftest and __init__ hold
# oracles and re-exports, so a name they use does not keep a function alive
LIBRARY = ("kernel", "objectives", "greedy", "gradopt", "baselines", "evaluation", "corpus")


def test_every_library_function_is_named_outside_selftest_and_init():
    # A function that only tests and selftest run is code that nothing needs;
    # tests reach the same behaviour through what production calls. Exempt:
    # dunders and @property accessors, which Python calls by protocol.
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for module, tree in TREES.items()
        if module not in ("selftest", "__init__")
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unnamed = []
    for module in LIBRARY:
        for top in TREES[module].body:
            for func in top.body if isinstance(top, ast.ClassDef) else [top]:
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                dunder = func.name.startswith("__") and func.name.endswith("__")
                prop = any(isinstance(d, ast.Name) and d.id == "property" for d in func.decorator_list)
                if not (dunder or prop or func.name in named):
                    owner = f"{top.name}." if func is not top else ""
                    unnamed.append(f"{module}.{owner}{func.name}")
    assert unnamed == []


def calls_exp(node) -> bool:
    return any(isinstance(call, ast.Call) and getattr(call.func, "attr", getattr(call.func, "id", None)) == "exp"
               for call in ast.walk(node))


def test_only_the_kernel_evaluators_call_exp():
    # every other kernel quantity sums kernel_matrix blocks; the L-BFGS
    # objective forms its own centred block, and selftest keeps a scalar oracle
    callers = set()
    for module, tree in TREES.items():
        for top in tree.body:
            for node in top.body if isinstance(top, ast.ClassDef) else [top]:
                if calls_exp(node):
                    owner = f".{node.name}" if node is not top else ""
                    callers.add(f"{module}.{getattr(top, 'name', '<module>')}{owner}")
    expected = {"kernel.kernel_matrix", "gradopt._MetaObjective.value_grad", "selftest.scalar_rbf"}
    assert callers == expected


def test_gradopt_does_not_import_kernel_matrix():
    # the L-BFGS evaluator takes k(A, points) and k(A, A) from its own GEMM
    # block; a kernel_matrix call there would be a second kernel per evaluation
    names = set()
    for node in ast.walk(TREES["gradopt"]):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "kernel_matrix" not in names


def test_only_method_reads_its_reads_sums_column():
    # whether a build reads a kernel-sum table is one rule, Method.reads_table;
    # a caller that read the column itself would skip the rule's grad_init term
    method = next(node for node in TREES["evaluation"].body if isinstance(node, ast.ClassDef) and node.name == "Method")
    inside = {id(node) for node in ast.walk(method)}
    readers = [
        f"{name}.py:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "reads_sums" and id(node) not in inside
    ]
    assert readers == []


# scipy subpackages the package may import; scipy.special comes with
# scipy.optimize. A new one, such as scipy.stats (0.65 s of import), is a
# reviewed change to this list.
SCIPY_MODULES = {"scipy.optimize", "scipy.spatial.distance", "scipy.special"}


def test_scipy_imports_are_on_the_allow_list():
    imported = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names if alias.name.split(".")[0] == "scipy")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                imported.add(node.module)
    assert imported <= SCIPY_MODULES


def test_the_cli_does_not_load_scipy_stats():
    code = "import sys, protosel.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    path = os.pathsep.join([str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"

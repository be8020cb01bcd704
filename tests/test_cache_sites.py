"""Where a QSymbolCache comes from: each request or verify group builds one,
and every function below it takes the caller's."""

import ast
from pathlib import Path

import cyclojones

BUILDERS = {("cli", "_cmd_coeffs"), ("cli", "_cmd_jones"), ("cli", "_cmd_eval"),
            ("verify", "_run_group")}


def _modules():
    for path in sorted(Path(cyclojones.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _cache_builds(module, tree):
    """(module, innermost enclosing def, or None at module level) of each
    QSymbolCache() call."""
    sites = []

    def visit(node, owner):
        if isinstance(node, ast.Call) and "QSymbolCache" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            sites.append((module, owner))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return sites


def test_caches_are_built_only_by_requests_and_verify_groups():
    sites = [site for module, tree in _modules() for site in _cache_builds(module, tree)]
    assert sorted(sites) == sorted(BUILDERS)


def test_no_cache_parameter_has_a_default():
    defaulted = []
    for module, tree in _modules():
        functions = (node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
        for fn in functions:
            args = fn.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
            ]
            if any(arg.arg == "cache" for arg in with_default):
                defaulted.append((module, getattr(fn, "name", "<lambda>")))
    assert defaulted == []

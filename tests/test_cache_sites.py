"""Where a QSymbolCache comes from: each request or verify group builds one,
and every function below it takes the caller's.  And where a polynomial's
JSON comes from: serialize writes it in one function, and no json.dumps
runs over cached values."""

import ast
import inspect
from pathlib import Path

import cyclojones

BUILDERS = {("cli", "_cmd_coeffs"), ("cli", "_cmd_jones"), ("cli", "_cmd_eval"),
            ("verify", "_run_group")}


def _modules():
    for path in sorted(Path(cyclojones.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _owned_nodes(tree):
    """(innermost enclosing def, or None at module level, node) of each node."""

    def visit(node, owner):
        yield owner, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    return visit(tree, None)


def _cache_builds(module, tree):
    """(module, innermost enclosing def, or None at module level) of each
    QSymbolCache() call."""
    return [
        (module, owner)
        for owner, node in _owned_nodes(tree)
        if isinstance(node, ast.Call)
        and "QSymbolCache" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


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


def test_one_function_reads_the_verify_group_cache():
    readers = [
        owner
        for owner, node in _owned_nodes(dict(_modules())["verify"])
        if isinstance(node, ast.Attribute) and node.attr == "get"
        and getattr(node.value, "id", None) == "_GROUP_CACHE"
    ]
    assert readers == ["check"]  # the check that _identities makes of each generator body


def test_every_verify_check_wraps_a_generator_of_identities():
    from cyclojones import verify

    checks = [fn for suite in verify.SUITES.values() for fn in suite]
    assert len(checks) == 31
    assert all(inspect.isgeneratorfunction(fn.__wrapped__) for fn in checks)


def test_only_memo_and_latest_write_the_coefficient_store():
    def writes(node):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            store = node.value
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
            "setdefault", "update", "pop", "popitem", "clear"
        ):
            store = node.func.value
        else:
            return False
        return getattr(store, "attr", None) == "coefficients"

    writers = [(module, owner) for module, tree in _modules()
               for owner, node in _owned_nodes(tree) if writes(node)]
    assert sorted(writers) == [("qcalc", "latest"), ("qcalc", "memo")]


def test_every_qsymbol_table_grows_in_one_loop():
    def grows_by_len(node):
        return (isinstance(node, ast.While) and isinstance(node.test, ast.Compare)
                and getattr(getattr(node.test.left, "func", None), "id", None) == "len")

    loops = [owner for owner, node in _owned_nodes(dict(_modules())["qcalc"]) if grows_by_len(node)]
    assert loops == ["_prefix"]


def test_serialize_writes_a_polynomials_json_in_one_function():
    tree = dict(_modules())["serialize"]

    def holds_the_terms_key(node):
        return isinstance(node, ast.Constant) and '"terms":' in str(node.value)

    writers = {owner for owner, node in _owned_nodes(tree)
               if owner is not None and holds_the_terms_key(node)}
    walkers = {owner for owner, node in _owned_nodes(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_terms"}
    assert writers == walkers == {"poly_to_json"}


def test_no_json_dumps_runs_over_cached_values():
    # json.dumps serializes one header field at a time: a knot, a check set or a route
    calls = [(owner, node) for owner, node in _owned_nodes(dict(_modules())["serialize"])
             if isinstance(node, ast.Call)]
    dumps = [(owner, ast.unparse(node.args[0])) for owner, node in calls
             if ast.unparse(node.func) == "json.dumps"]
    assert dumps == [("_canonical_json", "obj")]
    fields = {ast.unparse(node.args[0]) for owner, node in calls
              if getattr(node.func, "id", None) == "_canonical_json"}
    assert fields == {"knot_to_obj(knot)", "knot_to_obj(table.knot)", "knot_to_obj(result.knot)",
                      "sorted(table.checks)", "result.route"}

"""The hnnfree names the benchmark under perfbench/ depends on still resolve,
and still accept the arguments it passes them, so that removing or
renaming one fails here and not only when the benchmark runs.

The names are read from the benchmark's source with ast, without importing
it: every TARGETS entry of perfbench/tracing.py, every name a perfbench
module imports from hnnfree, and every module it imports afresh.  The calls
are those made through a name imported from hnnfree or a module alias bound
by fresh_import.  The package root binds exactly the names the benchmark
calls through it, so every other name has one import path, its module."""

import ast
import importlib
import inspect
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _tree(name):
    with open(os.path.join(PERFBENCH, name)) as fh:
        return ast.parse(fh.read())


def _targets():
    """(module, attribute) of each TARGETS entry; a method is Class.name."""
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(mod, attr) for _, mod, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py has no TARGETS list")


def _imports():
    """(module, name or None) of each hnnfree import in perfbench/*.py."""
    out = set()
    for name in sorted(os.listdir(PERFBENCH)):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hnnfree":
                out.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                out.update((a.name, None) for a in node.names if a.name.split(".")[0] == "hnnfree")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fresh_import":
                out.update((a.value, None) for a in node.args)
    return out


@pytest.mark.parametrize("module, attr", sorted(_imports().union(_targets()), key=str))
def test_benchmark_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in (attr.split(".") if attr else ()):
        owner = getattr(owner, part)


def _calls():
    """(module, attribute, positional count, keyword names) of each call a
    perfbench module makes through a name it imports from hnnfree or a
    module alias that fresh_import binds.  Setup keeps each alias in its
    ctx under the alias's own name, and a build function may read it back
    as ctx["name"] under another name."""
    out = set()
    for name in sorted(os.listdir(PERFBENCH)):
        if not name.endswith(".py"):
            continue
        tree = _tree(name)
        functions, modules, reads = {}, {}, []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hnnfree":
                functions.update((a.asname or a.name, (node.module, a.name)) for a in node.names)
            if not isinstance(node, ast.Assign):
                continue
            target, value = node.targets[0], node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "fresh_import":
                aliases = target.elts if isinstance(target, ast.Tuple) else [target]
                modules.update((a.id, m.value) for a, m in zip(aliases, value.args))
            elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                reads += zip(target.elts, value.elts)
            else:
                reads.append((target, value))
        for target, value in reads:
            if (isinstance(target, ast.Name) and isinstance(value, ast.Subscript)
                    and getattr(value.slice, "value", None) in modules):
                modules[target.id] = modules[value.slice.value]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id in functions:
                module, attr = functions[f.id]
            elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in modules:
                module, attr = modules[f.value.id], f.attr
            else:
                continue
            assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
            assert all(k.arg for k in node.keywords), ast.unparse(node)
            out.add((module, attr, len(node.args), tuple(sorted(k.arg for k in node.keywords))))
    return sorted(out)


CALLS = _calls()


def test_benchmark_calls_are_found():
    assert ("hnnfree.braid", "free_factor_probe", 3, ()) in CALLS
    assert ("hnnfree.cli", "main", 1, ()) in CALLS
    assert ("hnnfree.pingpong", "free_product_oracle", 3, ("is_trivial",)) in CALLS


@pytest.mark.parametrize("module, attr, positional, keywords", CALLS,
                         ids=[f"{m}.{a}/{n}/{','.join(k)}" for m, a, n, k in CALLS])
def test_benchmark_call_binds(module, attr, positional, keywords):
    target = getattr(importlib.import_module(module), attr)
    inspect.signature(target).bind(*range(positional), **dict.fromkeys(keywords))


def root_names() -> set[str]:
    """Every name a top-level statement of the package root binds."""
    with open(os.path.join(ROOT, "src", "hnnfree", "__init__.py")) as fh:
        body = ast.parse(fh.read()).body
    out = set()
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            out.update(a.asname or a.name.split(".")[0] for a in stmt.names)
        elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            out.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def test_the_root_binds_only_what_the_benchmark_calls_through_it():
    assert root_names() == {attr for module, attr, _, _ in CALLS if module == "hnnfree"}

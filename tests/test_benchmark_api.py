"""The hnnfree names the benchmark under perfbench/ depends on still resolve,
so that removing one fails here and not only when the benchmark runs.

The names are read from the benchmark's source with ast, without importing
it: every TARGETS entry of perfbench/tracing.py, every name a perfbench
module imports from hnnfree, and every module it imports afresh."""

import ast
import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


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

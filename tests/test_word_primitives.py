"""Each word primitive has one implementation, in hnnfree.words: the free
reduction loop is reduce_onto, and the projection onto F(X) x F(Y) is
image.  A new hand-written copy of the loop elsewhere fails here.  A word
is scanned for left-hand sides only by the lhs automaton of
hnnfree.rewrite.RuleSystem: its lhs index is read only where lhs are
compared with lhs as the system is built (LHS_INDEX).  Every public name
the package defines has a reader in the package, its scripts or the
benchmark, so no code is kept for tests alone.

The package's source is read with ast, without importing it.  The loop is
found by its test `s and s[-1] == -c`: a name, and its last item equal to
the negation of a letter.  A few per-letter loops stay inline because
reduce_onto measured slower there (see the comment at each); they are
listed in INLINE.  A projection is found as a free reduction of a
filtered comprehension."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "hnnfree")

INLINE = {
    "words.reduce_onto",
    "words.image",
    "braid.BraidSplitting.act",
    "braid.BraidSplitting.x_part",
}


# `s and s[-1] == -c`, for any names s and c, as ast.unparse spells it
_REDUCTION_TEST = re.compile(r"(\w+) and \1\[-1\] == -\w+")


def _is_reduction_test(node) -> bool:
    return isinstance(node, ast.BoolOp) and _REDUCTION_TEST.fullmatch(ast.unparse(node)) is not None


def _holders(tree, module: str, found=_is_reduction_test) -> set[str]:
    """The qualified names of the functions whose own body holds a node
    that found accepts, by default the free-reduction test."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if found(child):
                out.add(".".join(scope))
            visit(child, scope)

    visit(tree, [module])
    return out


def _modules(src: str):
    """(module name, parsed source) of each module of the package at src."""
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                yield name[:-3], ast.parse(fh.read())


def reduction_loops(src: str = SRC) -> set[str]:
    """Every function of the package that holds a free-reduction test."""
    return set().union(*(_holders(tree, module) for module, tree in _modules(src)))


def test_free_reduction_is_written_only_where_listed():
    assert reduction_loops() == INLINE


def filtered_reductions(src: str = SRC) -> list[str]:
    """Every call of free_reduce or reduce_onto on a comprehension with a
    filter, such as free_reduce(c for c in w if c & 1): a projection
    written by hand."""
    return [f"{module}: {ast.unparse(n)}" for module, tree in _modules(src) for n in ast.walk(tree)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("free_reduce", "reduce_onto")
            and any(isinstance(a, (ast.GeneratorExp, ast.ListComp)) and any(g.ifs for g in a.generators)
                    for a in n.args)]


def test_image_is_the_only_projection():
    assert filtered_reductions() == []


# the functions that compare lhs with lhs while a RuleSystem is built
LHS_INDEX = {
    "rewrite.RuleSystem.__init__",
    "rewrite.RuleSystem._wider",
    "rewrite.RuleSystem._swap_floors",
    "rewrite.critical_pairs",
}


def lhs_index_readers(src: str = SRC) -> set[str]:
    """Every function of the package that reads an attribute _lhs_index."""
    def found(node):
        return isinstance(node, ast.Attribute) and node.attr == "_lhs_index"

    return set().union(*(_holders(tree, module, found) for module, tree in _modules(src)))


def test_the_lhs_index_is_read_only_where_lhs_meet_lhs():
    assert lhs_index_readers() == LHS_INDEX


def _binds(stmt) -> set[str]:
    """The public names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return {n for n in names if not n.startswith("_")}


def _reads(node, strings: bool) -> list[str]:
    """The names a node reads: a loaded name, an attribute, or with strings
    each part of a string that is a dotted name, as perfbench names what it
    traces.  An import reads nothing, so a re-export in __init__ is no
    reader."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        parts = node.value.split(".")
        return parts if all(p.isidentifier() for p in parts) else []
    return []


def unread_public_names(root: str = ROOT) -> set[str]:
    """Every public top-level name of the package at root/src/hnnfree that
    nothing reads outside its own definition: not the package, not
    root/scripts, not root/perfbench."""
    package, defined, read = os.path.join("src", "hnnfree"), set(), set()
    for where in (package, "scripts", "perfbench"):
        for _, tree in _modules(os.path.join(root, where)):
            for stmt in tree.body:
                own = _binds(stmt)
                if where == package:
                    defined |= own
                read.update(name for node in ast.walk(stmt)
                            for name in _reads(node, where == "perfbench") if name not in own)
    return defined - read


def test_every_public_name_has_a_reader():
    assert unread_public_names() == set()

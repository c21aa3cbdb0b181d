"""Each word primitive has one implementation, in hnnfree.words: the free
reduction loop is reduce_onto, and the projection onto F(X) x F(Y) is
image.  A new hand-written copy of the loop elsewhere fails here.  A word
is scanned for left-hand sides only by the lhs automaton of
hnnfree.rewrite.RuleSystem: its lhs index is read only where lhs are
compared with lhs as the system is built (LHS_INDEX).

The package's source is read with ast, without importing it.  The loop is
found by its test `s and s[-1] == -c`: a name, and its last item equal to
the negation of a letter.  A few per-letter loops stay inline because
reduce_onto measured slower there (see the comment at each); they are
listed in INLINE.  A projection is found as a free reduction of a
filtered comprehension."""

import ast
import os
import re

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "hnnfree")

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

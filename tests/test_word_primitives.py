"""Each word primitive has one implementation, in hnnfree.words: the free
reduction loop is reduce_onto, and the projection onto F(X) x F(Y) is
image.  A new hand-written copy of the loop elsewhere fails here.  A word
is scanned for left-hand sides only by the lhs automaton of
hnnfree.rewrite.RuleSystem: its lhs index is read only where lhs are
compared with lhs as the system is built (LHS_INDEX).  Every public name
the package defines has a reader in the package, its scripts or the
benchmark, and every parameter default is overridden by some call there,
so no code or switch is kept for tests alone.  Every option of a CLI
subcommand occurs in a case of scripts/cli_corpus.py, whose output
tests/cli_corpus.txt pins, and so does every raise statement of cli.py and
every return statement of the deciders rewrite.equal, RuleSystem.is_trivial
and BraidSplitting.is_trivial, and every input error of the parsers: each
raise statement of words.parse_word, presentation.parse_presentation and
_parse_rel_side, and each fault that presentation.validate appends.
CapExceeded is the one cap exception: no class subclasses it or words a
message of its own as a template.

The package's source is read with ast, without importing it; only the
option, raise, return and fault checks import the CLI, to read its
registry of subcommands and to run the corpus.  The
loop is found by its test `s and s[-1] == -c`: a name, and its last item
equal to the negation of a letter.  A few per-letter loops stay inline because
reduce_onto measured slower there (see the comment at each); they are
listed in INLINE.  A projection is found as a free reduction of a
filtered comprehension."""

import ast
import functools
import inspect
import os
import re
import runpy
import shlex
import sys
import tempfile
import textwrap

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


def _defaulted(tree, module: str):
    """(qualified name, name calls use, offset, parameter, position or
    None) of each parameter with a default of each function of a module.
    A method is called by its name, __init__ by its class's, and a call
    passes a method's parameters from offset 1, after self."""
    def visit(node, scope, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, scope + [child.name], child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a, name = child.args, ".".join(scope + [child.name])
                called = cls if cls and child.name == "__init__" else child.name
                offset = 1 if cls and not any(getattr(d, "id", None) == "staticmethod"
                                              for d in child.decorator_list) else 0
                positional = a.posonlyargs + a.args
                for i, arg in enumerate(positional[len(positional) - len(a.defaults):],
                                        len(positional) - len(a.defaults)):
                    yield name, called, offset, arg.arg, i
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield name, called, offset, arg.arg, None
                yield from visit(child, scope + [child.name], None)

    yield from visit(tree, [module], None)


def unpassed_defaults(root: str = ROOT) -> set[str]:
    """Every parameter with a default, of a function of the package at
    root/src/hnnfree, that no call in the package, root/scripts or
    root/perfbench passes, by keyword or by position: a default no caller
    overrides is a constant, and its parameter a switch nobody sets.  A
    call is matched by the name it calls; one with *args or **kwargs passes
    every parameter, and is listed as None."""
    package, defaults = os.path.join("src", "hnnfree"), []
    calls: dict[str, list[tuple[int, set[str]] | None]] = {}
    for where in (package, "scripts", "perfbench"):
        for module, tree in _modules(os.path.join(root, where)):
            if where == package:
                defaults += _defaulted(tree, module)
            for n in ast.walk(tree):
                if isinstance(n, ast.Call):
                    name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                    spread = any(isinstance(a, ast.Starred) for a in n.args) or \
                        any(k.arg is None for k in n.keywords)
                    calls.setdefault(name, []).append(
                        None if spread else (len(n.args), {k.arg for k in n.keywords}))
    return {f"{name}({param})" for name, called, offset, param, i in defaults
            if not any(c is None or param in c[1] or (i is not None and c[0] + offset > i)
                       for c in calls.get(called, []))}


def test_every_default_is_overridden_by_a_caller():
    assert unpassed_defaults() == set()


def options_missing_from_corpus(root: str = ROOT) -> set[str]:
    """Every option that a subcommand registers in hnnfree.cli._COMMANDS
    and that no case of that subcommand in root/scripts/cli_corpus.py
    gives, so that its output is pinned nowhere."""
    from hnnfree.cli import _COMMANDS

    given: dict[str, set[str]] = {}
    for case in runpy.run_path(os.path.join(root, "scripts", "cli_corpus.py"))["CASES"]:
        argv = shlex.split(case)
        if argv:
            given.setdefault(argv[0], set()).update(a for a in argv if a.startswith("--"))
    return {f"{command} {option}" for command, (_, _, arguments) in _COMMANDS.items()
            for names, _ in arguments for option in names
            if option.startswith("--") and option not in given.get(command, ())}


def test_every_cli_option_occurs_in_the_corpus():
    assert options_missing_from_corpus() == set()


def deciders():
    """rewrite.equal, RuleSystem.is_trivial and BraidSplitting.is_trivial:
    every answer of the word problem and of triviality in either layer."""
    from hnnfree.braid import BraidSplitting
    from hnnfree.rewrite import RuleSystem, equal

    return equal, RuleSystem.is_trivial, BraidSplitting.is_trivial


def parsers():
    """The functions that read a user's words and presentation files:
    every input error a user can cause is raised or collected in them."""
    from hnnfree.presentation import _parse_rel_side, parse_presentation, validate
    from hnnfree.words import parse_word

    return parse_word, parse_presentation, _parse_rel_side, validate


@functools.lru_cache(maxsize=None)
def corpus_lines(root: str = ROOT) -> frozenset[tuple[str, int]]:
    """(file, line) of every line that the cases of
    root/scripts/cli_corpus.py run in frames of hnnfree/cli.py, of the
    deciders or of the parsers.  The cases run in-process through the
    script's own run, in a temporary directory that holds its FILES, under
    a tracer that records the lines of those frames alone; the raise, the
    return and the fault checks share the one run."""
    from hnnfree import cli

    corpus = runpy.run_path(os.path.join(root, "scripts", "cli_corpus.py"))
    codes = {f.__code__ for f in (*deciders(), *parsers())}
    ran: set[tuple[str, int]] = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        return lines if code in codes or code.co_filename == cli.__file__ else None

    cwd, before = os.getcwd(), sys.gettrace()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in corpus["FILES"].items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        os.chdir(tmp)
        sys.settrace(calls)
        try:
            for case in corpus["CASES"]:
                corpus["run"](shlex.split(case))
        finally:
            sys.settrace(before)
            os.chdir(cwd)
    return frozenset(ran)


def cli_raises_missing_from_corpus(root: str = ROOT) -> set[int]:
    """The line of every raise statement of hnnfree/cli.py that no case of
    root/scripts/cli_corpus.py runs."""
    from hnnfree import cli

    with open(cli.__file__) as fh:
        raises = {n.lineno for n in ast.walk(ast.parse(fh.read())) if isinstance(n, ast.Raise)}
    return raises - {line for file, line in corpus_lines(root) if file == cli.__file__}


def test_every_cli_raise_runs_in_the_corpus():
    assert cli_raises_missing_from_corpus() == set()


def _missing_from_corpus(functions, found, root: str) -> set[str]:
    """`name:line` of every node of the functions that found accepts and
    whose line no case of root/scripts/cli_corpus.py runs."""
    at = {}
    for f in functions:
        source, first = inspect.getsourcelines(f)
        for n in ast.walk(ast.parse(textwrap.dedent("".join(source)))):
            if found(n):
                line = first + n.lineno - 1
                at[f.__code__.co_filename, line] = f"{f.__qualname__}:{line}"
    ran = corpus_lines(root)
    return {name for key, name in at.items() if key not in ran}


def decider_returns_missing_from_corpus(root: str = ROOT) -> set[str]:
    """`name:line` of every return statement of the deciders that no case
    of root/scripts/cli_corpus.py runs."""
    return _missing_from_corpus(deciders(), lambda n: isinstance(n, ast.Return), root)


def test_every_decider_answer_runs_in_the_corpus():
    assert decider_returns_missing_from_corpus() == set()


def _is_input_error(node) -> bool:
    """A raise statement, or validate appending a fault to its list out."""
    return isinstance(node, ast.Raise) or (
        isinstance(node, ast.Call) and ast.unparse(node.func) == "out.append")


def parser_errors_missing_from_corpus(root: str = ROOT) -> set[str]:
    """`name:line` of every raise statement of the parsers, and of every
    fault that validate appends, that no case of
    root/scripts/cli_corpus.py runs."""
    return _missing_from_corpus(parsers(), _is_input_error, root)


def test_every_input_error_runs_in_the_corpus():
    assert parser_errors_missing_from_corpus() == set()


def cap_classes(src: str = SRC) -> set[str]:
    """Every class of the package that subclasses CapExceeded or sets a
    template attribute: CapExceeded words every cap's message from the
    cap's name, so such a class would word one a second way."""
    out = set()
    for module, tree in _modules(src):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(b, "id", None) or getattr(b, "attr", None) for b in node.bases}
                if "CapExceeded" in bases or "template" in set().union(*map(_binds, node.body)):
                    out.add(f"{module}.{node.name}")
    return out


def test_one_cap_exception():
    assert cap_classes() == set()

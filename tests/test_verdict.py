"""Verdicts have one spelling: the members of pingpong.Verdict.

A member must print, format and serialise as its bare word, and equal and
hash like it, since callers compare reports with plain strings.  No module
of the package may spell a verdict word as a string constant outside the
Verdict class; the modules are read with ast, without importing them."""

import ast
import json
import os

import pytest

from hnnfree.pingpong import Verdict

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "hnnfree")
WORDS = {"certified": 0, "pass": 0, "refuted": 1, "fail": 1, "inconclusive": 3}


@pytest.mark.parametrize("member", list(Verdict), ids=str)
def test_a_verdict_prints_as_its_word(member):
    word = member.value
    assert (str(member), format(member), f"{member}", f"{member:>4}") == (word, word, word, f"{word:>4}")
    assert json.dumps({"verdict": member}) == json.dumps({"verdict": word})
    assert member == word and hash(member) == hash(word) and {word: 1}[member] == 1
    assert member.exit == WORDS[word]


def test_the_members_are_the_verdict_words():
    assert {m.value for m in Verdict} == set(WORDS)


def _word_constants(tree):
    """(line, word) of each verdict word spelled as a string constant
    outside the body of a class named Verdict."""
    inside = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "Verdict"
              for n in ast.walk(c)}
    return [(n.lineno, n.value) for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and n.value in WORDS and id(n) not in inside]


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SRC) if f.endswith(".py")))
def test_no_module_spells_a_verdict_outside_verdict(name):
    with open(os.path.join(SRC, name)) as fh:
        assert _word_constants(ast.parse(fh.read())) == []


def test_the_guard_sees_a_second_spelling():
    tree = ast.parse('class Verdict:\n    PASS = "pass"\n\nOK = "pass"\n')
    assert _word_constants(tree) == [(4, "pass")]

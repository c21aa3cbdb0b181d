import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hnnfree.braid
import hnnfree.presentation
import hnnfree.rewrite
import hnnfree.words
from artin import artin_equal
from hnnfree.braid import Group, braid_equal, braid_trivial, verify_braid_relations
from hnnfree.cli import main
from hnnfree.pingpong import Bounds, SubgroupSpec, free_product_oracle
from hnnfree.presentation import gn, p2
from hnnfree.rewrite import RuleSystem, critical_pairs
from hnnfree.words import OUTER, format_word, invert, stable_gen

FILE_TEXT = """\
# three-letter base with two stable letters, conjugators of length two
base y1 y2 y3
stable x1 x2
rel x1 : y1 ^ y2 y3 = y1 ^ y3 y2
rel x1 : y2 ^ y3^-1 y1 = y2 ^ y1 y3
rel x2 : y3 ^ y1 y1 = y3 ^ y2^-1 y1
"""

# a non-confluent system: the second association's lhs extends the first's
NESTED = """\
base y1 x1
stable s
rel s : y1 ^ x1^-1 y1^-1 = y1 ^ x1
rel s : x1 ^ y1^-1 = x1 ^ y1 x1
"""


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# --- engine commands ---------------------------------------------------------------

def test_nf_example(capsys):
    code, out, _ = run(capsys, "nf", "--preset", "gn", "3", "x2 y2^-1 y1")
    assert code == 0
    assert out.strip() == "y2^-1 y1 y2 x2 y2^-1"


def test_nf_trace(capsys):
    code, out, _ = run(capsys, "nf", "--preset", "gn", "3", "--trace", "x2 y2^-1 y1")
    assert code == 0
    assert "initial: x2 y2^-1 y1" in out
    assert "final: y2^-1 y1 y2 x2 y2^-1" in out
    assert "nu=" in out and "rule=" in out
    # a one-coordinate nu prints without a trailing comma
    code, out, _ = run(capsys, "nf", "--preset", "gn", "3", "--trace", "y1 y1^-1 y2")
    assert code == 0
    assert out == "initial: y1 y1^-1 y2\n#1 pos=0 rule=1/0 nu=(1)\nfinal: y2\n"
    code, out, _ = run(capsys, "nf", "--preset", "gn", "3", "--trace", "x1^2 y2^2")
    assert code == 0
    assert out == ("initial: x1^2 y2^2\n"
                   "#1 pos=1 rule=3/8 nu=(0, 1, 1)\n"
                   "#2 pos=0 rule=3/8 nu=(1, 0, 1)\n"
                   "#3 pos=2 rule=3/8 nu=(1, 1, 0)\n"
                   "#4 pos=1 rule=3/8 nu=(2, 0, 0)\n"
                   "final: y2^2 x1^2\n")
    # coordinates of two digits
    code, out, _ = run(capsys, "nf", "--preset", "gn", "3", "--trace", "x1 y2^12")
    assert code == 0
    assert out == "".join(
        ["initial: x1 y2^12\n"]
        + [f"#{k} pos={k - 1} rule=3/8 nu=({k}, {12 - k})\n" for k in range(1, 13)]
        + ["final: y2^12 x1\n"])


def test_nf_json_leaves_out_the_trace(monkeypatch, capsys):
    doc = ('{\n  "schema": 1,\n  "command": "nf",\n  "input": "x1^2 y2^2",\n'
           '  "normal_form": "y2^2 x1^2",\n  "steps": 4\n}\n')
    # nor does it build one: a trace cap of 0 leaves the document as it is
    for cap in (hnnfree.rewrite.TRACE_CAP, 0):
        monkeypatch.setattr(hnnfree.rewrite, "TRACE_CAP", cap)
        for flags in ((), ("--trace",)):
            argv = ("nf", "--preset", "gn", "3", "--json", *flags, "x1^2 y2^2")
            assert run(capsys, *argv) == (0, doc, "")


def test_nf_json_is_stable(capsys):
    runs = [run(capsys, "nf", "--preset", "gn", "3", "--json", "x2 y2^-1 y1")
            for _ in range(2)]
    assert runs[0] == runs[1]
    doc = json.loads(runs[0][1])
    assert doc["schema"] == 1
    assert doc["command"] == "nf"
    assert doc["normal_form"] == "y2^-1 y1 y2 x2 y2^-1"
    assert doc["steps"] >= 1


def test_eq_example(capsys):
    code, out, _ = run(capsys, "eq", "--preset", "gn", "3", "x1 y2", "y2 x1")
    assert code == 0
    assert out.strip() == "true"


def test_eq_false_exits_one(capsys):
    code, out, _ = run(capsys, "eq", "--preset", "gn", "3", "x1", "x2")
    assert code == 1
    assert out.strip() == "false"


def test_p2_eq_decides_in_the_braid_layer(capsys):
    # t^-1 y1 t pushes to the second word; the third word is the push
    # remainder of relator R3(i=2, j=1), trivial in the braid layer but not in g3
    for argv in (("2", "t^-1 y1 t", "y1 x1 y1 x1^-1 y1^-1"),
                 ("3", "y1^-1 x2 x1^-1 y1 x1 x2^-1 x1^-1 y1^-1 x1 y1", "1")):
        assert run(capsys, "eq", "--preset", "p2", *argv) == (0, "true\n", "")


REFUSAL = ("error: this command needs an HNN presentation, not the braid layer; "
           "use --preset gn N\n")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("command", [
    # the words name t, which gN cannot parse: only a refusal before parsing passes
    ("nf", "t y1 t^-1"),
    ("rules",),
    ("confluence", "--random"),
    ("pingpong-certify", "--spec", "A:t:t", "--evidence", "A:orbit:t"),
], ids=lambda command: command[0])
def test_p2_refuses_the_commands_of_an_hnn_presentation(capsys, n, json_flag, command):
    argv = (command[0], "--preset", "p2", str(n), *json_flag, *command[1:])
    assert run(capsys, *argv) == (2, "", REFUSAL)


def test_p2_oracles_build_no_rule_system(monkeypatch, capsys):
    # under p2 the oracles decide by the splitting and spell in p2's own
    # alphabet, t included, so only the push builds gN's rule system
    hnnfree.braid._system.cache_clear()
    built, init = [], RuleSystem.__init__
    monkeypatch.setattr(RuleSystem, "__init__", lambda self, p: built.append(p) or init(self, p))
    code, out, _ = run(capsys, "pingpong-oracle", "--preset", "p2", "3",
                       "--spec", "A:x1:y1 x1", "--spec", "T:t:t")
    assert code == 1 and "witness: y1 x1 t x1^-1 y1^-1 t^-1" in out
    assert run(capsys, "danilevich", "--preset", "p2", "2", "--h", "y1 x1")[0] == 1
    assert built == []
    e3 = p2(3)
    specs = [SubgroupSpec("A", (e3.parse("y1 x1"),), frozenset({stable_gen(1)})),
             SubgroupSpec("T", (e3.parse("t"),), frozenset({OUTER}))]
    rep = free_product_oracle(specs, Group(e3), Bounds())
    assert (code, out) == (rep.verdict.exit, rep.render() + "\n")
    assert built == []
    assert run(capsys, "braid-phi", "--preset", "p2", "2", "--push", "x1")[0] == 0
    assert built == [gn(2)]


@pytest.mark.parametrize("option", [("--strategy", "random"), ("--seed", "1")], ids=lambda o: o[0])
def test_nf_has_one_strategy(capsys, option):
    # normal forms are unique on a confluent system, so nf takes no strategy
    with pytest.raises(SystemExit) as exc:
        main(["nf", "--preset", "gn", "3", *option, "x1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err


P2_RELATORS = {n: [e.relator for e in verify_braid_relations(n).entries if len(e.relator) <= 8]
               for n in (2, 3, 4)}


@pytest.mark.parametrize("n", sorted(P2_RELATORS))
@given(data=st.data())
def test_p2_eq_agrees_with_braid_equal_and_artin(n, data):
    # letters t, y1, x1, ..., y(n-1), x(n-1) and their inverses
    word = st.lists(st.sampled_from([s * g for g in range(1, 2 * n) for s in (1, -1)]),
                    max_size=6).map(tuple)
    u = data.draw(word)
    if data.draw(st.booleans()):
        v = data.draw(word)
    else:  # u with a relator of the layer inserted, so equal to u
        k = data.draw(st.integers(0, len(u)))
        v = u[:k] + data.draw(st.sampled_from(P2_RELATORS[n])) + u[k:]
    same = braid_equal(p2(n), u, v)
    assert same == artin_equal(u, v, n)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eq", "--preset", "p2", str(n),
                     format_word(u, p2(n).alphabet), format_word(v, p2(n).alphabet)])
    assert (code, out.getvalue()) == ((0, "true\n") if same else (1, "false\n"))


# p2(2) as an HNN extension of F(x1, t) with the stable letter y1, whose
# rules are not confluent: 3 of its 24 critical pairs are not joinable
BH2 = """\
base x1 t
stable y1
rel y1 : x1 ^ 1 = x1 ^ t^-1 x1^-1
rel y1 : t ^ 1 = t ^ x1^-1
"""
INCONCLUSIVE_EQ = "inconclusive: distinct normal forms, and the rules are not confluent\n"


def test_eq_on_a_non_confluent_system_says_false_only_by_an_image(tmp_path, capsys):
    nested, bh2 = tmp_path / "nested.txt", tmp_path / "bh2.txt"
    nested.write_text(NESTED)
    bh2.write_text(BH2)
    # the two reducts of one critical peak, and t and its conjugate by y1 x1,
    # which p2(2) shows equal
    assert run(capsys, "eq", "--file", str(nested), "y1 x1", "s x1^-1 y1^-1 x1 y1 x1 s^-1 y1") == (
        3, "", INCONCLUSIVE_EQ)
    assert run(capsys, "eq", "--file", str(bh2), "t", "y1 x1 t x1^-1 y1^-1") == (3, "", INCONCLUSIVE_EQ)
    assert run(capsys, "eq", "--preset", "p2", "2", "t", "y1 x1 t x1^-1 y1^-1") == (0, "true\n", "")
    # equal normal forms, and a kept image part (here F(X)) that differs, decide
    assert run(capsys, "eq", "--file", str(nested), "s^-12 y1 x1^12",
               "s^-11 x1^-1 y1^-1 x1^12 y1 x1 s^-1 y1") == (0, "true\n", "")
    assert run(capsys, "eq", "--file", str(nested), "s", "s^2") == (1, "false\n", "")


@pytest.fixture(scope="module")
def bh2_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bh2") / "bh2.txt"
    path.write_text(BH2)
    return str(path)


# words of p2(2) in its letters t, y1 and x1, whose names bh2.txt shares
P2_2_WORDS = st.lists(st.sampled_from([s * g for g in (1, 2, 3) for s in (1, -1)]), max_size=6).map(tuple)


@given(u=P2_2_WORDS, k=st.integers(0, 6), inserted=st.one_of(st.sampled_from(P2_RELATORS[2]), P2_2_WORDS))
@example(u=(1,), k=0, inserted=(2, 3, 1, -3, -2, -1))  # [y1 x1, t] t = y1 x1 t x1^-1 y1^-1
def test_bh2_eq_never_contradicts_the_braid_layer(bh2_path, u, k, inserted):
    v = u[:k] + inserted + u[k:]
    same = braid_equal(p2(2), u, v)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eq", "--file", bh2_path, *(format_word(w, p2(2).alphabet) for w in (u, v))])
    assert out.getvalue() != ("false\n" if same else "true\n")
    assert (code, err.getvalue()) == ((3, INCONCLUSIVE_EQ) if code == 3 else (1 - same, ""))


def test_rules_counts(capsys):
    code, out, _ = run(capsys, "rules", "--preset", "gn", "3")
    assert code == 0
    assert out.splitlines()[0] == "16 rules"
    assert "kind 3" in out and "->" in out


def test_confluence_critical_pairs(capsys):
    code, out, _ = run(capsys, "confluence", "--preset", "gn", "3")
    assert code == 0
    assert "24 checked: all joinable" in out


def test_confluence_random_probe(tmp_path, capsys):
    code, out, _ = run(capsys, "confluence", "--preset", "gn", "3",
                       "--random", "--seed", "5", "--trials", "40")
    assert code == 0
    assert "random probe: 40 trials" in out
    # the failure counts pin the letters random_word draws for each seed
    path = tmp_path / "nested.txt"
    path.write_text(NESTED)
    for seed, failures in (("0", 8), ("1", 5), ("2", 11)):
        code, out, _ = run(capsys, "confluence", "--file", str(path), "--random", "--seed", seed)
        assert code == 1
        assert out == (f"random probe: 200 trials x 5 strategies: {failures} failures\n"
                       "critical pairs: 26 checked: 9 non-joinable\n")


@pytest.mark.parametrize("source", ["gn 2", "gn 3", "gn 4", "handwritten", "nested"])
def test_confluence_random_passes_only_a_confluent_system(tmp_path, capsys, source):
    # on NESTED the probe draws no word on which two strategies disagree,
    # yet 9 of its 26 critical pairs do not join
    if source in ("handwritten", "nested"):
        path = tmp_path / f"{source}.txt"
        path.write_text(FILE_TEXT if source == "handwritten" else NESTED)
        argv = ("confluence", "--file", str(path))
    else:
        argv = ("confluence", "--preset", *source.split())
    plain = run(capsys, *argv)[0]
    probe = ("--random", "--trials", "20", "--max-len", "4", "--seed", "0")
    assert run(capsys, *argv, *probe)[0] == plain == (1 if source == "nested" else 0)
    code, out, _ = run(capsys, *argv, *probe, "--json")
    doc = json.loads(out)
    assert (code, doc["ok"], doc.get("non_joinable")) == (
        (1, False, 9) if source == "nested" else (0, True, None))


def test_confluence_on_a_long_conjugator_is_fast(tmp_path, capsys):
    # the critical pairs come from lhs of 2,002 letters
    path = tmp_path / "long.txt"
    path.write_text("base a b\nstable p\nrel p : a ^ b^2000 = a ^ b^2000\n")
    t0 = time.perf_counter()
    assert run(capsys, "confluence", "--file", str(path)) == (
        0, "critical pairs: 14 checked: all joinable\n", "")
    assert time.perf_counter() - t0 < 2


def test_file_source(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text(FILE_TEXT)
    code, out, _ = run(capsys, "rules", "--file", str(path))
    assert code == 0
    assert out.splitlines()[0] == "22 rules"
    code, out, _ = run(capsys, "confluence", "--file", str(path))
    assert code == 0
    assert "all joinable" in out


def test_file_with_a_stable_letter_as_base_generator(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("base y1\nstable x1 x2\nrel x1 : x2 ^ 1 = x2 ^ 1\n")
    code, out, err = run(capsys, "rules", "--file", str(path))
    assert (code, out) == (2, "")
    assert "x1:x2: unknown base generator x2" in err


def test_file_preset_line_is_a_parse_error(tmp_path, capsys):
    # a file names no preset: --preset is the one way to name gN or p2
    path = tmp_path / "pres.txt"
    path.write_text("preset gn 3\n")
    assert run(capsys, "rules", "--file", str(path)) == (
        2, "", "parse error: line 1: unknown directive 'preset'\n")


# --- certificates and oracles ---------------------------------------------------------

def test_certify_with_orbit_evidence(capsys):
    code, out, _ = run(capsys, "pingpong-certify", "--preset", "gn", "3",
                       "--spec", "A1:x1:x1", "--spec", "A2:x2:y1 x2",
                       "--evidence", "A1:orbit:x1", "--evidence", "A2:orbit:y1 x2")
    assert code == 0
    assert "certified" in out


def test_certify_without_evidence_is_inconclusive(capsys):
    code, out, _ = run(capsys, "pingpong-certify", "--preset", "gn", "3",
                       "--spec", "A1:x1:x1")
    assert code == 3
    assert "inconclusive" in out and "no evidence" in out


def test_certify_probe_evidence_stays_inconclusive(capsys):
    code, out, _ = run(capsys, "pingpong-certify", "--preset", "gn", "3",
                       "--spec", "A1:x1:x1", "--evidence", "A1:probe:4")
    assert code == 3
    assert "bounded probe only: pass" in out


def test_certify_overlapping_support_is_refuted(capsys):
    # only by a witness: the probe's hit y1 in <y1>
    code, out, _ = run(capsys, "pingpong-certify", "--preset", "gn", "3",
                       "--spec", "A1:x1:x1", "--spec", "B:x1:y1",
                       "--evidence", "A1:declared:external", "--evidence", "B:probe:4")
    assert code == 1
    assert out.startswith("verdict: refuted") and "[probe found witness y1]" in out
    # the overlap alone is a failed hypothesis: <x1> and <x2> generate their
    # free product, though their supports overlap; no witness is searched
    # for <x1> twice either
    for second in ("B:x1,x2:x2", "A2:x1:x1"):
        label = second.split(":")[0]
        code, out, _ = run(capsys, "pingpong-certify", "--preset", "gn", "3",
                           "--spec", "A1:x1:x1", "--spec", second,
                           "--evidence", "A1:declared:external", "--evidence", f"{label}:declared:external")
        assert code == 3
        assert out.startswith("verdict: inconclusive")
        assert f"FAIL support_disjoint[A1,{label}]  [x1]\n" in out


def test_certify_json_document(capsys):
    code, out, _ = run(capsys, "pingpong-certify", "--preset", "gn", "3", "--json",
                       "--spec", "A1:x1:x1", "--evidence", "A1:orbit:x1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["verdict"] == "certified"
    assert any(c["name"].startswith("base_intersection") for c in doc["conditions"])


def test_orbit_evidence_must_cover_the_spec(capsys):
    # A = B = <y1> meet the base, though the orbits of x1 and x2 do not
    code, out, _ = run(capsys, "pingpong-certify", "--preset", "gn", "3",
                       "--spec", "A:x1:y1", "--spec", "B:x2:y1",
                       "--evidence", "A:orbit:x1", "--evidence", "B:orbit:x2")
    assert code == 3
    assert out.startswith("verdict: inconclusive")
    assert ("  FAIL base_intersection_trivial[A]  "
            "[orbit certificate: inconclusive (y1 not in the orbit of x1)]\n") in out
    code, out, _ = run(capsys, "pingpong-oracle", "--preset", "gn", "3",
                       "--spec", "A:x1:y1", "--spec", "B:x2:y1")
    assert code == 1
    assert "  witness: 1\n" in out
    # the orbit of x1 is x1^{+-1} alone; under p2, where phi would move it
    # in the braid layer, the command refuses
    certify = ("--spec", "A:x1:y1 x1 y1^-1, x1^-1", "--evidence", "A:orbit:x1")
    code, out, _ = run(capsys, "pingpong-certify", "--preset", "gn", "3", *certify)
    assert code == 3
    assert "(y1 x1 y1^-1 not in the orbit of x1)" in out
    assert run(capsys, "pingpong-certify", "--preset", "p2", "3", *certify) == (2, "", REFUSAL)


def test_certify_answers_in_gn_only(capsys):
    # the specs certify in g3, whose map to the braid layer has a kernel: there
    # the oracle finds x1^-1 y1 x1 x2 x1^-1 y1^-1 x1 x2^-1 = 1, so under p2 the
    # certificate would be wrong, and the command refuses instead
    specs = ("--spec", "A:x1:x1^-1 y1 x1", "--spec", "B:x2:x2")
    evidence = ("--evidence", "A:declared:ok", "--evidence", "B:orbit:x2")
    code, out, _ = run(capsys, "pingpong-certify", "--preset", "gn", "3", *specs, *evidence)
    assert code == 0 and out.startswith("verdict: certified")
    assert run(capsys, "pingpong-certify", "--preset", "p2", "3", *specs, *evidence) == (
        2, "", REFUSAL)
    code, out, _ = run(capsys, "pingpong-oracle", "--preset", "p2", "3", *specs)
    assert code == 1 and "  witness: x1^-1 y1 x1 x2 x1^-1 y1^-1 x1 x2^-1\n" in out


def test_vanishing_stable_projection_is_inconclusive(capsys):
    code, out, _ = run(capsys, "pingpong-certify", "--preset", "gn", "3",
                       "--spec", "A:x1:x1 y1 x1^-1 y1^-1",
                       "--evidence", "A:orbit:x1 y1 x1^-1 y1^-1")
    assert code == 3
    assert out.endswith("  FAIL base_intersection_trivial[A]  "
                        "[orbit certificate: inconclusive (stable projection is empty)]\n")


def test_oracle_pass_and_fail(capsys):
    code, out, _ = run(capsys, "pingpong-oracle", "--preset", "gn", "3",
                       "--spec", "A1:x1:x1", "--spec", "A2:x2:y1 x2",
                       "--syllables", "4")
    assert code == 0
    assert "pass" in out
    code, out, _ = run(capsys, "pingpong-oracle", "--preset", "gn", "3",
                       "--spec", "A1:x1:x1", "--spec", "B1:x1:x1",
                       "--syllables", "4")
    assert code == 1
    assert "A1: (x1)" in out and "B1: (x1)^-1" in out


@pytest.mark.parametrize("texts, runs", [
    (("A:x1:x1, y1 x1 y1^-1", "B:x2:x2"), 0),
    # the witness, the relator x1 y2 x1^-1 y2^-1, holds a redex, and so
    # do its factors x1 y2 and (y2 x1)^-1
    (("A:x1,x2:x1 y2", "B:x1,x2:y2 x1"), 3),
])
def test_oracle_cli_and_library_share_the_rewriting_decider(texts, runs, monkeypatch, capsys):
    # the CLI's Group and the library's RuleSystem both decide by
    # RuleSystem.is_trivial, so they run the engine equally often:
    # twice per critical pair, when the first nonempty normal form asks
    # whether the rules are confluent, and once per product holding a redex
    runs += 2 * len(critical_pairs(RuleSystem(gn(3))))
    calls, engine = [], hnnfree.rewrite._leftmost
    monkeypatch.setattr(hnnfree.rewrite, "_leftmost", lambda *a: calls.append(a) or engine(*a))
    code, out, _ = run(capsys, "pingpong-oracle", "--preset", "gn", "3",
                       "--spec", texts[0], "--spec", texts[1])
    by_cli = len(calls)
    g3, specs = gn(3), []
    for text in texts:
        label, support, gens = text.split(":")
        specs.append(SubgroupSpec(label, tuple(g3.parse(g) for g in gens.split(",")),
                                  frozenset(g3.alphabet.gen(s) for s in support.split(","))))
    rep = free_product_oracle(specs, RuleSystem(g3), Bounds())
    assert (by_cli, len(calls) - by_cli) == (runs, runs)
    assert (code, out) == (rep.verdict.exit, rep.render() + "\n")


def test_oracle_budget_inconclusive(capsys):
    code, out, _ = run(capsys, "pingpong-oracle", "--preset", "gn", "3",
                       "--spec", "A1:x1:x1", "--spec", "A2:x2:y1 x2",
                       "--max-products", "5")
    assert code == 3
    assert "budget" in out


# Exact stdout and exit code of every report-emitting command, text and --json.
# Each case in cli_golden.txt is a "$ hnnfree ARGS" line, an "exit N" line and
# the stdout, up to the next case.
GOLDEN = re.findall(r"^\$ hnnfree ([^\n]*)\nexit (\d+)\n(.*?)(?=^\$ |\Z)",
                    (Path(__file__).parent / "cli_golden.txt").read_text(),
                    re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("args,exit_code,stdout", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_output_is_pinned(capsys, args, exit_code, stdout):
    assert run(capsys, *shlex.split(args)) == (int(exit_code), stdout, "")


def test_golden_cases_cover_every_report():
    assert len(GOLDEN) == 22
    assert {shlex.split(a)[0] for a, _, _ in GOLDEN} == {
        "pingpong-certify", "pingpong-oracle", "braid-check-free", "danilevich", "braid-verify"}


# --- braid layer ----------------------------------------------------------------------

def test_braid_verify_rank_two(capsys):
    code, out, _ = run(capsys, "braid-verify", "--preset", "p2", "2")
    assert code == 0
    assert "all trivial" in out and "via push" in out


def test_braid_verify_rank_three_uses_both_routes(capsys):
    code, out, _ = run(capsys, "braid-verify", "--preset", "p2", "3")
    assert code == 0
    assert "via split" in out
    assert "relator_image_trivial" in out and "FAIL" in out
    assert "do not descend" in out


def test_braid_verify_json(capsys):
    code, out, _ = run(capsys, "braid-verify", "--preset", "p2", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["relations"]["ok"] is True
    assert doc["relations"]["all_settled_by_push"] is False
    assert doc["extension"]["ok"] is False


def test_braid_phi_power_and_push(capsys):
    code, out, _ = run(capsys, "braid-phi", "--preset", "p2", "2", "x1")
    assert code == 0
    assert out.strip() == "y1 x1 y1^-1"
    code, out, _ = run(capsys, "braid-phi", "--preset", "p2", "2", "--k", "-1", "x1")
    assert code == 0
    assert out.strip() == "x1^-1 y1^-1 x1 y1 x1"
    code, out, _ = run(capsys, "braid-phi", "--preset", "p2", "2", "--push", "x1 t y1")
    assert code == 0
    assert "semidirect: (y1 x1, t^1)" in out
    assert "splitting:" in out and "trivial: false" in out


def test_braid_names_accepted(capsys):
    code, out, _ = run(capsys, "braid-phi", "--preset", "p2", "3", "A1_4")
    assert code == 0
    assert out.strip() == "y1 x1 y1^-1"


def test_braid_check_free_example(capsys):
    code, out, _ = run(capsys, "braid-check-free", "--preset", "p2", "3",
                       "--w", "y1 x1", "--w", "x2")
    assert code == 1
    assert "refuted" in out and "[y1 x1, t] = 1" in out


def test_braid_check_free_certified(capsys):
    code, out, _ = run(capsys, "braid-check-free", "--preset", "p2", "3",
                       "--w", "x1", "--w", "x2")
    assert code == 0
    assert "certified" in out


def test_danilevich_verdicts(capsys):
    code, out, _ = run(capsys, "danilevich", "--preset", "p2", "2", "--h", "x1")
    assert code == 0
    code, out, _ = run(capsys, "danilevich", "--preset", "p2", "2", "--h", "y1 x1")
    assert code == 1
    assert "y1 x1 t x1^-1 y1^-1 t^-1" in out
    code, out, _ = run(capsys, "danilevich", "--preset", "p2", "2",
                       "--h", "x1", "--max-products", "3")
    assert code == 3


# --- usage and parse errors ------------------------------------------------------------

def test_word_parse_error(capsys):
    code, _, err = run(capsys, "nf", "--preset", "gn", "3", "y1 zz")
    assert code == 2
    assert "parse error" in err and "column" in err


def test_missing_source(capsys):
    code, _, err = run(capsys, "nf", "x1")
    assert code == 2
    assert "presentation source" in err


def test_conflicting_sources(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text(FILE_TEXT)
    code, _, err = run(capsys, "nf", "--preset", "gn", "3", "--file", str(path), "x1")
    assert code == 2


def test_bad_preset(capsys):
    code, _, err = run(capsys, "nf", "--preset", "zz", "3", "x1")
    assert code == 2
    code, _, err = run(capsys, "nf", "--preset", "gn", "1", "x1")
    assert code == 2


def test_braid_command_needs_p2(capsys):
    code, _, err = run(capsys, "braid-verify", "--preset", "gn", "3")
    assert code == 2
    assert "p2" in err


def test_bad_spec_and_evidence_format(capsys):
    code, _, err = run(capsys, "pingpong-certify", "--preset", "gn", "3",
                       "--spec", "A1:x1")
    assert code == 2
    code, _, err = run(capsys, "pingpong-certify", "--preset", "gn", "3",
                       "--spec", "A1:x1:x1", "--evidence", "A1:psychic:yes")
    assert code == 2
    code, _, err = run(capsys, "pingpong-certify", "--preset", "gn", "3",
                       "--spec", "A1:x1:x1", "--evidence", "ZZ:declared:proof")
    assert code == 2


G3 = ("--preset", "gn", "3")
TWO_SPECS = ("pingpong-oracle", *G3, "--spec", "A:x1:x1", "--spec", "B:x2:x2")


@pytest.mark.parametrize("argv,message", [
    (("pingpong-certify", *G3, "--spec", "A:x1:y1", "--spec", "A:x2:x2",
      "--evidence", "A:orbit:x2"), "--spec label 'A' is repeated"),
    (("pingpong-oracle", *G3, "--spec", "A:x1:x1", "--spec", "A:x2:x2"),
     "--spec label 'A' is repeated"),
    ((*TWO_SPECS, "--syllables", "0"), "--syllables must be at least 1, got 0"),
    ((*TWO_SPECS, "--exp-range", "-1"), "--exp-range must be at least 1, got -1"),
    ((*TWO_SPECS, "--max-products", "-1"), "--max-products must be at least 0, got -1"),
    (("danilevich", "--preset", "p2", "2", "--h", "x1", "--exp-range", "0"),
     "--exp-range must be at least 1, got 0"),
    (("confluence", *G3, "--random", "--trials", "-1"), "--trials must be at least 1, got -1"),
    (("confluence", *G3, "--random", "--trials", "0"), "--trials must be at least 1, got 0"),
    (("confluence", *G3, "--random", "--max-len", "0"), "--max-len must be at least 1, got 0"),
    (("pingpong-certify", *G3, "--spec", "A:x1:x1", "--evidence", "A:probe:0"),
     "probe evidence needs a length bound, got '0'"),
    (("pingpong-certify", *G3, "--spec", "A1:x1:x1", "--spec", "B:x2:y1",
      "--evidence", "A1:orbit:x1", "--evidence", "B:probe:4", "--evidence", "B:declared:ok"),
     "--evidence label 'B' is repeated"),
])
def test_bad_input_is_a_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_bad_orbit_word_is_a_parse_error(capsys):
    # the same message as for a bad --spec word
    for argv in (("pingpong-certify", *G3, "--spec", "A:x1:x1", "--evidence", "A:orbit:zz"),
                 ("pingpong-certify", *G3, "--spec", "A:x1:zz")):
        assert run(capsys, *argv) == (2, "", "parse error: column 1: unknown generator 'zz'\n")


def test_zero_product_budget_is_allowed(capsys):
    code, out, _ = run(capsys, *TWO_SPECS, "--max-products", "0")
    assert code == 3
    assert out == "inconclusive  (products checked: 0)\n  note: budget of 0 products exceeded\n"


def test_presentation_file_error_carries_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("base y1\nstable x1\nrel x1 : zz ^ y1 = zz ^ y1\n")
    code, _, err = run(capsys, "rules", "--file", str(path))
    assert code == 2
    assert "line 3" in err


def test_repeated_generator_name_is_a_parse_error(tmp_path, capsys):
    for text, msg in (("base a a\nstable s\n", "line 1: duplicate generator name 'a'"),
                      ("base a b\nstable a\n", "line 2: duplicate generator name 'a'")):
        path = tmp_path / "dup.txt"
        path.write_text(text)
        code, out, err = run(capsys, "rules", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err == f"parse error: {msg}\n"


def test_braid_name_outside_the_layer_is_a_usage_error(capsys):
    code, out, err = run(capsys, "braid-phi", "--preset", "p2", "3", "A1_2")
    assert code == 2
    assert out == ""
    assert err == "error: braid generator A1_2 lies outside the rank-3 layer\n"


def test_untraced_nf_reports_the_traced_step_count(capsys):
    for word in ("x1^30 y2^30", "x2 y2^-1 y1 x1 x1^-1 y2", "y1"):
        code, out, _ = run(capsys, "nf", "--preset", "gn", "3", "--json", word)
        assert code == 0
        steps = json.loads(out)["steps"]
        code, out, _ = run(capsys, "nf", "--preset", "gn", "3", "--trace", word)
        assert code == 0
        assert steps == len(out.splitlines()) - 2
    assert steps == 0


def test_nf_counts_every_swap_of_a_run(capsys):
    # y2 moves past the run x1^200 in one batch of steps, each counted
    for n in ("3", "6"):
        code, out, _ = run(capsys, "nf", "--preset", "gn", n, "--json", "x1^200 y2^200")
        assert code == 0
        doc = json.loads(out)
        assert (doc["normal_form"], doc["steps"]) == ("y2^200 x1^200", 200 * 200)


def test_step_cap_is_inconclusive(monkeypatch, capsys):
    # traced or not, the cap falls inside the first batch of swaps of each
    # nf, and after a single step at x2 y2^-1 y1, whose one kind-3 step no
    # batch takes; the random probe's first sampled run of up to 40 letters
    # takes more than 10 steps
    msg = "inconclusive: rewrite step cap {} exceeded\n"
    monkeypatch.setattr(hnnfree.rewrite, "STEP_CAP", 10)
    for argv in (("nf", "--preset", "gn", "3", "x1^20 y2^20"),
                 ("nf", "--preset", "gn", "6", "x1^200 y2^200"),
                 ("confluence", "--preset", "gn", "3", "--random", "--max-len", "40"),
                 ("nf", "--preset", "gn", "3", "--trace", "x1^20 y2^20"),
                 ("eq", "--preset", "gn", "3", "x1^20 y2^20", "y2^20 x1^20")):
        assert run(capsys, *argv) == (3, "", msg.format(10))
    monkeypatch.setattr(hnnfree.rewrite, "STEP_CAP", 0)
    assert run(capsys, "nf", "--preset", "gn", "3", "x2 y2^-1 y1") == (3, "", msg.format(0))


def test_eq_refuted_by_the_image_takes_no_step(monkeypatch, capsys):
    # the x1 sums differ, so eq answers false before it rewrites, and no
    # step cap can trip on the pair
    monkeypatch.setattr(hnnfree.rewrite, "STEP_CAP", 10)
    assert run(capsys, "eq", "--preset", "gn", "3", "x1^20 y2^20", "y2^20 x1^21") == (1, "false\n", "")


def test_trace_cap_is_inconclusive(monkeypatch, capsys):
    # x1^2 y2^2 takes 4 steps, each storing a nu of 3 coordinates: 12 in
    # all; the random probe traces every sampled run
    monkeypatch.setattr(hnnfree.rewrite, "TRACE_CAP", 11)
    for argv in (("nf", "--preset", "gn", "3", "--trace", "x1^2 y2^2"),
                 ("confluence", "--preset", "gn", "3", "--random")):
        assert run(capsys, *argv) == (3, "", "inconclusive: rewrite trace cap 11 exceeded\n")
    monkeypatch.setattr(hnnfree.rewrite, "TRACE_CAP", 12)
    code, out, _ = run(capsys, "nf", "--preset", "gn", "3", "--trace", "x1^2 y2^2")
    assert code == 0
    assert len(out.splitlines()) == 6
    # the untraced engine keeps no trace
    monkeypatch.setattr(hnnfree.rewrite, "TRACE_CAP", 0)
    assert run(capsys, "nf", "--preset", "gn", "3", "x1^2 y2^2") == (0, "y2^2 x1^2\n", "")


@pytest.mark.parametrize("n", ["3", "6"])
def test_caps_trip_inside_a_traced_batch_of_swaps(monkeypatch, n, capsys):
    # the first y2 passes the x1^200 in one batch (gn(6): all but one), the
    # second in the next; every step stores a nu of 201 coordinates.  Each
    # step checks the step cap before it stores its nu
    step = "inconclusive: rewrite step cap {} exceeded\n"
    trace = "inconclusive: rewrite trace cap {} exceeded\n"
    argv = ("nf", "--preset", "gn", n, "--trace", "x1^200 y2^200")
    for step_cap, trace_cap, msg in ((150, 10 ** 7, step.format(150)),
                                     (250, 10 ** 7, step.format(250)),
                                     (10 ** 7, 201 * 150, trace.format(201 * 150)),
                                     (10 ** 7, 201 * 250, trace.format(201 * 250)),
                                     (150, 201 * 150, step.format(150)),
                                     (150, 201 * 150 - 1, trace.format(201 * 150 - 1))):
        monkeypatch.setattr(hnnfree.rewrite, "STEP_CAP", step_cap)
        monkeypatch.setattr(hnnfree.rewrite, "TRACE_CAP", trace_cap)
        assert run(capsys, *argv) == (3, "", msg)


def test_phi_power_cap_is_inconclusive(monkeypatch, capsys):
    # phi^k(x1^j) = z^k x1^j z^-k, z = y1 x1, holds 4k + j - 2 letters: 80
    # for k = 6 and j = 58; one image of x1 has 4k + 1 before reduction
    monkeypatch.setattr(hnnfree.words, "WORD_CAP", 80)
    for argv in (("braid-phi", "--preset", "p2", "3", "--k", "6", "x1^59"),
                 ("braid-phi", "--preset", "p2", "3", "--k", "20", "x1"),
                 ("braid-phi", "--preset", "p2", "2", "--k", "-40", "x1"),
                 ("braid-phi", "--preset", "p2", "3", "--k", str(10 ** 12), "x1")):
        assert run(capsys, *argv) == (3, "", "inconclusive: phi power cap 80 exceeded\n")
    for k, word in (("6", "x1^58"), ("19", "x1")):
        assert run(capsys, "braid-phi", "--preset", "p2", "3", "--k", k, word)[0] == 0


def test_phi_power_of_a_fixed_word_returns_at_once(capsys):
    # phi fixes the empty word and y1 x1, so every power gives them back
    for k in (10 ** 12, -10 ** 12):
        for word in ("1", "y1 x1"):
            t0 = time.perf_counter()
            argv = ("braid-phi", "--preset", "p2", "2", "--k", str(k), word)
            assert run(capsys, *argv) == (0, word + "\n", "")
            assert time.perf_counter() - t0 < 1.0


def test_push_cap_is_inconclusive(capsys):
    # each t^300 x1 t^-300 x1 adds 1,202 letters and cancels 2 against the
    # last: 999,602 held after 833 of them, 1,000,802 after 834
    argv = ("braid-phi", "--preset", "p2", "2", "--push")
    block = lambda m: " ".join(["t^300 x1 t^-300 x1"] * m)
    # one image of 1,000,001 letters, before reduction, is not built
    for word in (block(834), "t^250000 x1"):
        assert run(capsys, *argv, word) == (3, "", "inconclusive: phi power cap 1000000 exceeded\n")
    assert run(capsys, *argv, block(833))[0] == 0


def test_word_cap_is_inconclusive(monkeypatch, capsys):
    monkeypatch.setattr(hnnfree.words, "WORD_CAP", 10)
    for argv in (("nf", *G3, "x1^11"),
                 ("nf", *G3, "x1^5 y2^-5 x1"),
                 ("nf", *G3, "y1 x1^99999999999999"),
                 ("eq", *G3, "x1", "y1 y2^10"),
                 ("braid-phi", "--preset", "p2", "3", "A1_4^11"),
                 ("pingpong-certify", *G3, "--spec", "A:x1:x1^11")):
        assert run(capsys, *argv) == (3, "", "inconclusive: word length cap 10 exceeded\n")
    assert run(capsys, "nf", *G3, "x1^5 y2^5") == (0, "y2^5 x1^5\n", "")


def test_random_confluence_max_len_is_capped(monkeypatch, capsys):
    # the cap stops the probe before it draws a word
    monkeypatch.setattr(hnnfree.words, "WORD_CAP", 10)
    argv = ("confluence", *G3, "--random", "--trials", "1", "--max-len")
    assert run(capsys, *argv, "11") == (3, "", "inconclusive: word length cap 10 exceeded\n")
    assert run(capsys, *argv, "10")[0] == 0


def test_rank_cap_is_inconclusive(capsys):
    # the cap stops each rank before gn or p2 builds anything
    msg = f"inconclusive: preset rank cap {hnnfree.presentation.RANK_CAP} exceeded\n"
    for argv in (("nf", "--preset", "gn", str(hnnfree.presentation.RANK_CAP + 1), "x1"),
                 ("eq", "--preset", "p2", str(10 ** 12), "x1", "x1")):
        assert run(capsys, *argv) == (3, "", msg)


def test_x_part_cap_is_inconclusive(monkeypatch, capsys):
    monkeypatch.setattr(hnnfree.braid, "X_PART_CAP", 10)
    for argv in (("braid-phi", "--preset", "p2", "3", "--push", "x1 y1^3"),
                 ("braid-check-free", "--preset", "p2", "3", "--w", "x1 y1^3", "--w", "x2")):
        assert run(capsys, *argv) == (3, "", "inconclusive: splitting x-part cap 10 exceeded\n")
    # an oracle walk that stops on it reports the products decided before
    for argv in (("danilevich", "--preset", "p2", "3", "--h", "x1 y1 y1"),
                 ("pingpong-oracle", "--preset", "p2", "3",
                  "--spec", "H:x1:x1 y1 y1", "--spec", "T:t:t")):
        assert run(capsys, *argv) == (3, "inconclusive  (products checked: 207)\n"
                                         "  note: splitting x-part cap 10 exceeded\n", "")


def test_exp_range_cap_is_inconclusive(monkeypatch, capsys):
    # each oracle checks the cap before it builds any table
    monkeypatch.setattr(hnnfree.words, "EXP_RANGE_CAP", 4)
    pair = ("pingpong-oracle", *G3, "--spec", "A:x1:x1, y1 x1 y1^-1", "--spec", "B:x2:x2")
    for argv in ((*pair, "--exp-range", "5"),
                 (*pair, "--exp-range", str(10 ** 12), "--max-products", "1"),
                 ("pingpong-certify", *G3, "--spec", "A1:x1:x1", "--evidence", "A1:probe:5"),
                 ("danilevich", "--preset", "p2", "2", "--h", "x1", "--exp-range", "5")):
        assert run(capsys, *argv) == (3, "", "inconclusive: exponent range cap 4 exceeded\n")
    assert run(capsys, *pair, "--exp-range", "4", "--syllables", "2")[0] == 0


@pytest.mark.parametrize("argv,err", [
    (("eq", "--preset", "p2", "3", "A1_4   zz", "1"), "column 8: unknown generator 'zz'"),
    (("eq", "--preset", "p2", "3", "x1  y1*zz", "1"), "column 8: unknown generator 'zz'"),
    (("nf", "--preset", "gn", "3", "x1  y1*zz"), "column 8: unknown generator 'zz'"),
    (("eq", "--preset", "p2", "3", " zz", "1"), "column 2: unknown generator 'zz'"),
    (("eq", "--preset", "p2", "3", "A1_4*A1_3  zz", "1"), "column 12: unknown generator 'zz'"),
    (("eq", "--preset", "p2", "3", "A1_3 A2_3^x2", "1"), "column 6: bad term 'A2_3^x2'"),
    (("braid-phi", "--preset", "p2", "3", "A1_4^x"), "column 1: bad term 'A1_4^x'"),
])
def test_p2_parse_errors_name_the_text_as_typed(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", f"parse error: {err}\n")


def test_product_cap_is_inconclusive(monkeypatch, capsys):
    # without a smaller --max-products, every oracle walk stops at the cap,
    # and prints its report
    monkeypatch.setattr(hnnfree.words, "PRODUCT_CAP", 50)
    pair = ("pingpong-oracle", *G3, "--spec", "A:x1:x1, y1 x1 y1^-1", "--spec", "B:x2:x2")
    capped = "inconclusive  (products checked: 50)\n  note: oracle product cap 50 exceeded\n"
    for argv in (pair, (*pair, "--max-products", "50"), (*pair, "--max-products", "51"),
                 ("danilevich", "--preset", "p2", "2", "--h", "x1", "--syllables", "6")):
        assert run(capsys, *argv) == (3, capped, "")
    code, out, err = run(capsys, "pingpong-certify", *G3, "--spec", "A1:x1:x1, y1 x1 y1^-1",
                         "--evidence", "A1:probe:30")
    assert (code, err) == (3, "")
    assert out.endswith("  FAIL base_intersection_trivial[A1]  "
                        "[bounded probe only: inconclusive (oracle product cap 50 exceeded)]\n")
    code, out, _ = run(capsys, *pair, "--max-products", "49")
    assert code == 3 and out.endswith("note: budget of 49 products exceeded\n")


@pytest.mark.parametrize("argv", [("nf", "--preset", "gn", "6", "--trace", "x1^30 y2^30"),
                                  ("rules", "--preset", "gn", "20", "--json")])
def test_closed_stdout_ends_quietly(argv):
    # each output is over 100 kB, more than a pipe holds, so the command is
    # still writing when the reader closes its end
    root = Path(__file__).parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "hnnfree.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) in (0, 1, 2, 3)
    assert err == b""


def test_p2_eq_splits_only_the_reduced_quotient(monkeypatch, capsys):
    # unreduced, w^-1 w and w w^-1 pass y1^3 over x1 and leave x-parts of
    # more than ten letters
    monkeypatch.setattr(hnnfree.braid, "X_PART_CAP", 10)
    ext = p2(4)
    for text in ("x1 y1^3", "y1^3 x1"):
        assert run(capsys, "eq", "--preset", "p2", "4", text, text) == (0, "true\n", "")
        w = ext.parse(text)
        assert braid_trivial(ext, w + invert(w)) and braid_trivial(ext, invert(w) + w)


def test_p2_eq_splits_a_cyclic_reduction(monkeypatch, capsys):
    # R C and C are equal, as R is a relator.  Split as it stands, C^-1 R C
    # has an x-part of far more than a thousand letters; its cyclic
    # reduction R has a short one
    monkeypatch.setattr(hnnfree.braid, "X_PART_CAP", 1_000)
    r = "y1^-1 x2 y1 x1 t x1^-1 t^-1 x2^-1 t x1 t^-1 x1^-1"
    c = "y1 x3 y3^-1 y2 " * 5
    assert run(capsys, "eq", "--preset", "p2", "4", f"{r} {c}", c) == (0, "true\n", "")
    ext = p2(4)
    assert braid_equal(ext, ext.parse(f"{r} {c}"), ext.parse(c))


def test_default_x_part_cap_stops_an_exponential_push(capsys):
    # the x-part of this [w, t] grows about 14-fold per (y1 y3^-1 y2) block
    k = 6
    w = "y1 y3^-1 y2 " * k + "x3 " + "y2^-1 y3 y1^-1 " * k
    w_inv = "y1 y3^-1 y2 " * k + "x3^-1 " + "y2^-1 y3 y1^-1 " * k
    code, out, err = run(capsys, "braid-phi", "--preset", "p2", "4", "--push",
                         f"{w} t {w_inv} t^-1")
    assert code == 3
    assert out == ""
    assert err == f"inconclusive: splitting x-part cap {hnnfree.braid.X_PART_CAP} exceeded\n"


def test_file_generator_names_reach_every_message(tmp_path, capsys):
    path = tmp_path / "own.txt"
    path.write_text("base a b\nstable p q\nrel p : a ^ 1 = a ^ 1\n")
    code, out, _ = run(capsys, "pingpong-certify", "--file", str(path),
                       "--spec", "A:p:p", "--spec", "B:p:q")
    assert code == 3
    assert "FAIL support_disjoint[A,B]  [p]\n" in out
    assert "FAIL support_contains_generators[B]  [q in q]\n" in out
    code, out, _ = run(capsys, "pingpong-certify", "--file", str(path),
                       "--spec", "A:p:p a p^-1", "--evidence", "A:probe:2")
    assert code == 1
    assert "[probe found witness p a p^-1]" in out
    code, out, _ = run(capsys, "pingpong-oracle", "--file", str(path),
                       "--spec", "A:p:p b", "--spec", "B:q:b^-1 p^-1", "--syllables", "3")
    assert code == 1
    assert out.splitlines()[-1] == "  factors: A: (p b) | B: (b^-1 p^-1)"
    path.write_text("base a b\nstable p q\nrel p : a ^ a = a ^ 1\n")
    code, out, err = run(capsys, "rules", "--file", str(path))
    assert code == 2
    assert err == "parse error: line 3: p:a: w begins with y^{+-1}\n"


def test_file_generator_names_reach_the_projection_error(tmp_path, capsys):
    path = tmp_path / "own.txt"
    path.write_text("base a b c\nstable p q\nrel p : a ^ b = a ^ c\n")
    assert run(capsys, "pingpong-certify", "--file", str(path),
               "--spec", "A:p:p", "--evidence", "A:orbit:p") == (
        2, "", "error: orbit evidence unavailable here: direct-product projection "
               "undefined: association (a) of p has two distinct conjugators\n")


def test_base_support_letter_is_spelled_as_typed(tmp_path, capsys):
    path = tmp_path / "own.txt"
    path.write_text("base a b c\nstable p q\nrel p : a ^ b = a ^ c\n")
    for command in ("pingpong-certify", "pingpong-oracle"):
        assert run(capsys, command, "--file", str(path), "--spec", "A:a:a") == (
            2, "", "error: support must consist of stable letters, got a\n")


def test_repeated_p2_commands_keep_the_braid_caches_bounded(capsys):
    argv = ("braid-phi", "--preset", "p2", "4", "--push", "x1 y2 t x3^-1 y1")
    assert run(capsys, *argv)[0] == 0
    size = hnnfree.braid._system.cache_info().currsize
    for _ in range(300):
        run(capsys, *argv)
    assert hnnfree.braid._system.cache_info().currsize == size


def test_danilevich_rejects_outer_generator(capsys):
    code, _, err = run(capsys, "danilevich", "--preset", "p2", "2", "--h", "x1 t")
    assert code == 2
    assert "outer" in err


# Exact argparse output: help of the program and of every command, and usage
# errors.  Each case in cli_usage.txt is a "$ hnnfree ARGS" line, an
# "exit N STREAM" line and the text on that stream; the other stream is
# empty.  The layout is argparse's at 80 columns, and may differ between
# Python versions.
USAGE = re.findall(r"^\$ hnnfree ?([^\n]*)\nexit (\d+) (stdout|stderr)\n(.*?)(?=^\$ |\Z)",
                   (Path(__file__).parent / "cli_usage.txt").read_text(),
                   re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("args,exit_code,stream,text", USAGE, ids=[u[0] for u in USAGE])
def test_usage_output_is_pinned(monkeypatch, capsys, args, exit_code, stream, text):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(args))
    cap = capsys.readouterr()
    want = (text, "") if stream == "stdout" else ("", text)
    assert (exc.value.code, cap.out, cap.err) == (int(exit_code), *want)


def test_usage_cases_cover_every_command():
    cases = {args: text for args, _, _, text in USAGE}
    listed = re.search(r"\{([\w,-]+)\}", cases["--help"]).group(1).split(",")
    assert [shlex.split(a)[0] for a in cases if a.endswith(" --help")] == listed
    assert {"", "bogus", "danilevich --bogus"} <= set(cases)

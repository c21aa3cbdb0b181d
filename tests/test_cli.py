import json
import re
import shlex
from pathlib import Path

import pytest

import hnnfree.braid
import hnnfree.rewrite
from hnnfree.cli import main

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
        assert out == f"random probe: 200 trials x 5 strategies: {failures} failures\n"


def test_file_source(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text(FILE_TEXT)
    code, out, _ = run(capsys, "rules", "--file", str(path))
    assert code == 0
    assert out.splitlines()[0] == "22 rules"
    code, out, _ = run(capsys, "confluence", "--file", str(path))
    assert code == 0
    assert "all joinable" in out


def test_file_preset_line_reaches_braid_layer(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("preset p2 2\n")
    code, out, _ = run(capsys, "braid-phi", "--file", str(path), "x1")
    assert code == 0
    assert out.strip() == "y1 x1 y1^-1"


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
    code, out, _ = run(capsys, "pingpong-certify", "--preset", "gn", "3",
                       "--spec", "A1:x1:x1", "--spec", "A2:x1:x1",
                       "--evidence", "A1:declared:external", "--evidence", "A2:declared:external")
    assert code == 1
    assert "refuted" in out


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
    # under p2 the orbit follows phi: phi(x1) = y1 x1 y1^-1, but x1 y1^-1 is no image
    certify_p2 = ("pingpong-certify", "--preset", "p2", "3", "--evidence", "A:orbit:x1")
    code, out, _ = run(capsys, *certify_p2, "--spec", "A:x1:y1 x1 y1^-1, x1^-1")
    assert code == 0
    code, out, _ = run(capsys, *certify_p2, "--spec", "A:x1:x1 y1^-1")
    assert code == 3
    assert "(x1 y1^-1 not in the orbit of x1)" in out


def test_certify_reads_words_in_the_presented_group(capsys):
    # t lies outside the group the ping-pong theorem speaks of: <t> * <y1 x1> is
    # not free (pingpong-oracle finds t y1 x1 t^-1 x1^-1 y1^-1 = 1), so a
    # certificate with t in it would be wrong
    p2_2 = ("pingpong-certify", "--preset", "p2", "2")
    code, out, err = run(capsys, *p2_2, "--spec", "A:t:t", "--spec", "B:x1:y1 x1",
                         "--evidence", "A:declared:ok", "--evidence", "B:orbit:y1 x1")
    assert (code, out, err) == (2, "", "error: unknown support letter 't' in spec 'A'\n")
    # A2_3 names t at rank 2, and A3_4 is outside the rank-2 layer
    code, out, err = run(capsys, *p2_2, "--spec", "A:x1:A2_3", "--evidence", "A:declared:ok")
    assert (code, out, err) == (2, "", "parse error: column 1: unknown generator 't'\n")
    code, out, err = run(capsys, *p2_2, "--spec", "A:x1:A3_4", "--evidence", "A:orbit:x1")
    assert (code, out, err) == (2, "", "error: braid generator A3_4 lies outside the rank-2 layer\n")
    code, out, err = run(capsys, *p2_2, "--spec", "A:x1:x1", "--evidence", "A:orbit:t")
    assert code == 2 and out == ""
    assert err.endswith("unknown generator 't'\n")
    # a braid name of an x or a y still reads
    code, out, _ = run(capsys, "pingpong-certify", "--preset", "p2", "3",
                       "--spec", "A:x1:A1_4", "--evidence", "A:orbit:x1")
    assert code == 0
    assert out.startswith("verdict: certified")


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
])
def test_bad_input_is_a_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


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


def test_step_cap_is_inconclusive(monkeypatch, capsys):
    monkeypatch.setattr(hnnfree.rewrite, "STEP_CAP", 10)
    for argv in (("nf", "--preset", "gn", "3", "x1^20 y2^20"),
                 ("nf", "--preset", "gn", "3", "--strategy", "random", "x1^20 y2^20"),
                 ("eq", "--preset", "gn", "3", "x1^20 y2^20", "y2^20 x1^20")):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "inconclusive: rewrite step cap 10 exceeded; termination bug suspected\n"


def test_x_part_cap_is_inconclusive(monkeypatch, capsys):
    monkeypatch.setattr(hnnfree.braid, "X_PART_CAP", 10)
    for argv in (("braid-phi", "--preset", "p2", "3", "--push", "x1 y1^3"),
                 ("braid-check-free", "--preset", "p2", "3", "--w", "x1 y1^3", "--w", "x2"),
                 ("danilevich", "--preset", "p2", "3", "--h", "x1 y1 y1"),
                 ("pingpong-oracle", "--preset", "p2", "3",
                  "--spec", "H:x1:x1 y1 y1", "--spec", "T:t:t")):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "inconclusive: splitting x-part cap 10 exceeded\n"


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
    assert code == 1
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
    assert err == "parse error: line 1: p:a: w begins with y^{+-1}\n"


def test_repeated_p2_commands_keep_the_braid_caches_bounded(capsys):
    argv = ("braid-phi", "--preset", "p2", "4", "--push", "x1 y2 t x3^-1 y1")
    caches = (hnnfree.braid._system, hnnfree.braid._pushed_letter)
    assert run(capsys, *argv)[0] == 0
    sizes = [c.cache_info().currsize for c in caches]
    for _ in range(300):
        run(capsys, *argv)
    assert [c.cache_info().currsize for c in caches] == sizes


def test_danilevich_rejects_outer_generator(capsys):
    code, _, err = run(capsys, "danilevich", "--preset", "p2", "2", "--h", "x1 t")
    assert code == 2
    assert "outer" in err

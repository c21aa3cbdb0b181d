"""Acceptance gate: one test per release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`.  Each test prints a summary
line; the pytest verdict per test is the gate.  These tests re-state the
criteria literally rather than deferring to the unit suite, so they are
deliberately redundant with it.
"""

import random
import time

from rescan import is_subsequence, stable_signature
from hnnfree.braid import (
    braid_freeness_check,
    braid_trivial,
    free_factor_probe,
    phi_power,
    semidirect_nf,
    verify_braid_relations,
    verify_extension,
)
from hnnfree.pingpong import (
    Bounds,
    SubgroupSpec,
    bounded_intersection_probe,
    descends_to_identity,
    free_product_certificate,
    free_product_oracle,
    orbit_intersection_certificate,
)
from hnnfree.presentation import RewriteRule, compile_rules, gn, p2, parse_presentation
from hnnfree.rewrite import (
    RuleSystem,
    check_local_confluence,
    nf,
    normal_form,
    nu_less,
    random_confluence_probe,
    random_word,
)
from hnnfree.words import (
    OUTER,
    base_gen,
    format_word,
    free_reduce,
    stable_gen,
)

HANDMADE = """\
base y1 y2 y3
stable x1 x2
rel x1 : y1 ^ y2 y3 = y1 ^ y3 y2
rel x1 : y2 ^ y3^-1 y1 = y2 ^ y1 y3
rel x2 : y3 ^ y1 y1 = y3 ^ y2^-1 y1
"""

S4 = RuleSystem(gn(4))


def test_criterion_01_confluence_certification():
    for label, p in [(f"gn({n})", gn(n)) for n in (2, 3, 4, 5)] + [
        ("hand-written", parse_presentation(HANDMADE))
    ]:
        t0 = time.monotonic()
        rep = check_local_confluence(RuleSystem(p))
        dt = time.monotonic() - t0
        assert rep.ok, f"{label}: {len(rep.failures)} non-joinable critical pairs"
        assert dt < 10, f"{label}: confluence check took {dt:.1f}s"
    rules, corrupted = [], False
    for r in compile_rules(gn(3)):
        if not corrupted and r.kind == 3 and len(r.rhs) > 2:
            rules.append(RewriteRule(r.kind, r.rule_id, r.lhs, r.rhs[:-1]))
            corrupted = True
        else:
            rules.append(r)
    assert corrupted
    neg = check_local_confluence(RuleSystem(gn(3), rules))
    assert not neg.ok and neg.failures, "corrupted rule set was not flagged"
    print("criterion 01: PASS - local confluence certified for gn(2..5) and a "
          "hand-written system; corrupted rules flagged non-joinable")


def test_criterion_02_termination_certification():
    rng = random.Random(24001)
    t0 = time.monotonic()
    for i in range(10_000):
        w = random_word(rng, S4, 40)
        result, trace = normal_form(w, S4)
        assert not S4.redexes(result)
        prev = trace.nu_initial
        for e in trace.entries:
            assert nu_less(e.nu_after, prev), f"nu did not decrease on word {i}"
            prev = e.nu_after
    dt = time.monotonic() - t0
    assert dt < 60, f"termination sweep took {dt:.1f}s"
    print(f"criterion 02: PASS - 10,000 traced runs terminated, every step "
          f"nu-decreasing ({dt:.1f}s)")


def test_criterion_03_strategy_independence():
    t0 = time.monotonic()
    rep = random_confluence_probe(S4, seed=24003, trials=1_000, max_len=25, strategies=5)
    dt = time.monotonic() - t0
    assert rep.ok, f"{len(rep.failures)} strategy disagreements"
    assert rep.trials == 1_000 and rep.strategies == 5
    print(f"criterion 03: PASS - 1,000 words x 5 random strategies, identical "
          f"normal forms ({dt:.1f}s)")


def test_criterion_04_subsequence_property():
    rng = random.Random(24004)
    for _ in range(10_000):
        w = random_word(rng, S4, 40)
        assert is_subsequence(stable_signature(nf(w, S4)), stable_signature(w))
    print("criterion 04: PASS - stable-letter signature of the normal form is "
          "a subsequence of the input's on 10,000 words")


def test_criterion_05_free_group_degeneration():
    S2 = RuleSystem(gn(2))
    rng = random.Random(24005)
    for _ in range(10_000):
        w = random_word(rng, S2, 40)
        assert nf(w, S2) == free_reduce(w)
    S5 = RuleSystem(gn(5))
    for _ in range(10_000):
        w = tuple(
            base_gen(rng.randint(1, 4)) * rng.choice((1, -1))
            for _ in range(rng.randint(1, 40))
        )
        assert nf(w, S5) == free_reduce(w)
    print("criterion 05: PASS - normal form equals classical free reduction on "
          "gn(2) and on base-only words in gn(5)")


def test_criterion_06_relation_equivalence():
    t0 = time.monotonic()
    problems = []
    for n in (2, 3, 4):
        ext = p2(n)
        rr = verify_braid_relations(n)
        er = verify_extension(ext)
        assert rr.ok, f"n={n}: some relator is not trivial in the braid layer"
        if not rr.all_push:
            residues = [
                f"{e.label()} pushes to {e.pushed.render(ext.alphabet)}"
                for e in rr.entries
                if e.settled_by == "split"
            ]
            problems.append(f"n={n}: " + "; ".join(residues))
        bad = [c.name for c in er.checks if not c.ok]
        if bad:
            problems.append(f"n={n}: extension checks fail ({', '.join(bad)})")
    dt = time.monotonic() - t0
    assert dt < 10, f"relation check took {dt:.1f}s"
    ok = not problems
    print(f"criterion 06: {'PASS' if ok else 'FAIL'} - every relator must "
          f"normalize to (1, t^0) and the conjugation maps must act on the "
          f"presented base")
    assert ok, (
        "this criterion requires every relator of both relation families to "
        "push to (1, t^0) and the outer conjugation maps to induce an "
        "automorphism of the presented base group; both clauses are false "
        "from n = 3 on: conjugation by t does not respect the base "
        "congruence, so mixed-index conjugation relators keep a nonempty "
        "push remainder even though each relator is trivial in the braid "
        "layer (the exact splitting settles all of them, and braid-verify "
        "reports overall success on that basis).  details: " + " | ".join(problems)
    )


def test_criterion_07_freeness_fixtures():
    for n in (3, 4):
        ext = p2(n)
        basis = [ext.parse(f"x{i}") for i in range(1, n)]
        assert braid_freeness_check(n, basis).verdict == "certified"
        direct = [ext.parse(f"y{i} x{i}") for i in range(1, n)]
        cert = braid_freeness_check(n, direct)
        assert cert.verdict == "refuted"
        bad = [c for c in cert.conditions if not c.ok]
        assert all(c.name.startswith("commutator_with_t_nontrivial") for c in bad)
        for i, c in enumerate(bad, start=1):
            assert f"[y{i} x{i}, t] = 1" in c.witness
    ext3 = p2(3)
    sample = [ext3.parse("x1 y2"), ext3.parse("x2^2")]
    assert braid_freeness_check(3, sample).verdict == "certified"
    print("criterion 07: PASS - basis recovery and a nontrivial sample "
          "certified at n=3,4; the direct-product family refuted with "
          "commutator witnesses")


def test_criterion_08_certificate_oracle_coupling():
    # every instance certified elsewhere in this suite, re-checked by brute force
    bounds = Bounds(syllables=6, exp_range=2)
    gn3 = gn(3)
    sys3 = RuleSystem(gn3)
    a1 = SubgroupSpec("A1", (gn3.parse("x1"),), frozenset({stable_gen(1)}))
    a2 = SubgroupSpec("A2", (gn3.parse("y1 x2"),), frozenset({stable_gen(2)}))
    evidence = {
        "A1": orbit_intersection_certificate(p2(3).phi, gn3.parse("x1"), gn3),
        "A2": orbit_intersection_certificate(p2(3).phi, gn3.parse("y1 x2"), gn3),
    }
    assert free_product_certificate([a1, a2], evidence, sys3).verdict == "certified"
    instances = [("subgroups of gn(3)", None, [a1, a2], sys3)]

    braid_words = {3: (["x1", "x2"], ["x1 y2", "x2^2"], ["x2 x1 x2^-1", "x2"]),
                   4: (["x1", "x2", "x3"],)}
    for n, families in braid_words.items():
        ext = p2(n)
        for texts in families:
            ws = [ext.parse(t) for t in texts]
            assert braid_freeness_check(n, ws).verdict == "certified"
            specs = [
                SubgroupSpec(f"W{i}", (w,), frozenset({stable_gen(i)}))
                for i, w in enumerate(ws, start=1)
            ]
            specs.append(SubgroupSpec("T", ((OUTER,),), frozenset({OUTER})))
            instances.append((f"n={n} <{', '.join(texts)}, t>", ext, specs,
                              RuleSystem(ext.base)))

    for label, ext, specs, system in instances:
        is_trivial = (lambda w, e=ext: braid_trivial(e, w)) if ext else None
        t0 = time.monotonic()
        rep = free_product_oracle(specs, system, bounds, is_trivial=is_trivial)
        dt = time.monotonic() - t0
        assert rep.verdict == "pass", (
            f"{label}: oracle contradicts the certificate: "
            f"{rep.witness_factors}"
        )
        assert dt < 120, f"{label}: oracle took {dt:.1f}s"
    print(f"criterion 08: PASS - {len(instances)} certified instances "
          f"re-confirmed by exhaustive products (syllables <= 6, exponents <= 2)")


def test_criterion_09_projection_and_orbit_fixtures():
    for n in (2, 3, 4):
        ext = p2(n)
        assert descends_to_identity(ext.phi, ext.base)
    gn3 = gn(3)
    phi3 = p2(3).phi
    for i in (1, 2):
        cert = orbit_intersection_certificate(phi3, (stable_gen(i),), gn3)
        assert cert.verdict == "certified"
    assert orbit_intersection_certificate(phi3, (base_gen(1),), gn3).verdict == "refuted"
    ext2 = p2(2)
    x1 = ext2.parse("x1")
    gens = tuple(phi_power(ext2, x1, k) for k in range(-3, 4))
    spec = SubgroupSpec("orbit", gens, frozenset({stable_gen(1), OUTER}))
    rep = bounded_intersection_probe(spec, RuleSystem(ext2.base), max_len=6)
    assert rep.verdict == "pass", f"probe hit the base subgroup: {rep.witness_factors}"
    print(f"criterion 09: PASS - conjugation maps project to the identity for "
          f"n=2,3,4; orbit certificates behave; the length-6 probe over 7 "
          f"map-power generators checked {rep.checked:,} products")


def test_criterion_10_rank_two_center():
    ext = p2(2)
    z = ext.parse("y1 x1 t")
    for g in ("x1", "y1", "t"):
        u, v = z + ext.parse(g), ext.parse(g) + z
        assert semidirect_nf(ext, u) == semidirect_nf(ext, v), f"z does not commute with {g}"
    print("criterion 10: PASS - y1 x1 t commutes with both generators and t "
          "in the rank-two layer")


def test_criterion_11_free_factor_probe_fixtures():
    ext = p2(2)
    rep = free_factor_probe(ext, [ext.parse("x1")], Bounds(syllables=6))
    assert rep.verdict == "pass"
    rep = free_factor_probe(ext, [ext.parse("y1 x1")], Bounds(syllables=6))
    assert rep.verdict == "fail"
    assert format_word(rep.witness, ext.alphabet) == "y1 x1 t x1^-1 y1^-1 t^-1"
    assert rep.witness_factors == ("H: (y1 x1)", "t^1", "H: (y1 x1)^-1", "t^-1")
    print("criterion 11: PASS - <x1> passes the alternating-product probe; "
          "<y1 x1> fails with the commutator witness")

import gc
import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hnnfree.pingpong import (
    Bounds,
    Certificate,
    Condition,
    OracleReport,
    SubgroupSpec,
    Verdict,
    _alternating,
    bounded_intersection_probe,
    descends_to_identity,
    free_product_certificate,
    free_product_oracle,
    orbit_evidence,
    orbit_intersection_certificate,
    support_check,
)
from hnnfree import rewrite, words
from hnnfree.braid import braid_freeness_check, free_factor_probe
from hnnfree.presentation import Association, HnnPresentation, gn, p2, parse_presentation
from hnnfree.rewrite import RuleSystem, nf
from hnnfree.words import (
    EPSILON,
    Alphabet,
    GeneratorMap,
    OUTER,
    base_gen,
    exp_sum,
    format_word,
    free_reduce,
    invert,
    is_base,
    stable_gen,
)
from test_oracle_bruteforce import ORACLE_CASES, capped_probe

GN3 = gn(3)
S3 = RuleSystem(GN3)
EXT3 = p2(3)


def w3(text):
    return GN3.parse(text)


def spec(label, support_names, *gen_texts):
    support = frozenset(GN3.alphabet.gen(s) for s in support_names)
    return SubgroupSpec(label, tuple(w3(t) for t in gen_texts), support)


# --- support_check --------------------------------------------------------------

def test_support_disjointness():
    a = spec("A", ["x1"], "x1")
    b = spec("B", ["x2"], "y1 x2")
    assert all(c.ok for c in support_check(a, [b], GN3.alphabet))
    clash = spec("B", ["x1"], "x1")
    conds = support_check(a, [clash], GN3.alphabet)
    assert any(not c.ok and "disjoint" in c.name for c in conds)


def test_support_nonempty():
    bad = SubgroupSpec("Z", (w3("y1"),), frozenset())
    assert any(not c.ok and "nonempty" in c.name for c in support_check(bad, [], GN3.alphabet))


def test_support_strict_containment():
    stray = spec("A", ["x1"], "x2 y1")
    conds = support_check(stray, [], GN3.alphabet)
    assert conds[-1] == Condition("support_contains_generators[A]", False, "x2 in x2 y1")
    # containment is read on the free reduction: x1 x2 x2^-1 is x1
    cancelled = spec("A", ["x1"], "x1 x2 x2^-1", "y1 x1 y1^-1")
    assert all(c.ok for c in support_check(cancelled, [], GN3.alphabet))


def test_support_rejects_base_letters():
    with pytest.raises(ValueError):
        SubgroupSpec("A", (w3("x1"),), frozenset({base_gen(1)}))


# --- descends_to_identity --------------------------------------------------------

def test_phi_descends():
    for n in (2, 3, 4):
        ext = p2(n)
        assert descends_to_identity(ext.phi, ext.base)


def test_identity_descends_and_shift_does_not():
    gens = GN3.base_gens + GN3.stable_gens
    ident = GeneratorMap({g: (g,) for g in gens})
    assert descends_to_identity(ident, GN3)
    shifted = GeneratorMap({**{g: (g,) for g in gens},
                            stable_gen(1): w3("x1 x2")})
    assert not descends_to_identity(shifted, GN3)


def test_a_map_that_moves_a_base_letter_does_not_descend():
    # y1 -> y1^2 keeps the stable projection of every generator
    gens = GN3.base_gens + GN3.stable_gens
    doubled = GeneratorMap({**{g: (g,) for g in gens}, base_gen(1): w3("y1^2")})
    assert not descends_to_identity(doubled, GN3)


def test_descends_needs_two_sided_match():
    # a presentation with w != v has no projection to the direct product
    from hnnfree.presentation import Association, HnnPresentation
    from hnnfree.words import Alphabet, EPSILON

    alphabet = Alphabet(("y1", "y2"), ("x1",))
    p = HnnPresentation(alphabet, {stable_gen(1): (
        Association(base_gen(1), EPSILON, (base_gen(2),)),)})
    ident = GeneratorMap({g: (g,) for g in p.base_gens + p.stable_gens})
    with pytest.raises(ValueError):
        descends_to_identity(ident, p)


# --- orbit certificates ------------------------------------------------------------

def test_orbit_certificate_verdicts():
    assert orbit_intersection_certificate(EXT3.phi, w3("x1"), GN3).verdict == Verdict.CERTIFIED
    assert orbit_intersection_certificate(EXT3.phi, w3("y1"), GN3).verdict == Verdict.REFUTED
    assert orbit_intersection_certificate(EXT3.phi, w3("x1 y2"), GN3).verdict == Verdict.CERTIFIED


@given(st.lists(st.sampled_from(["x1", "x1^-1", "x2", "y1", "y1^-1", "y2"]), max_size=6))
def test_a_refuted_orbit_certificate_carries_its_pure_base_word(letters):
    w = w3(" ".join(letters) or "1")
    cert = orbit_intersection_certificate(EXT3.phi, w, GN3)
    reduced = []
    for c in w:  # free reduction, by hand
        if reduced and reduced[-1] == -c:
            reduced.pop()
        else:
            reduced.append(c)
    pure_base = bool(reduced) and all(GN3.alphabet.name(abs(c))[0] == "y" for c in reduced)
    assert (cert.verdict == Verdict.REFUTED) == (cert.witness is not None) == pure_base
    if pure_base:  # the witness is w itself, a nontrivial element of <w> in the base
        assert cert.witness == tuple(reduced)


def test_vanishing_stable_projection_refutes_only_a_pure_base_word():
    # every nonzero power of [x1, y1] keeps an x1, so <[x1, y1]> meets the base trivially
    for text in ("x1 y1 x1^-1 y1^-1", "x1 x1^-1", "1"):
        assert orbit_intersection_certificate(EXT3.phi, w3(text), GN3).verdict == Verdict.INCONCLUSIVE
    # the freely reduced word decides: y1 x1 x1^-1 is the base word y1
    assert orbit_intersection_certificate(EXT3.phi, w3("y1 x1 x1^-1"), GN3).verdict == Verdict.REFUTED


def test_orbit_evidence_counts_only_for_generators_in_the_orbit():
    # the orbit of x1 is x1^{+-1} alone, and generators count freely reduced
    covered = SubgroupSpec("A", (w3("x1 x1 x1^-1"), w3("x1^-1")), frozenset({stable_gen(1)}))
    assert orbit_evidence(covered, w3("x1"), GN3).verdict == Verdict.CERTIFIED
    moved = SubgroupSpec("A", (w3("x1"), w3("y1 x1^-1 y1^-1")), frozenset({stable_gen(1)}))
    cert = orbit_evidence(moved, w3("x1"), GN3)
    assert cert.verdict == Verdict.INCONCLUSIVE
    assert cert.conditions[0] == Condition(
        "orbit_covers_generators[A]", False, "y1 x1^-1 y1^-1 not in the orbit of x1")
    # a covering orbit keeps the orbit certificate's own verdict
    y1 = spec("B", ["x1"], "y1")
    assert orbit_evidence(y1, w3("y1"), GN3).verdict == Verdict.REFUTED


def test_orbit_certificate_monotone_against_probe():
    # certified orbit generator stays clear of <Y> under finitely many phi
    # powers; the acceptance suite runs the same probe at the full length-6
    # bound, here length 4 keeps the unit suite quick
    images = [w3("x1")]
    for _ in range(3):
        images.append(EXT3.phi.apply(images[-1]))
        images.insert(0, EXT3.phi_inv.apply(images[0]))
    orbit_spec = SubgroupSpec("orbit", tuple(images), frozenset({stable_gen(1)}))
    rep = bounded_intersection_probe(orbit_spec, S3, max_len=4)
    assert rep.verdict == "pass"


# --- certificates -------------------------------------------------------------------

def certified_fixture():
    a = spec("A1", ["x1"], "x1")
    b = spec("A2", ["x2"], "y1 x2")
    evidence = {
        "A1": orbit_intersection_certificate(EXT3.phi, w3("x1"), GN3),
        "A2": orbit_intersection_certificate(EXT3.phi, w3("y1 x2"), GN3),
    }
    return [a, b], evidence


def test_free_product_certificate_certified():
    specs, evidence = certified_fixture()
    cert = free_product_certificate(specs, evidence, GN3)
    assert cert.verdict == Verdict.CERTIFIED
    assert all(c.ok for c in cert.conditions)


def test_free_product_certificate_refuted_on_overlap():
    # overlapping supports are refuted only by a witness, here the probe's
    # hit y1, which the certificate carries
    a = spec("A1", ["x1"], "x1")
    c = spec("B", ["x1"], "y1")
    evidence = {"A1": "external", "B": bounded_intersection_probe(c, S3, 2)}
    cert = free_product_certificate([a, c], evidence, GN3)
    assert (cert.verdict, cert.witness) == (Verdict.REFUTED, w3("y1"))
    # the overlap alone is a failed hypothesis: <x1> and <x1 y1> generate
    # their free product (the oracle passes every product at small bounds)
    b = spec("A2", ["x1"], "x1 y1")
    cert = free_product_certificate([a, b], {"A1": "external", "A2": "external"}, GN3)
    assert (cert.verdict, cert.witness) == (Verdict.INCONCLUSIVE, None)
    assert [c.name for c in cert.conditions if not c.ok] == ["support_disjoint[A1,A2]"]
    assert free_product_oracle([a, b], S3, Bounds(syllables=4)).verdict == Verdict.PASS


def test_free_product_certificate_missing_evidence():
    specs, evidence = certified_fixture()
    del evidence["A2"]
    cert = free_product_certificate(specs, evidence, GN3)
    assert cert.verdict == Verdict.INCONCLUSIVE
    assert any("no evidence" in (c.witness or "") for c in cert.conditions)


def test_free_product_certificate_probe_not_enough():
    specs, evidence = certified_fixture()
    evidence["A2"] = bounded_intersection_probe(specs[1], S3, max_len=6)
    cert = free_product_certificate(specs, evidence, GN3)
    assert cert.verdict == Verdict.INCONCLUSIVE


def test_orbit_evidence_never_refutes_the_free_product():
    a = spec("A", ["x1"], "y1")
    refuted = orbit_intersection_certificate(EXT3.phi, w3("y1"), GN3)
    cert = free_product_certificate([a], {"A": refuted}, GN3)
    assert cert.verdict == Verdict.INCONCLUSIVE
    assert cert.conditions[-1] == Condition(
        "base_intersection_trivial[A]", False,
        "orbit certificate: refuted (stable projection is empty)")


def test_orbit_certificate_counts_only_for_a_spec_it_covers():
    # A = <y1> is the base itself; a certificate for the orbit of x1 says nothing of it
    a = spec("A", ["x1"], "y1")
    orbit = orbit_intersection_certificate(EXT3.phi, w3("x1"), GN3)
    cert = free_product_certificate([a], {"A": orbit}, GN3)
    assert cert.verdict == Verdict.INCONCLUSIVE
    assert cert.conditions[-1] == Condition(
        "base_intersection_trivial[A]", False, "orbit certificate: certified "
        "(no direct-product projection shows that A meets the base trivially)")


def test_certificate_of_another_theorem_is_not_evidence():
    a = spec("A", ["x1"], "y1")
    rank = braid_freeness_check(3, [EXT3.parse("x1"), EXT3.parse("x2")])
    assert rank.verdict == Verdict.CERTIFIED
    cert = free_product_certificate([a], {"A": rank}, GN3)
    assert cert.verdict == Verdict.INCONCLUSIVE
    assert cert.conditions[-1] == Condition(
        "base_intersection_trivial[A]", False,
        "braid-free-rank certificate: not base-intersection evidence")


@pytest.mark.parametrize("gens,counts", [
    # every generator maps to (x1, 1)^{+-1} under x -> (x, 1), y -> (1, y)
    ((w3("x1"), w3("y1 x1 y1^-1"), w3("x1^-1")), True),
    ((w3("y1 x2"), w3("x2 y1")), True),
    ((), True),
    ((w3("x1"), w3("x1^2")), False),
    ((w3("x1"), w3("x2")), False),
    ((w3("x1 y1 x1^-1 y1^-1"),), False),
    ((w3("x1 x1^-1"),), False),
    # t is no letter of the presented group; a cancelled t is no t
    (((OUTER,) + w3("x1"),), False),
    ((w3("x1") + (OUTER, -OUTER),), True),
])
def test_orbit_certificate_counts_when_the_projection_is_one_cycle(gens, counts):
    orbit = orbit_intersection_certificate(EXT3.phi, w3("x1"), GN3)
    a = SubgroupSpec("A", gens, frozenset({stable_gen(1), stable_gen(2), OUTER}))
    cert = free_product_certificate([a], {"A": orbit}, GN3)
    assert (cert.verdict == Verdict.CERTIFIED) == counts


def test_orbit_certificate_needs_the_direct_product_projection():
    # with w != v the projection to F(X) x F(Y) is not a homomorphism
    p = HnnPresentation(Alphabet(("y1", "y2"), ("x1",)), {stable_gen(1): (
        Association(base_gen(1), EPSILON, (base_gen(2),)),)})
    orbit = orbit_intersection_certificate(EXT3.phi, w3("x1"), GN3)
    a = SubgroupSpec("A", (w3("x1"),), frozenset({stable_gen(1)}))
    assert free_product_certificate([a], {"A": orbit}, GN3).verdict == Verdict.CERTIFIED
    assert free_product_certificate([a], {"A": orbit}, p).verdict == Verdict.INCONCLUSIVE


@st.composite
def gn_specs(draw):
    """n in 2..4 and two or three specs over gn(n) of one or two generators
    of one to three letters, each (label, generators, support names).  A
    spec's first generator is a stable letter of its own, the next in a
    drawn order, or its inverse, among base letters; a second one is the
    first, its inverse, which the first one's orbit evidence covers, or any
    word.  Either every support is drawn, its own letter first among the
    stable letters it is drawn from, or each is None, the stable letters of
    the generators.  gn(2), whose one stable letter no two supports can
    share, is drawn last."""
    n = draw(st.sampled_from((3, 4, 2)))
    p = gn(n)
    signed = lambda gens: [s * g for g in gens for s in (1, -1)]
    base = st.lists(st.sampled_from(signed(p.base_gens)), max_size=2)
    word = st.lists(st.sampled_from(signed(p.base_gens + p.stable_gens)), min_size=1, max_size=3)
    derived = draw(st.booleans())
    specs, homes = [], draw(st.permutations(p.stable_gens))
    for i, label in enumerate("ABC"[: draw(st.integers(2, 3))]):
        order = homes[i % len(homes):] + homes[: i % len(homes)]
        around, x = draw(base), draw(st.sampled_from((order[0], -order[0])))
        at = draw(st.integers(0, len(around)))
        g = tuple(around[:at] + [x] + around[at:])
        more = draw(st.sampled_from([(), (g,), (invert(g),), (tuple(draw(word)),)]))
        names = st.lists(st.sampled_from([p.alphabet.name(h) for h in order]), min_size=1, unique=True)
        specs.append((label, (g, *more), None if derived else draw(names)))
    return n, specs


@settings(max_examples=300)
@given(gn_specs())
# <x2> would pass every other condition, and x2 x2^-1 is trivial
@example((3, [("A", ((stable_gen(2),),), ["x1"]), ("B", ((stable_gen(2),),), ["x2"])]))
def test_a_certificate_never_contradicts_the_oracle(drawn):
    n, drawn_specs = drawn
    p = gn(n)
    specs, evidence = [], {}
    for label, gens, names in drawn_specs:
        support = ({abs(c) for g in gens for c in g if not is_base(c)} if names is None
                   else {p.alphabet.gen(name) for name in names})
        specs.append(SubgroupSpec(label, gens, frozenset(support)))
        # the orbit evidence the CLI builds from the first generator
        evidence[label] = orbit_evidence(specs[-1], gens[0], p)
    if free_product_certificate(specs, evidence, p).verdict == Verdict.CERTIFIED:
        rep = free_product_oracle(specs, RuleSystem(p), Bounds(syllables=4, exp_range=2))
        assert rep.verdict != Verdict.FAIL, rep.render()


OK, BAD = Condition("c", True), Condition("c", False)


@pytest.mark.parametrize("report,verdict", [
    # a witness refutes, whatever the conditions; an empty word is a witness too
    (Certificate("x", (OK,), witness=(2,)), Verdict.REFUTED),
    (Certificate("x", (BAD,), witness=()), Verdict.REFUTED),
    # without one: certified when every condition holds, else inconclusive
    (Certificate("x", (OK, OK)), Verdict.CERTIFIED),
    (Certificate("x", ()), Verdict.CERTIFIED),
    (Certificate("x", (OK, BAD)), Verdict.INCONCLUSIVE),
    # a witness fails, even beside a note; else a note is inconclusive
    (OracleReport(3, witness=(2,), note="budget of 3 products exceeded"), Verdict.FAIL),
    (OracleReport(3, witness=()), Verdict.FAIL),
    (OracleReport(3, note="budget of 3 products exceeded"), Verdict.INCONCLUSIVE),
    (OracleReport(3), Verdict.PASS),
])
def test_a_report_derives_its_verdict_from_its_evidence(report, verdict):
    assert report.verdict is verdict


# --- oracles ------------------------------------------------------------------------

def test_oracle_pass_fixture():
    specs, _ = certified_fixture()
    rep = free_product_oracle(specs, S3, Bounds(syllables=6, exp_range=2))
    assert rep.verdict == "pass"
    assert rep.checked > 0


def test_oracle_single_spec():
    rep = free_product_oracle([spec("A1", ["x1"], "x1")], S3, Bounds(syllables=4))
    assert rep.verdict == "pass"


def test_oracle_duplicate_spec_fails_with_minimal_witness():
    specs = [spec("A1", ["x1"], "x1"), spec("B1", ["x1"], "x1")]
    rep = free_product_oracle(specs, S3, Bounds(syllables=4))
    assert rep.verdict == "fail"
    assert rep.witness_factors == ("A1: (x1)", "B1: (x1)^-1")
    assert free_reduce(rep.witness) == free_reduce(w3("x1 x1^-1"))


def test_oracle_spells_witness_in_the_presentations_own_names():
    p = parse_presentation("base a b\nstable p\nrel p : b ^ 1 = b ^ 1\n")
    specs = [SubgroupSpec("A", (p.parse("p"),), frozenset({p.alphabet.gen("p")})),
             SubgroupSpec("B", (p.parse("b"),), frozenset({p.alphabet.gen("p")}))]
    rep = free_product_oracle(specs, RuleSystem(p), Bounds(syllables=4))
    assert rep.verdict == "fail"
    assert rep.witness_factors == ("A: (p)", "B: (b)", "A: (p)^-1", "B: (b)^-1")
    assert rep.render() == ("fail  (products checked: 174)\n  witness: p b p^-1 b^-1\n"
                            "  factors: A: (p) | B: (b) | A: (p)^-1 | B: (b)^-1")


def test_oracle_budget_is_inconclusive():
    specs, _ = certified_fixture()
    rep = free_product_oracle(specs, S3, Bounds(syllables=6, max_products=10))
    assert rep.verdict == Verdict.INCONCLUSIVE
    assert "budget" in rep.note


def test_walk_builds_only_the_powers_it_reaches():
    # a budget of one product stops the walk among the first powers of each
    # generator, so the powers up to exp_range 1000 are never built, nor
    # are sums biased for syllables it cannot reach
    specs = [spec("A", ["x1"], "x1", "y1 x1 y1^-1"), spec("B", ["x2"], "x2")]
    for bounds in (Bounds(exp_range=1000, max_products=1), Bounds(syllables=10**7, max_products=1)):
        tracemalloc.start()
        try:
            rep = free_product_oracle(specs, S3, bounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.verdict, rep.checked) == (Verdict.INCONCLUSIVE, 1)
        assert peak < 5_000_000


def test_walk_to_every_total_holds_its_powers_and_runs_in_bounds():
    # one generator: every total up to 1000 has the two runs x1^{+-total},
    # so the walk builds each power and each list of candidate runs once
    tracemalloc.start()
    try:
        rep = free_product_oracle([spec("A", ["x1"], "x1")], S3, Bounds(syllables=1, exp_range=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.verdict, rep.checked) == (Verdict.PASS, 2000)
    assert peak < 12_000_000


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_an_empty_spec_leaves_every_report_as_it_was(name):
    specs, syllables, exp_range = ORACLE_CASES[name]
    empty = SubgroupSpec("Z0", (), frozenset({OUTER}))
    for budget in (None, 7, 40):
        bounds = Bounds(syllables=syllables, exp_range=exp_range, max_products=budget)
        rep = free_product_oracle(specs, S3, bounds)
        for at in range(len(specs) + 1):
            assert free_product_oracle(specs[:at] + [empty] + specs[at:], S3, bounds) == rep, (at, budget)


def test_an_empty_spec_keeps_the_spec_sequences_alternating(monkeypatch):
    # only the alternating sequences of non-empty specs are generated, so an
    # empty spec adds no sequence: listing all 3^r and dropping most would
    # not finish at the 18 syllables this cap allows
    assert list(_alternating([0, 2], 40, -1)) == [(0, 2) * 20, (2, 0) * 20]
    assert list(_alternating([0, 1, 2], 3, -1)) == [
        s for s in itertools.product(range(3), repeat=3) if s[0] != s[1] != s[2]]
    monkeypatch.setattr(words, "PRODUCT_CAP", 10 ** 6)
    specs = [spec("A", ["x1"], "x1"), spec("B", ["x2"], "x2"), SubgroupSpec("C", (), frozenset({stable_gen(1)}))]
    rep = free_product_oracle(specs, S3, Bounds(syllables=25, exp_range=1))
    assert (rep.verdict, rep.checked, rep.note) == (
        Verdict.INCONCLUSIVE, 10 ** 6, "oracle product cap 1000000 exceeded")


def test_product_cap_stops_a_walk_with_no_smaller_budget(monkeypatch):
    specs, _ = certified_fixture()
    unbounded = free_product_oracle(specs, S3, Bounds(syllables=4))
    assert unbounded.verdict == "pass"
    # the cap is read at call time; a walk that fits under it is unchanged
    monkeypatch.setattr(words, "PRODUCT_CAP", unbounded.checked)
    assert free_product_oracle(specs, S3, Bounds(syllables=4)) == unbounded
    monkeypatch.setattr(words, "PRODUCT_CAP", 10)
    capped = (Verdict.INCONCLUSIVE, 10, "oracle product cap 10 exceeded")
    for budget in (None, 10, 11, 10 ** 12):
        rep = free_product_oracle(specs, S3, Bounds(syllables=4, max_products=budget))
        assert (rep.verdict, rep.checked, rep.note) == capped
    rep = free_product_oracle(specs, S3, Bounds(syllables=4, max_products=9))
    assert (rep.verdict, rep.checked, rep.note) == (Verdict.INCONCLUSIVE, 9, "budget of 9 products exceeded")
    for rep in (bounded_intersection_probe(spec("A", ["x2"], "y1 x2", "x2 y2"), S3, max_len=8),
                free_factor_probe(EXT3, [w3("x1")], Bounds(syllables=4))):
        assert (rep.verdict, rep.checked, rep.note) == capped


# wrongly declares trivial every word longer than a factor of
# certified_fixture at exp_range 2, (y1 x2)^2, and no factor
LONGER_THAN_A_FACTOR = lambda w: len(w) > 4


def test_oracle_respects_is_trivial_hook():
    # a hook that wrongly declares products trivial must fail on the first
    # one that survives the exponent-sum screen; that needs 4 syllables
    # (commutator shape), shorter products all have a nonzero exponent sum
    specs, _ = certified_fixture()
    rep = free_product_oracle(specs, S3, Bounds(syllables=4), is_trivial=LONGER_THAN_A_FACTOR)
    assert rep.verdict == "fail"
    rep2 = free_product_oracle(specs, S3, Bounds(syllables=2), is_trivial=LONGER_THAN_A_FACTOR)
    assert rep2.verdict == "pass"
    # the hook decides the factors too: a witness needs each one nontrivial
    rep3 = free_product_oracle(specs, S3, Bounds(syllables=4), is_trivial=lambda _w: True)
    assert rep3.verdict == "pass"


# nested lhs make these rules non-confluent; they keep F(X), the free
# reduction of the stable letter s
NESTED = RuleSystem(parse_presentation(
    "base y1 x1\nstable s\nrel s : y1 ^ x1^-1 y1^-1 = y1 ^ x1\nrel s : x1 ^ y1^-1 = x1 ^ y1 x1\n"))


def nested_spec(label, *texts):
    p = NESTED.presentation
    return SubgroupSpec(label, tuple(p.parse(t) for t in texts), frozenset({OUTER}))


def test_oracle_on_a_non_confluent_system_decides_only_by_an_image():
    # s s^-1 is trivial, and F(X) shows each factor nontrivial
    rep = free_product_oracle([nested_spec("A", "s"), nested_spec("B", "s")], NESTED, Bounds(syllables=2))
    assert (rep.verdict, rep.witness, rep.witness_factors) == ("fail", (), ("A: (s)", "B: (s)^-1"))
    # y1 x1 y1^-1 x1^-1, product 174, has a nonempty normal form, which
    # proves nothing here: the walk stops on it, with 173 products decided
    rep = free_product_oracle([nested_spec("A", "y1"), nested_spec("B", "x1")], NESTED, Bounds())
    assert (rep.verdict, rep.checked, rep.witness, rep.note) == (
        Verdict.INCONCLUSIVE, 173, None, "distinct normal forms, and the rules are not confluent")


# --- bounded probes ------------------------------------------------------------------

def test_probe_fixtures():
    good = spec("A", ["x2"], "y1 x2")
    assert bounded_intersection_probe(good, S3, max_len=6).verdict == "pass"
    bad = spec("B", ["x1"], "y1")
    rep = bounded_intersection_probe(bad, S3, max_len=4)
    assert rep.verdict == "fail"
    assert format_word(rep.witness, GN3.alphabet) == "y1"
    degenerate = SubgroupSpec("E", (w3("1"),), frozenset({stable_gen(1)}))
    assert bounded_intersection_probe(degenerate, S3, max_len=4).verdict == "pass"


def test_a_clean_probe_rewrites_no_product(monkeypatch):
    # no prefix of <x1, y1 x1 y1^-1> holds an lhs, so the automaton's state
    # decides every product: the benchmark's fixture passes and the longer
    # walk reaches the product cap, and neither rewrites a word
    calls = []
    monkeypatch.setattr(RuleSystem, "nf_reduced", lambda self, w: calls.append(w))
    monkeypatch.setattr(rewrite, "nf", lambda w, system: calls.append(w))
    a1 = spec("A1", ["x1"], "x1", "y1 x1 y1^-1")
    rep = bounded_intersection_probe(a1, S3, max_len=10)
    assert (rep.verdict, rep.checked) == (Verdict.PASS, 118_096)
    rep = bounded_intersection_probe(a1, S3, max_len=30)
    assert (rep.verdict, rep.checked, rep.note) == (
        Verdict.INCONCLUSIVE, 10_000_000, "oracle product cap 10000000 exceeded")
    assert calls == []


def test_a_letter_outside_the_alphabet_keeps_the_probe_rewriting():
    # no lhs holds x5 x5^-1, which cancels in (y1 x5) (y2 x5)^-1, so the
    # automaton cannot vouch for a prefix: the probe rewrites, finds the
    # witness y1 y2^-1, and then cannot spell its factors
    x5 = stable_gen(5)
    odd = SubgroupSpec("P", ((base_gen(1), x5), (base_gen(2), x5)), frozenset({x5}))
    with pytest.raises(KeyError, match="no generator has code 11"):
        bounded_intersection_probe(odd, S3, max_len=2)


def test_probe_budget():
    # the second cap runs out inside a subtree the exponent sums rule out
    for gens, cap in ((("y1 x2", "x2 y2"), 5), (("x2", "y1 x2 y1^-1"), 17)):
        rep = capped_probe(spec("A", ["x2"], *gens), S3, 8, cap)
        assert rep.verdict == Verdict.INCONCLUSIVE
        assert rep.checked == cap


def test_a_walk_leaves_no_cyclic_garbage():
    # a pass, a fail and an inconclusive report (the product cap, a budget,
    # a product the test cannot decide) each free their walk's state when
    # they return, with no collection
    specs, _ = certified_fixture()
    reports = [
        lambda: bounded_intersection_probe(spec("A", ["x1"], "x1", "y1 x1 y1^-1"), S3, max_len=10),
        lambda: bounded_intersection_probe(spec("B", ["x1"], "y1"), S3, max_len=4),
        lambda: capped_probe(spec("A", ["x2"], "x2", "y1 x2 y1^-1"), S3, 8, 17),
        lambda: free_product_oracle(specs, S3, Bounds(syllables=4)),
        lambda: free_product_oracle(specs, S3, Bounds(syllables=4), is_trivial=LONGER_THAN_A_FACTOR),
        lambda: free_product_oracle(specs, S3, Bounds(syllables=4, max_products=9)),
        lambda: free_product_oracle([nested_spec("A", "y1"), nested_spec("B", "x1")], NESTED, Bounds()),
    ]
    verdicts = []
    for report in reports:
        gc.collect()
        verdicts.append(report().verdict)
        assert gc.collect() == 0
    assert verdicts == ["pass", "fail", "inconclusive"] * 2 + ["inconclusive"]


# --- prescreen soundness (exp-sum cross-check) -----------------------------------------

@given(st.integers(0, 5000))
def test_nonzero_exp_sum_implies_engine_nontrivial(seed):
    import random as _r

    from hnnfree.rewrite import random_word

    u = random_word(_r.Random(seed), S3, 16)
    gens = GN3.base_gens + GN3.stable_gens
    if any(exp_sum(u, g) for g in gens):
        assert nf(u, S3) != w3("1")

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hnnfree.pingpong import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    Bounds,
    Certificate,
    Condition,
    OracleReport,
    SubgroupSpec,
    bounded_intersection_probe,
    descends_to_identity,
    free_product_certificate,
    free_product_oracle,
    in_base_subgroup,
    orbit_evidence,
    orbit_intersection_certificate,
    support_check,
)
from hnnfree.braid import braid_freeness_check
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
    stable_gen,
)

GN3 = gn(3)
S3 = RuleSystem(GN3)
EXT3 = p2(3)


def w3(text):
    return GN3.parse(text)


def spec(label, support_names, *gen_texts):
    support = frozenset(GN3.alphabet.gen(s) for s in support_names)
    return SubgroupSpec(label, tuple(w3(t) for t in gen_texts), support)


# --- in_base_subgroup ---------------------------------------------------------

def test_in_base_subgroup():
    assert in_base_subgroup(w3("y1 x2 x2^-1 y2"), S3)
    assert not in_base_subgroup(w3("x1"), S3)
    assert not in_base_subgroup(w3("x2 y2^-1 y1"), S3)


# --- support_check --------------------------------------------------------------

def test_support_disjointness():
    a = spec("A", ["x1"], "x1")
    b = spec("B", ["x2"], "y1 x2")
    assert all(c.ok for c in support_check(a, [b]))
    clash = spec("B", ["x1"], "x1")
    conds = support_check(a, [clash])
    assert any(not c.ok and "disjoint" in c.name for c in conds)


def test_support_nonempty():
    bad = SubgroupSpec("Z", (w3("y1"),), frozenset())
    assert any(not c.ok and "nonempty" in c.name for c in support_check(bad, []))


def test_support_strict_containment():
    stray = spec("A", ["x1"], "x2 y1")
    conds = support_check(stray, [], strict=True)
    assert any(not c.ok and "contains" in c.name for c in conds)
    lax = support_check(stray, [], strict=False)
    assert all(c.ok for c in lax)


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
    assert orbit_intersection_certificate(EXT3.phi, w3("x1"), GN3).verdict == CERTIFIED
    assert orbit_intersection_certificate(EXT3.phi, w3("y1"), GN3).verdict == REFUTED
    assert orbit_intersection_certificate(EXT3.phi, w3("x1 y2"), GN3).verdict == CERTIFIED


def test_vanishing_stable_projection_refutes_only_a_pure_base_word():
    # every nonzero power of [x1, y1] keeps an x1, so <[x1, y1]> meets the base trivially
    for text in ("x1 y1 x1^-1 y1^-1", "x1 x1^-1", "1"):
        assert orbit_intersection_certificate(EXT3.phi, w3(text), GN3).verdict == INCONCLUSIVE
    # the freely reduced word decides: y1 x1 x1^-1 is the base word y1
    assert orbit_intersection_certificate(EXT3.phi, w3("y1 x1 x1^-1"), GN3).verdict == REFUTED


def test_orbit_evidence_counts_only_for_generators_in_the_orbit():
    ident = GeneratorMap({g: (g,) for g in GN3.base_gens + GN3.stable_gens})
    phi, phi_inv = EXT3.phi, EXT3.phi_inv
    # phi(x1) = y1 x1 y1^-1, and phi^-3(x1) and inverses are in range too
    far = phi_inv.apply(phi_inv.apply(phi_inv.apply(w3("x1"))))
    covered = SubgroupSpec("A", (w3("x1 x1 x1^-1"), w3("y1 x1^-1 y1^-1"), far),
                           frozenset({stable_gen(1)}))
    assert orbit_evidence(covered, w3("x1"), GN3, phi, phi_inv).verdict == CERTIFIED
    # the identity map's orbit of x1 is x1^{+-1} alone
    cert = orbit_evidence(covered, w3("x1"), GN3, ident, ident)
    assert cert.verdict == INCONCLUSIVE
    assert cert.conditions[0] == Condition(
        "orbit_covers_generators[A]", False, "y1 x1^-1 y1^-1 not in the orbit of x1")
    # phi^4(x1) lies past |k| <= 3
    beyond = phi.apply(phi.apply(phi.apply(phi.apply(w3("x1")))))
    spec4 = SubgroupSpec("A", (beyond,), frozenset({stable_gen(1)}))
    assert orbit_evidence(spec4, w3("x1"), GN3, phi, phi_inv).verdict == INCONCLUSIVE
    # a covering orbit keeps the orbit certificate's own verdict
    y1 = spec("B", ["x1"], "y1")
    assert orbit_evidence(y1, w3("y1"), GN3, ident, ident).verdict == REFUTED


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
    cert = free_product_certificate(specs, evidence, S3)
    assert cert.verdict == CERTIFIED
    assert all(c.ok for c in cert.conditions)


def test_free_product_certificate_refuted_on_overlap():
    a = spec("A1", ["x1"], "x1")
    b = spec("A2", ["x1"], "x1 y1")
    cert = free_product_certificate([a, b], {}, S3)
    assert cert.verdict == REFUTED


def test_free_product_certificate_missing_evidence():
    specs, evidence = certified_fixture()
    del evidence["A2"]
    cert = free_product_certificate(specs, evidence, S3)
    assert cert.verdict == INCONCLUSIVE
    assert any("no evidence" in (c.witness or "") for c in cert.conditions)


def test_free_product_certificate_probe_not_enough():
    specs, evidence = certified_fixture()
    evidence["A2"] = bounded_intersection_probe(specs[1], S3, max_len=6)
    cert = free_product_certificate(specs, evidence, S3)
    assert cert.verdict == INCONCLUSIVE


def test_orbit_evidence_never_refutes_the_free_product():
    a = spec("A", ["x1"], "y1")
    refuted = orbit_intersection_certificate(EXT3.phi, w3("y1"), GN3)
    cert = free_product_certificate([a], {"A": refuted}, S3)
    assert cert.verdict == INCONCLUSIVE
    assert cert.conditions[-1] == Condition(
        "base_intersection_trivial[A]", False,
        "orbit certificate: refuted (stable projection is empty)")


def test_orbit_certificate_counts_only_for_a_spec_it_covers():
    # A = <y1> is the base itself; a certificate for the orbit of x1 says nothing of it
    a = spec("A", ["x1"], "y1")
    orbit = orbit_intersection_certificate(EXT3.phi, w3("x1"), GN3)
    cert = free_product_certificate([a], {"A": orbit}, S3)
    assert cert.verdict == INCONCLUSIVE
    assert cert.conditions[-1] == Condition(
        "base_intersection_trivial[A]", False, "orbit certificate: certified "
        "(no direct-product projection shows that A meets the base trivially)")


def test_certificate_of_another_theorem_is_not_evidence():
    a = spec("A", ["x1"], "y1")
    rank = braid_freeness_check(3, [EXT3.parse("x1"), EXT3.parse("x2")])
    assert rank.verdict == CERTIFIED
    cert = free_product_certificate([a], {"A": rank}, S3)
    assert cert.verdict == INCONCLUSIVE
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
    cert = free_product_certificate([a], {"A": orbit}, S3, strict=False)
    assert (cert.verdict == CERTIFIED) == counts


def test_orbit_certificate_needs_the_direct_product_projection():
    # with w != v the projection to F(X) x F(Y) is not a homomorphism
    p = HnnPresentation(Alphabet(("y1", "y2"), ("x1",)), {stable_gen(1): (
        Association(base_gen(1), EPSILON, (base_gen(2),)),)})
    orbit = orbit_intersection_certificate(EXT3.phi, w3("x1"), GN3)
    a = SubgroupSpec("A", (w3("x1"),), frozenset({stable_gen(1)}))
    assert free_product_certificate([a], {"A": orbit}, S3).verdict == CERTIFIED
    assert free_product_certificate([a], {"A": orbit}, RuleSystem(p)).verdict == INCONCLUSIVE


def test_certificate_constructor_guards_verdict():
    with pytest.raises(ValueError):
        Certificate(CERTIFIED, "x", (Condition("c", False),))


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
    assert rep.verdict == INCONCLUSIVE
    assert "budget" in rep.note


def test_oracle_respects_is_trivial_hook():
    # a hook that wrongly declares everything trivial must fail on the first
    # product that survives the exponent-sum screen; that needs 4 syllables
    # (commutator shape), shorter products all have a nonzero exponent sum
    specs, _ = certified_fixture()
    rep = free_product_oracle(specs, S3, Bounds(syllables=4),
                              is_trivial=lambda _w: True)
    assert rep.verdict == "fail"
    rep2 = free_product_oracle(specs, S3, Bounds(syllables=2),
                               is_trivial=lambda _w: True)
    assert rep2.verdict == "pass"


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


def test_probe_budget():
    # the second budget runs out inside a subtree the exponent sums rule out
    for gens, max_products in ((("y1 x2", "x2 y2"), 5), (("x2", "y1 x2 y1^-1"), 17)):
        rep = bounded_intersection_probe(spec("A", ["x2"], *gens), S3, max_len=8,
                                         max_products=max_products)
        assert rep.verdict == INCONCLUSIVE
        assert rep.checked == max_products


# --- prescreen soundness (exp-sum cross-check) -----------------------------------------

@given(st.integers(0, 5000))
def test_nonzero_exp_sum_implies_engine_nontrivial(seed):
    import random as _r

    from hnnfree.rewrite import random_word

    u = random_word(_r.Random(seed), S3, 16)
    gens = GN3.base_gens + GN3.stable_gens
    if any(exp_sum(u, g) for g in gens):
        assert nf(u, S3) != w3("1")

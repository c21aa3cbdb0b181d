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
    orbit_intersection_certificate,
    support_check,
)
from hnnfree.presentation import gn, p2
from hnnfree.rewrite import RuleSystem, nf
from hnnfree.words import (
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

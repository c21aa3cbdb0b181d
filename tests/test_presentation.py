import pytest

from hnnfree.presentation import (
    Association,
    HnnPresentation,
    PresentationSyntaxError,
    SemidirectExtension,
    compile_rules,
    gn,
    p2,
    parse_presentation,
    relators,
    validate,
)
from hnnfree.words import (
    EPSILON,
    Alphabet,
    base_gen,
    default_alphabet,
    exp_sum,
    free_reduce,
    parse_word,
    stable_gen,
)


# --- gn presets -------------------------------------------------------------

def test_gn2_is_free():
    p = gn(2)
    assert p.alphabet.base_names == ("y1",)
    assert p.alphabet.stable_names == ("x1",)
    assert p.associations(stable_gen(1)) == ()


def test_gn3_associations():
    p = gn(3)
    x1, x2 = stable_gen(1), stable_gen(2)
    # x1 commutes with y2; x2 commutes with y1 conjugated by y2
    assert p.associations(x1) == (Association(base_gen(2), EPSILON, EPSILON),)
    (a,) = p.associations(x2)
    assert a.y == base_gen(1)
    assert a.w == a.v == (base_gen(2),)


def test_gn_validates_up_to_6():
    for n in range(2, 7):
        assert validate(gn(n)) == []


def test_gn_rejects_small_n():
    with pytest.raises(ValueError):
        gn(1)
    with pytest.raises(ValueError):
        p2(1)


# --- validate ---------------------------------------------------------------

def _presentation_with(assoc: Association) -> HnnPresentation:
    alphabet = Alphabet(("y1", "y2"), ("x1",))
    return HnnPresentation(alphabet, {stable_gen(1): (assoc,)})


def test_validate_footnote_condition():
    # w starting with the associated letter would make w^-1 y w unreduced
    bad = _presentation_with(
        Association(base_gen(1), parse_word("y1 y2", default_alphabet(2, 1)), EPSILON)
    )
    assert any("begins with" in v for v in validate(bad))


def test_validate_conjugator_letters():
    bad = _presentation_with(
        Association(base_gen(1), (stable_gen(1),), EPSILON)
    )
    assert any("base letters" in v or "F(Y)" in v for v in validate(bad))


def test_validate_duplicate_y():
    alphabet = Alphabet(("y1", "y2"), ("x1",))
    a = Association(base_gen(1), EPSILON, EPSILON)
    p = HnnPresentation(alphabet, {stable_gen(1): (a, a)})
    assert any("duplicate" in v for v in validate(p))
    # generators are spelled in the presentation's own alphabet
    named = HnnPresentation(Alphabet(("a", "b"), ("p",)), {stable_gen(1): (a, a)})
    assert validate(named) == ["p:a: duplicate base generator for p"]
    # a code outside the alphabet has no name, so its number is given
    stray = HnnPresentation(Alphabet(("a", "b"), ("p",)), {stable_gen(2): (a,)})
    assert validate(stray) == ["unknown stable generator code 5"]
    stray_base = HnnPresentation(Alphabet(("a",), ("p",)), {stable_gen(1): (a, Association(base_gen(2)))})
    assert validate(stray_base) == ["p:code 4: unknown base generator code 4"]


def test_validate_unknown_base_generator():
    # x2 names a generator, but a stable one
    with pytest.raises(PresentationSyntaxError) as e:
        parse_presentation("base y1\nstable x1 x2\nrel x1 : x2 ^ 1 = x2 ^ 1\n")
    assert str(e.value) == "line 3: x1:x2: unknown base generator 'x2'"


def test_a_validate_fault_names_the_first_line_that_brings_it():
    # line 3 is sound, line 5 repeats a for p and line 6 has an unreduced
    # conjugator: only the first fault is reported, at its own line
    text = ("base a b\nstable p\nrel p : a ^ b = a ^ b\n\n"
            "rel p : a ^ 1 = a ^ 1\nrel p : b ^ a a^-1 = b ^ 1\n")
    with pytest.raises(PresentationSyntaxError) as e:
        parse_presentation(text)
    assert (e.value.line, str(e.value)) == (5, "line 5: p:a: duplicate base generator for p")


def test_validate_unreduced_conjugator():
    alphabet = Alphabet(("y1", "y2"), ("x1",))
    unreduced = parse_word("y2 y2^-1", default_alphabet(2, 1))
    p = HnnPresentation(
        alphabet, {stable_gen(1): (Association(base_gen(1), unreduced, EPSILON),)}
    )
    assert any("reduced" in v for v in validate(p))


# --- compile_rules ----------------------------------------------------------

def test_rule_counts():
    assert len(compile_rules(gn(2))) == 4
    assert len(compile_rules(gn(3))) == 2 * 2 + 2 * 2 + 4 * 2
    assert len(compile_rules(gn(4))) == 36


def test_gn3_rule_shapes():
    p = gn(3)
    rules = compile_rules(p)
    fmt = lambda r: (
        " ".join(p.alphabet.name(abs(c)) + ("" if c > 0 else "^-1") for c in r.lhs),
        " ".join(p.alphabet.name(abs(c)) + ("" if c > 0 else "^-1") for c in r.rhs),
    )
    table = {fmt(r) for r in rules if r.kind in (3, 4)}
    assert ("x1 y2", "y2 x1") in table
    assert ("x2 y2^-1 y1", "y2^-1 y1 y2 x2 y2^-1") in table
    assert ("x2^-1 y2^-1 y1", "y2^-1 y1 y2 x2^-1 y2^-1") in table


def test_rules_preserve_exp_sums():
    p = gn(4)
    for r in compile_rules(p):
        for g in p.base_gens + p.stable_gens:
            assert exp_sum(r.lhs, g) == exp_sum(r.rhs, g), r


def test_kind12_rules_cancel():
    for r in compile_rules(gn(3)):
        if r.kind in (1, 2):
            assert len(r.lhs) == 2 and len(r.rhs) == 0
            assert free_reduce(r.lhs) == EPSILON


def test_compile_is_deterministic():
    a = compile_rules(gn(4))
    b = compile_rules(gn(4))
    assert a == b


# --- p2 presets --------------------------------------------------------------

def test_p2_phi_images():
    ext = p2(2)
    assert ext.phi.apply(ext.parse("x1")) == ext.parse("y1 x1 y1^-1")
    assert ext.phi.apply(ext.parse("y1")) == ext.parse("y1 x1 y1 x1^-1 y1^-1")
    assert ext.phi_inv.apply(ext.parse("y1")) == ext.parse("x1^-1 y1 x1")
    assert ext.phi_inv.apply(ext.parse("x1")) == ext.parse("x1^-1 y1^-1 x1 y1 x1")


def test_p2_maps_mutually_inverse_freely():
    for n in range(2, 9):
        ext = p2(n)
        for g in ext.base.base_gens + ext.base.stable_gens:
            assert ext.phi.apply(ext.phi_inv.apply((g,))) == (g,)
            assert ext.phi_inv.apply(ext.phi.apply((g,))) == (g,)


def test_extension_is_built_from_its_rank():
    for n in (2, 3, 5):
        ext = SemidirectExtension(n)
        assert ext is not p2(n) and p2(n) is p2(n)
        assert ext.rank == n and ext.base is gn(n)
        assert ext.conj == p2(n).conj
        assert ext.alphabet == p2(n).alphabet
        for g in ext.base.base_gens + ext.base.stable_gens:
            assert ext.phi.apply((g,)) == p2(n).phi.apply((g,))
            assert ext.phi_inv.apply((g,)) == p2(n).phi_inv.apply((g,))


def test_p2_alphabet_has_outer():
    ext = p2(3)
    assert "t" in ext.alphabet
    assert "t" not in ext.base.alphabet
    assert ext.parse("t^-1 x1 t")  # parses


def test_p2_phi_fixes_yixi():
    ext = p2(4)
    for i in (1, 2, 3):
        v = ext.parse(f"y{i} x{i}")
        assert ext.phi.apply(v) == v


# --- relators ----------------------------------------------------------------

def test_relators_shape():
    p = gn(3)
    rels = relators(p)
    assert len(rels) == 2
    texts = {" ".join(p.alphabet.name(abs(c)) + ("" if c > 0 else "^-1") for c in r)
             for r in rels}
    # each association (y, w, v) of x becomes the relator x^-1 (y^w) x (y^v)^-1
    assert "x1^-1 y2 x1 y2^-1" in texts
    assert "x2^-1 y2^-1 y1 y2 x2 y2^-1 y1^-1 y2" in texts
    for r in rels:
        assert free_reduce(r) == r


# --- presentation files -------------------------------------------------------

FILE_TEXT = """\
# three base letters, two stable letters, nontrivial two-sided conjugators
base y1 y2 y3
stable x1 x2
rel x1 : y1 ^ y2 y3 = y1 ^ y3 y2
rel x1 : y2 ^ y3^-1 y1 = y2 ^ y1 y3
rel x2 : y3 ^ y1 y1 = y3 ^ y2^-1 y1
"""


def test_parse_presentation_file():
    p = parse_presentation(FILE_TEXT)
    assert isinstance(p, HnnPresentation)
    assert validate(p) == []
    assert len(p.associations(stable_gen(1))) == 2
    assert len(compile_rules(p)) == 2 * 3 + 2 * 2 + 4 * 3


def test_parse_presentation_association_example():
    p = parse_presentation("base y1 y2\nstable x2\nrel x2 : y1 ^ y2 = y1 ^ y2\n")
    (a,) = p.associations(stable_gen(1))
    assert a.y == base_gen(1)
    assert a.w == a.v == (base_gen(2),)


def test_parse_presentation_presets():
    # the presets have no directive in a file: the CLI names them by --preset
    for text in ("preset gn 3", "preset p2 3"):
        with pytest.raises(PresentationSyntaxError) as e:
            parse_presentation(text)
        assert str(e.value) == "line 1: unknown directive 'preset'"


def test_parse_presentation_errors_carry_line():
    with pytest.raises(PresentationSyntaxError) as e:
        parse_presentation("base y1\nstable x1\nrel x1 : y1 = y1\n")
    assert e.value.line == 3
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("stable x1\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("base y1\nstable x1\nrel x9 : y1 ^ 1 = y1 ^ 1\n")


def test_parse_presentation_rejects_repeated_names():
    for text, line in (("base a a\nstable s\n", 1),
                       ("base a b\nstable a\n", 2),
                       ("base a\nstable s\nbase b s\n", 3)):
        with pytest.raises(PresentationSyntaxError) as e:
            parse_presentation(text)
        assert e.value.line == line
        assert "duplicate generator name" in str(e.value)

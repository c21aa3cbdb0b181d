import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnnfree.presentation import gn, p2
from hnnfree.words import (
    EPSILON,
    OUTER,
    Alphabet,
    GeneratorMap,
    WordSyntaxError,
    base_gen,
    commutator,
    conjugate,
    cyclic_reduce,
    default_alphabet,
    exp_sum,
    exp_sums,
    format_word,
    free_reduce,
    identity_map,
    image,
    invert,
    join_reduced,
    parse_word,
    reduce_onto,
    stable_gen,
)

A23 = default_alphabet(2, 2)
A23T = Alphabet(A23.base_names, A23.stable_names, "t")  # as a p2 layer spells t


def w(text, alphabet=A23T):
    return parse_word(text, alphabet)


# --- free_reduce -----------------------------------------------------------

def test_free_reduce_cancellation():
    assert free_reduce(w("x1 x1^-1")) == EPSILON
    assert free_reduce(w("y1 y2 y2^-1 y1")) == w("y1 y1")
    assert free_reduce(w("y1 x1 y1^-1 y1 x1^-1 y1^-1")) == EPSILON


def test_free_reduce_idempotent_on_examples():
    for text in ("x1 x1^-1 x1", "y1 y2^-1 y2 y1^-1", "1"):
        once = free_reduce(w(text))
        assert free_reduce(once) == once


# --- concatenation / invert ------------------------------------------------

def test_concat_literal():
    assert w("x1") + w("y1") == w("x1 y1")
    # concatenation is the monoid product, deliberately unreduced
    assert w("x1") + w("x1^-1") == w("x1 x1^-1")


def test_invert():
    assert invert(w("x1 y2^-1")) == w("y2 x1^-1")
    v = w("y1 x2 y1")
    assert free_reduce(v + invert(v)) == EPSILON


# --- conjugate / commutator ------------------------------------------------

def test_conjugate():
    assert conjugate(w("y1"), w("x1")) == w("x1^-1 y1 x1")
    assert conjugate(w("x1"), w("y1^-1")) == w("y1 x1 y1^-1")
    assert conjugate(w("y1"), w("y1")) == w("y1")


def test_commutator():
    assert commutator(w("y1"), w("x1")) == w("y1 x1 y1^-1 x1^-1")
    # y1 x1 = [y1, x1] x1 y1 as a free identity
    assert free_reduce(commutator(w("y1"), w("x1")) + w("x1 y1")) == w("y1 x1")
    a = w("y1 x2")
    assert commutator(a, a) == EPSILON


# --- exp_sum ---------------------------------------------------------------

def test_exp_sum():
    assert exp_sum(w("y1 x1 y2 x1^-1 x1"), stable_gen(1)) == 1
    assert exp_sum(w("y1 x1"), base_gen(2)) == 0
    assert exp_sum(w("t t y1 t^-1"), OUTER) == 1


# --- projections -----------------------------------------------------------

def test_projections():
    assert image(w("y1 x1 y2 x2"), False)[0] == w("x1 x2")
    assert image(w("y1 x1 y2 x1^-1"), False)[0] == EPSILON
    assert image(w("y1 x1 y2 x1^-1"), False)[1] == w("y1 y2")
    assert image(w("y1 t x1"), False)[0] == w("t x1")  # outer letters survive pi_X
    assert image(w("y1 x1 y1^-1 x1"), False) == (w("x1^2"), EPSILON, None)


# --- generator maps --------------------------------------------------------

def phi22():
    # a map needs an image of every letter it is applied to, t included
    return GeneratorMap({
        stable_gen(1): w("y1 x1 y1^-1"),
        stable_gen(2): w("y2 x2 y2^-1"),
        base_gen(1): w("y1 x1 y1 x1^-1 y1^-1"),
        base_gen(2): w("y2 x2 y2 x2^-1 y2^-1"),
        OUTER: w("t"),
    })


def test_apply_generator_map():
    m = phi22()
    assert m.apply(w("x1")) == w("y1 x1 y1^-1")
    assert m.apply(w("y1")) == w("y1 x1 y1 x1^-1 y1^-1")
    ident = identity_map([base_gen(1), base_gen(2), stable_gen(1), stable_gen(2)])
    assert ident.apply(w("x1 x2 x2^-1 y1")) == w("x1 y1")


def test_apply_generator_map_missing_image():
    m = GeneratorMap({stable_gen(1): w("x1")})
    with pytest.raises(KeyError):
        m.apply(w("y1"))


# --- parsing and formatting ------------------------------------------------

def test_parse_grammar():
    assert len(w("y1*x2^-1 y1")) == 3
    assert w("1") == EPSILON
    assert w("x1^3") == w("x1 x1 x1")
    assert w("y2^-2") == w("y2^-1 y2^-1")


def test_parse_errors_carry_column():
    with pytest.raises(WordSyntaxError) as e:
        parse_word("y1 zz", A23)
    assert e.value.column == 4
    with pytest.raises(WordSyntaxError):
        parse_word("x1^0", A23)
    with pytest.raises(WordSyntaxError):
        parse_word("", A23)
    with pytest.raises(WordSyntaxError):
        parse_word("t", A23)  # no outer letter in this alphabet


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("a", "b"), ("a",))
    # a repeated base name would make its first generator untypeable
    with pytest.raises(ValueError):
        Alphabet(("a", "a"), ("p",))


def test_alphabet_spells_only_its_own_codes():
    # one name table per word: a code outside it has no default name
    assert gn(3).alphabet.name(stable_gen(2)) == "x2" and p2(3).alphabet.name(OUTER) == "t"
    for code in (OUTER, base_gen(3), stable_gen(3)):
        with pytest.raises(KeyError, match=f"no generator has code {code}"):
            gn(3).alphabet.name(code)
    with pytest.raises(KeyError):
        format_word((OUTER,), gn(3).alphabet)


def test_format_is_canonical_spelling():
    assert format_word(w("y1 x1^-1 y2"), A23T) == "y1 x1^-1 y2"
    assert format_word(EPSILON, A23T) == "1"
    assert format_word(w("t^-1 y1 t"), A23T) == "t^-1 y1 t"


# --- property tests --------------------------------------------------------

gens23 = [base_gen(1), base_gen(2), stable_gen(1), stable_gen(2), OUTER]
letters_st = st.builds(
    lambda g, s: g * s, st.sampled_from(gens23), st.sampled_from((1, -1))
)
words_st = st.builds(tuple, st.lists(letters_st, max_size=30))


@given(words_st)
def test_reduce_idempotent_and_clean(wd):
    r = free_reduce(wd)
    assert free_reduce(r) == r
    assert len(r) <= len(wd)
    for a, b in zip(r, r[1:]):
        assert a != -b


@given(words_st, st.sampled_from(gens23))
def test_exp_sum_reduction_invariant(wd, g):
    assert exp_sum(free_reduce(wd), g) == exp_sum(wd, g)


@given(words_st)
def test_exp_sums_are_the_nonzero_sums_of_every_generator(wd):
    # a generator that occurs only inverted has its sum too
    assert exp_sums(wd) == {g: exp_sum(wd, g) for g in gens23 if exp_sum(wd, g)}


def test_exp_sums_example():
    assert exp_sums(w("y1^-2 x1 y2 x1^-1 y2^-1")) == {base_gen(1): -2}
    assert exp_sums(EPSILON) == {}


@given(words_st)
def test_projection_commutes_with_reduction(wd):
    assert image(free_reduce(wd)) == image(wd)


@given(words_st, words_st)
def test_reduce_onto_extends_a_reduced_word_in_place(u, v):
    r = list(free_reduce(u))
    out = reduce_onto(r, v)
    assert out is r and out == list(free_reduce(u + v))


@given(words_st, words_st, words_st)
def test_join_reduced_cancels_only_at_the_seam(u, v, c):
    # c and its inverse meet at the seam, so whole stretches cancel there
    a, b = free_reduce(u + c), free_reduce(invert(c) + v)
    assert join_reduced(a, b) == free_reduce(a + b)
    assert join_reduced(a, invert(a)) == EPSILON


@given(words_st)
def test_format_parse_roundtrip(wd):
    r = free_reduce(wd)
    assert parse_word(format_word(r, A23T) or "1", A23T) == r


@given(words_st, words_st)
def test_map_is_homomorphism_up_to_reduction(u, v):
    m = phi22()
    lhs = m.apply(u + v)
    rhs = free_reduce(m.apply(u) + m.apply(v))
    assert lhs == rhs


@given(words_st)
def test_invert_is_involutive_antihomomorphism(wd):
    assert invert(invert(wd)) == wd
    assert free_reduce(wd + invert(wd)) == EPSILON


@given(words_st, words_st)
def test_cyclic_reduce_strips_a_conjugator(wd, c):
    u, r = free_reduce(wd), cyclic_reduce(wd)
    assert cyclic_reduce(r) == r
    # u is p r p^-1 for its prefix p, and r r is freely reduced
    k = (len(u) - len(r)) // 2
    assert u == u[:k] + r + invert(u[:k])
    assert len(free_reduce(r + r)) == 2 * len(r)
    assert cyclic_reduce(conjugate(wd, c)) in {r[i:] + r[:i] for i in range(max(1, len(r)))}

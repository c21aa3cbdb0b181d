import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artin import artin_equal, artin_trivial
from hnnfree import braid, words
from hnnfree.braid import (
    T_WORD,
    BraidSplitting,
    Group,
    braid_equal,
    braid_freeness_check,
    braid_trivial,
    free_factor_probe,
    phi_power,
    resolve_braid_names,
    semidirect_nf,
    split_nf,
    verify_braid_relations,
    verify_extension,
)
from hnnfree.pingpong import Bounds
from hnnfree.presentation import SemidirectExtension, gn, p2, relators
from hnnfree.rewrite import RuleSystem, nf
from hnnfree.words import (
    EPSILON,
    CapExceeded,
    Word,
    base_gen,
    commutator,
    conjugate,
    cyclic_reduce,
    exp_sum,
    format_word,
    free_reduce,
    image,
    invert,
    stable_gen,
    OUTER,
    WordSyntaxError,
)

E2, E3, E4 = p2(2), p2(3), p2(4)


def rand_braid(rng: random.Random, ext, max_len: int) -> Word:
    a = ext.alphabet
    names = a.base_names + a.stable_names + ("t",)
    return tuple(
        a.gen(rng.choice(names)) * rng.choice((1, -1))
        for _ in range(rng.randint(1, max_len))
    )


def as_word(e) -> Word:
    out = e.g
    step = T_WORD if e.k > 0 else invert(T_WORD)
    for _ in range(abs(e.k)):
        out = out + step
    return out


# --- the outer conjugation map ---------------------------------------------------

def test_phi_images():
    assert format_word(phi_power(E2, E2.parse("x1"), 1), E2.alphabet) == "y1 x1 y1^-1"
    assert format_word(phi_power(E2, E2.parse("y1"), 1), E2.alphabet) == "y1 x1 y1 x1^-1 y1^-1"
    assert format_word(phi_power(E2, E2.parse("x1"), -1), E2.alphabet) == "x1^-1 y1^-1 x1 y1 x1"
    assert format_word(phi_power(E2, E2.parse("y1"), -1), E2.alphabet) == "x1^-1 y1 x1"


def test_phi_fixes_the_products_yi_xi():
    for n in range(2, 9):
        ext = p2(n)
        for i in range(1, n):
            w = ext.parse(f"y{i} x{i}")
            # a power far past the phi power cap stops at the first image
            for k in (1, -1, 10 ** 12, -10 ** 12):
                assert phi_power(ext, w, k) == w


def test_phi_power_round_trips():
    u = E3.parse("x1 y2^-1 x2 y1")
    for k in (1, 2, 3, 4):
        assert phi_power(E3, phi_power(E3, u, k), -k) == free_reduce(u)
    assert phi_power(E3, u, 0) == free_reduce(u)


def test_phi_power_cap_counts_the_letters_of_every_image(monkeypatch):
    # phi^k(x1^j) = z^k x1^j z^-k, z = y1 x1, holds 4k + j - 2 letters
    # reduced: 100 for k = 6 after the 78th image of x1, 101 after the 79th
    monkeypatch.setattr(words, "WORD_CAP", 100)
    assert len(phi_power(E3, E3.parse("x1^78"), 6)) == 100
    with pytest.raises(CapExceeded, match="phi power cap 100 exceeded"):
        phi_power(E3, E3.parse("x1^79"), 6)
    # an image of 4k + 1 letters, before reduction, past the cap is not built
    x1 = E3.parse("x1")
    assert len(phi_power(E3, x1, 24)) == 95
    with pytest.raises(CapExceeded, match="phi power cap 100 exceeded"):
        phi_power(E3, x1, 25)
    # so a power far too large to compute stops at once
    with pytest.raises(CapExceeded, match="phi power cap"):
        phi_power(E3, x1, -10 ** 12)


def test_phi_power_rejects_outer_letters():
    with pytest.raises(ValueError):
        phi_power(E2, E2.parse("x1 t"), 1)


# --- pushed normal form --------------------------------------------------------------

def test_push_moves_t_to_the_right():
    # t^-1 g t realizes phi, t g t^-1 realizes its inverse
    assert semidirect_nf(E2, E2.parse("t^-1 x1 t")).render(E2.alphabet) == "(y1 x1 y1^-1, t^0)"
    assert semidirect_nf(E2, E2.parse("t x1 t^-1")).render(E2.alphabet) == "(x1^-1 y1^-1 x1 y1 x1, t^0)"
    assert semidirect_nf(E2, E2.parse("x1 t y1")).render(E2.alphabet) == "(y1 x1, t^1)"
    e = semidirect_nf(E3, E3.parse("t^3"))
    assert not e.g and e.k == 3
    assert semidirect_nf(E2, E2.parse("1")).is_identity


def test_push_builds_each_power_from_the_one_before():
    # each image in closed form: linear in the depth K
    w = E3.parse("t x1") * 300
    t0 = time.perf_counter()
    e = semidirect_nf(E3, w)
    assert time.perf_counter() - t0 < 1.0
    assert e.k == 300


def test_push_cap_counts_the_pushed_letters(monkeypatch):
    # the j-th x1 at t-depth 3 leaves z^-3 x1^j z^3, z = y1 x1, held: 12 + j
    # letters, so 10 of them hold 22
    w = E2.parse("t^3 x1^10")
    expected = semidirect_nf(E2, w)
    monkeypatch.setattr(words, "WORD_CAP", 22)
    assert semidirect_nf(E2, w) == expected
    monkeypatch.setattr(words, "WORD_CAP", 21)
    with pytest.raises(CapExceeded, match="phi power cap 21 exceeded"):
        semidirect_nf(E2, w)


# --- references: the iterated map and the letter-by-letter push ----------------------

def iterated_phi_power(ext, w: Word, k: int) -> Word:
    """phi^k(w) by |k| applications of phi or phi_inv, stopping at a fixed
    word; past WORD_CAP letters of images in all it raises."""
    m = ext.phi if k > 0 else ext.phi_inv
    cap, built, out = words.WORD_CAP, 0, free_reduce(w)
    for _ in range(abs(k)):
        out, last = m.apply(out), out
        if out == last:
            break
        built += len(out)
        if built > cap:
            raise CapExceeded("phi power", cap)
    return out


def letter_push(ext, w: Word) -> braid.SemidirectElement:
    """Push each base letter c after t^d as iterated_phi_power(ext, (c,), -d);
    past WORD_CAP pushed letters it raises."""
    k, cap, parts = 0, words.WORD_CAP, []
    for c in free_reduce(w):
        if abs(c) == OUTER:
            k += 1 if c > 0 else -1
        else:
            parts += iterated_phi_power(ext, (c,), -k)
            if len(parts) > cap:
                raise CapExceeded("phi power", cap)
    return braid.SemidirectElement(nf(free_reduce(parts), RuleSystem(ext.base)), k)


def one_image(depths) -> int:
    # the longest image 2|k||z| + 1 of one letter, |z| = 2 in every p2(n)
    return max((4 * abs(k) + 1 for k in depths), default=1)


def under_cap(cap: int, f):
    """f() with WORD_CAP at cap, or None where it raises past the cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "WORD_CAP", cap)
        try:
            return f()
        except CapExceeded:
            return None


@settings(max_examples=400)
@given(st.data())
def test_closed_form_agrees_with_the_references(data):
    # under a cap of a few hundred letters: wherever a reference answers
    # with one image of headroom, phi_power and semidirect_nf give its answer
    ext = p2(data.draw(st.integers(2, 5)))
    base = [s * g for g in ext.base.base_gens + ext.base.stable_gens for s in (1, -1)]
    w = tuple(data.draw(st.lists(st.sampled_from(base), max_size=12)))
    k = data.draw(st.integers(-30, 30))
    cap = data.draw(st.integers(100, 400))
    expected = under_cap(cap - one_image([k]), lambda: iterated_phi_power(ext, w, k))
    if expected is not None:
        assert under_cap(cap, lambda: phi_power(ext, w, k)) == expected
    # the pushed word starts at t-depth k
    u = free_reduce((OUTER if k > 0 else -OUTER,) * abs(k) + tuple(
        data.draw(st.lists(st.sampled_from(base + [OUTER, -OUTER]), max_size=12))))
    depths, d = [], 0
    for c in u:
        if abs(c) == OUTER:
            d += 1 if c > 0 else -1
        else:
            depths.append(d)
    expected = under_cap(cap - one_image(depths), lambda: letter_push(ext, u))
    if expected is not None:
        assert under_cap(cap, lambda: semidirect_nf(ext, u)) == expected


def test_push_agrees_with_phi_power_on_random_words():
    rng = random.Random(11)
    for _ in range(100):
        w = rand_braid(rng, E3, 30)
        k, parts = 0, []
        for c in w:
            if abs(c) == OUTER:
                k += 1 if c > 0 else -1
            else:
                parts.extend(phi_power(E3, (c,), -k))
        assert semidirect_nf(E3, w) == braid.SemidirectElement(
            nf(free_reduce(parts), RuleSystem(E3.base)), k)


def test_push_counts_only_the_letters_of_the_reduced_word():
    # t^300 x1^500 x1^-500 pushes nothing; as written, its 1,000 x1 letters
    # would push about 1,000 images of 1,201 letters, past the cap
    w = E2.parse("t^300 x1^500 x1^-500")
    assert semidirect_nf(E2, w) == braid.SemidirectElement((), 300)


def test_push_t_exponent_is_exp_sum():
    rng = random.Random(7)
    for _ in range(50):
        w = rand_braid(rng, E3, 12)
        assert semidirect_nf(E3, w).k == exp_sum(w, OUTER)


@given(st.integers(0, 10_000))
def test_push_is_multiplicative_over_free_base(seed):
    # exact multiplicativity needs the base rules to be plain free reduction;
    # from rank 3 on the pushed forms of equal words may differ (see the flaw
    # test below), but they always stay equal as group elements
    rng = random.Random(seed)
    u, v = rand_braid(rng, E2, 8), rand_braid(rng, E2, 8)
    lhs = semidirect_nf(E2, u + v)
    rhs = semidirect_nf(E2, as_word(semidirect_nf(E2, u)) + as_word(semidirect_nf(E2, v)))
    assert lhs == rhs


@given(st.integers(0, 10_000))
def test_push_respects_group_multiplication(seed):
    rng = random.Random(seed)
    u, v = rand_braid(rng, E3, 8), rand_braid(rng, E3, 8)
    lhs, rhs = semidirect_nf(E3, u), semidirect_nf(E3, v)
    assert lhs.k + rhs.k == exp_sum(u + v, OUTER)
    rebuilt = as_word(lhs) + as_word(rhs)
    assert braid_equal(E3, u + v, rebuilt)


def test_push_identity_is_sound():
    # whenever the push reaches (1, t^0) the word is trivial for the faithful oracle
    rng = random.Random(11)
    rels = [e.relator for e in verify_braid_relations(3).entries]
    for _ in range(25):
        c = rand_braid(rng, E3, 6)
        w = conjugate(rng.choice(rels), c)
        e = semidirect_nf(E3, w)
        if e.is_identity:
            assert artin_trivial(w, 3)
        assert braid_trivial(E3, w) and artin_trivial(w, 3)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_push_never_calls_a_nontrivial_word_trivial(data):
    # words w = u r1^c1 ... v with conjugated relators r put in, so that some
    # are trivial (v = u^-1) and the rest mostly not: the push may miss a
    # trivial word from rank 3 on, but an identity push is always trivial,
    # and at rank 2 the push is complete
    n = data.draw(st.integers(2, 4))
    ext, rng = p2(n), random.Random(data.draw(st.integers(0, 10 ** 6)))
    rels = [e.relator for e in verify_braid_relations(n).entries] + relators(ext.base)
    u = rand_braid(rng, ext, 6)
    w = list(u)
    for _ in range(data.draw(st.integers(0, 2))):
        at = rng.randint(0, len(w))
        w[at:at] = conjugate(rng.choice(rels), rand_braid(rng, ext, 3))
    w = free_reduce(tuple(w) + (invert(u) if data.draw(st.booleans()) else ()))
    pushed = semidirect_nf(ext, w).is_identity
    if pushed:
        assert braid_trivial(ext, w)
    if n == 2:
        assert pushed == braid_trivial(ext, w)


def test_push_misses_a_trivial_word_from_rank_three_on():
    # the commutator [x2, y1^x1] is trivial in the braid layer but the push
    # leaves a nonempty remainder: the pushed form is incomplete at n >= 3
    flaw = free_reduce(commutator(E3.parse("x2"), conjugate(E3.parse("y1"), E3.parse("x1"))))
    e = semidirect_nf(E3, flaw)
    assert not e.is_identity
    assert braid_trivial(E3, flaw)
    assert artin_trivial(flaw, 3)


def test_center_of_rank_two_layer():
    z = E2.parse("y1 x1 t")
    for g in ("x1", "y1", "t"):
        u, v = z + E2.parse(g), E2.parse(g) + z
        assert semidirect_nf(E2, u) == semidirect_nf(E2, v)
        assert braid_equal(E2, u, v)


# --- the exact splitting -----------------------------------------------------------

def test_split_fixtures():
    assert split_nf(E2, E2.parse("y1 x1")).render(E2.alphabet) == "(y1 | x1)"
    assert split_nf(E2, E2.parse("x1 y1")).render(E2.alphabet) == "(y1 | x1 t x1 t^-1 x1^-1)"
    assert split_nf(E2, E2.parse("1")).is_identity
    assert not split_nf(E2, E2.parse("t")).is_identity


def test_split_requires_rank_two():
    with pytest.raises(ValueError):
        BraidSplitting(1)


@given(st.integers(0, 10_000))
def test_split_agrees_with_artin_rank_three(seed):
    rng = random.Random(seed)
    w = rand_braid(rng, E3, 12)
    assert split_nf(E3, w).is_identity == artin_trivial(w, 3)


def test_split_agrees_with_artin_rank_four():
    rng = random.Random(23)
    for _ in range(60):
        w = rand_braid(rng, E4, 10)
        assert split_nf(E4, w).is_identity == artin_trivial(w, 4)


def test_split_equality_matches_artin():
    rng = random.Random(5)
    rels = [e.relator for e in verify_braid_relations(3).entries]
    for _ in range(30):
        u = rand_braid(rng, E3, 8)
        v = u + conjugate(rng.choice(rels), rand_braid(rng, E3, 4))
        assert braid_equal(E3, u, v)
        assert artin_equal(u, v, 3)
        shifted = u + (stable_gen(1),)
        assert not braid_equal(E3, u, shifted)
        assert not artin_equal(u, shifted, 3)


# --- the decision path: three refutations, then the splitting -----------------------

LAYERS = {2: E2, 3: E3, 4: E4}
RELATORS = {n: [e.relator for e in verify_braid_relations(n).entries] for n in LAYERS}


def layer_letters(n: int) -> list[int]:
    gens = [OUTER] + [f(i) for i in range(1, n) for f in (base_gen, stable_gen)]
    return [s * g for g in gens for s in (1, -1)]


@st.composite
def layer_word(draw, n: int, kind: str) -> Word:
    """A random word, a conjugate of a relator, or a commutator [w, t]: the
    last two have trivial F(Y) projection and zero exponent sums, so only
    the splitting decides them."""
    short = st.lists(st.sampled_from(layer_letters(n)), max_size=5).map(tuple)
    if kind == "random":
        return draw(st.lists(st.sampled_from(layer_letters(n)), max_size=10).map(tuple))
    if kind == "relator":
        c = draw(short)
        return invert(c) + draw(st.sampled_from(RELATORS[n])) + c
    return commutator(draw(short), T_WORD)


KINDS = ("random", "relator", "commutator")


@pytest.mark.parametrize("n", sorted(LAYERS))
@given(data=st.data())
def test_trivial_agrees_with_split_and_artin(n, data):
    w = data.draw(layer_word(n, data.draw(st.sampled_from(KINDS))))
    ext = LAYERS[n]
    assert braid_trivial(ext, w) == split_nf(ext, w).is_identity == artin_trivial(w, n)


@pytest.mark.parametrize("n", sorted(LAYERS))
@given(data=st.data())
def test_split_y_part_is_the_base_projection(n, data):
    w = data.draw(layer_word(n, data.draw(st.sampled_from(KINDS))))
    y_part = split_nf(LAYERS[n], w).y_part
    assert y_part == image(w, False)[1] == free_reduce(c for c in w if not c & 1)


@pytest.mark.parametrize("n", sorted(LAYERS))
@given(data=st.data())
def test_equal_agrees_with_artin(n, data):
    u = data.draw(st.lists(st.sampled_from(layer_letters(n)), max_size=5).map(tuple))
    v = u + data.draw(layer_word(n, data.draw(st.sampled_from(KINDS))))
    assert braid_equal(LAYERS[n], u, v) == artin_equal(u, v, n)
    assert braid_equal(LAYERS[n], v, u) == artin_equal(v, u, n)


@pytest.mark.parametrize("n", sorted(LAYERS))
@given(data=st.data())
def test_trivial_is_the_same_on_every_cyclic_conjugate(n, data):
    w = data.draw(layer_word(n, data.draw(st.sampled_from(KINDS))))
    trivial = artin_trivial(w, n)
    for i in range(len(w)):
        assert braid_trivial(LAYERS[n], w[i:] + w[:i]) == trivial


class Counting(BraidSplitting):
    """A splitting that records each word it splits."""

    def __init__(self, n: int):
        super().__init__(n)
        self.calls = []

    def x_part(self, w):
        self.calls.append(w)
        return super().x_part(w)


def test_screens_refute_before_the_splitting():
    split = Counting(3)
    # the F(Y) projection refutes the first word, the x1 and t sums the others
    assert not split.is_trivial(E3.parse("x1 y1 x1^-1"))
    assert not split.is_trivial(E3.parse("y1 x1 y1^-1"))
    assert not split.is_trivial(E3.parse("t y2 t y2^-1"))
    assert split.calls == []
    # [x1, t] is a nonempty reduced word of F(X, t), refuted unsplit;
    # [y1 x1, t] passes every screen and is split
    assert not split.is_trivial(commutator(E3.parse("x1"), T_WORD))
    assert split.is_trivial(commutator(E3.parse("y1 x1"), T_WORD))
    assert len(split.calls) == 1


@settings(max_examples=300)
@given(n=st.integers(2, 5), reduced=st.booleans(), data=st.data())
def test_a_word_without_base_letters_is_decided_as_its_split_decides_it(n, reduced, data):
    # words of F(X, t), reduced or not, the empty word included: a reduced
    # nonempty one is refuted before the splitting, the others as before
    x_t = [c for c in layer_letters(n) if c & 1]
    w = tuple(data.draw(st.lists(st.sampled_from(x_t), max_size=12)))
    if reduced:
        w = free_reduce(w)
    split = Counting(n)
    trivial = split.is_trivial(w)
    assert trivial == (not BraidSplitting(n).x_part(cyclic_reduce(w)))
    if len(w) <= 8:
        assert trivial == artin_trivial(w, n)
    if w and free_reduce(w) == w:
        assert split.calls == []


def test_x_part_cap_applies_only_to_the_splitting(monkeypatch):
    monkeypatch.setattr(braid, "X_PART_CAP", 0)
    # screened words never reach the splitting, so the cap cannot fire
    assert not braid_trivial(E3, E3.parse("x1 y1^3"))
    assert not braid_equal(E3, E3.parse("x1 y1^3"), E3.parse("x1"))
    with pytest.raises(CapExceeded, match="splitting x-part cap 0 exceeded"):
        braid_trivial(E3, commutator(E3.parse("x1 y1^3"), T_WORD))
    with pytest.raises(CapExceeded, match="splitting x-part cap"):
        split_nf(E3, E3.parse("x1 y1"))


def _closed_form_tables(n):
    """BraidSplitting's action tables from P = x_j t and Q = t x_j:
    y_j^-1 g y_j is P g P^-1 for g = x_j, t, (P Q^-1) g (P Q^-1)^-1 for
    g = x_i, i > j, and g for x_i, i < j; y_j g y_j^-1 is the same with
    P^-1 for P and P^-1 Q for P Q^-1."""
    t, tables = OUTER, {}
    for j in range(1, n):
        xj = stable_gen(j)
        p, q = (xj, t), (t, xj)
        for y, c, d in ((base_gen(j), p, p + invert(q)), (-base_gen(j), invert(p), invert(p) + q)):
            table = {x: (x,) if x < xj else conjugate((x,), invert(c if x == xj else d))
                     for x in map(stable_gen, range(1, n))}
            table[t] = conjugate((t,), invert(c))
            table.update({-g: invert(img) for g, img in table.items()})
            tables[y] = table
    return tables


def _table_faults(split, n):
    """Where the two tables of some y_j are not mutually inverse, or an image
    changes the x/t exponent sums of its letter (the screens of is_trivial
    rely on both)."""
    odd = [OUTER] + [stable_gen(i) for i in range(1, n)]
    name, faults = p2(n).alphabet.name, []
    for y, table in split._tables.items():
        for g, img in table.items():
            if split.act(-y, split.act(y, [g])) != [g]:
                faults.append(f"not mutually inverse at {name(abs(y))}, {name(abs(g))}")
            if any(exp_sum(img, h) != exp_sum((g,), h) for h in odd):
                faults.append(f"changes the exponent sums of {name(abs(g))}")
    return faults


@pytest.mark.parametrize("n", range(2, 9))
def test_action_tables_are_conjugations_by_p_and_q(n):
    split = BraidSplitting(n)
    assert split._tables == _closed_form_tables(n)
    assert _table_faults(split, n) == []


def test_action_tables_must_keep_exponent_sums():
    # x2 -> x2 t and x2 -> x2 t^-1 are mutually inverse, but change the sums
    split = BraidSplitting(3)
    y, x2 = base_gen(1), stable_gen(2)
    fwd = {g: (g,) for g in split._tables[y]}
    bwd = dict(fwd)
    fwd[x2], fwd[-x2] = (x2, OUTER), (-OUTER, -x2)
    bwd[x2], bwd[-x2] = (x2, -OUTER), (OUTER, -x2)
    split._tables[y], split._tables[-y] = fwd, bwd
    faults = _table_faults(split, 3)
    assert "changes the exponent sums of x2" in faults
    assert not any(f.startswith("not mutually inverse") for f in faults)
    bwd[x2] = (x2,)
    assert "not mutually inverse at y1, x2" in _table_faults(split, 3)


def test_splitting_is_built_without_acting():
    calls = []

    class Counting(BraidSplitting):
        def act(self, y, u):
            calls.append(y)
            return super().act(y, u)

    for n in range(2, 9):
        Counting(n)
    assert calls == []


# --- extension verification --------------------------------------------------------

def test_extension_report_rank_two():
    rep = verify_extension(E2)
    assert rep.ok
    # the rank-two base is free, so only the map-level checks remain
    assert [c.name for c in rep.checks] == ["maps_mutually_inverse", "projects_to_identity"]


def test_extension_report_fails_from_rank_three():
    for ext in (E3, E4):
        rep = verify_extension(ext)
        assert not rep.ok
        bad = [c for c in rep.checks if not c.ok]
        assert bad and all(c.name.startswith("relator_image_trivial") for c in bad)
        assert all("normal form" in c.witness for c in bad)
        assert "FAIL" in rep.render()


def test_extension_takes_only_its_rank():
    # an extension whose t commutes with everything cannot be built, so no
    # group is decided with p2's splitting in its place
    with pytest.raises(TypeError):
        SemidirectExtension(gn(2), {base_gen(1): (), stable_gen(1): ()})
    g = Group(SemidirectExtension(2))
    assert not g.equal(g.parse("t x1"), g.parse("x1 t"))
    assert g.equal(g.parse("t y1 x1"), g.parse("y1 x1 t"))
    assert [c.name for c in verify_extension(E2).checks][-2:] == [
        "maps_mutually_inverse", "projects_to_identity"]


# --- the two relation families -------------------------------------------------------

def test_relations_rank_two_all_push():
    rep = verify_braid_relations(2)
    assert rep.ok and rep.all_push
    assert len(rep.entries) == 4


def test_relations_rank_three_needs_the_splitting():
    rep = verify_braid_relations(3)
    assert rep.ok and not rep.all_push
    assert len(rep.entries) == 12
    settled = [e for e in rep.entries if e.settled_by == "split"]
    assert [e.label() for e in settled] == ["R3(i=2, j=1)"]
    assert settled[0].pushed.render(p2(3).alphabet) == (
        "(y1^-1 x2 x1^-1 y1 x1 x2^-1 x1^-1 y1^-1 x1 y1, t^0)"
    )
    assert "via split" in rep.render()


def test_relations_rank_four_split_set():
    rep = verify_braid_relations(4)
    assert rep.ok and not rep.all_push
    settled = sorted(e.label() for e in rep.entries if e.settled_by == "split")
    assert settled == ["R3(i=2, j=1)", "R3(i=3, j=1)", "R3(i=3, j=2)"]


def test_rank_three_kernel_witness():
    # the R3 push remainder is trivial in the braid layer, yet its normal form
    # in gn(3) is nonempty: the map from gn(3) to the braid layer is not
    # injective, which is why criterion 06 cannot hold from rank 3 on
    text = "y1^-1 x2 x1^-1 y1 x1 x2^-1 x1^-1 y1^-1 x1 y1"
    assert nf(gn(3).parse(text), RuleSystem(gn(3)))
    assert artin_trivial(E3.parse(text), 3)
    assert braid_trivial(E3, E3.parse(text))


def test_relations_are_decided_by_the_splitting(monkeypatch):
    # every rank-2 relator pushes to the identity pair, yet only the
    # splitting's answer counts
    monkeypatch.setattr(BraidSplitting, "is_trivial", lambda self, w: False)
    rep = verify_braid_relations(2)
    assert rep.all_push
    assert not any(e.trivial for e in rep.entries) and not rep.ok


def test_relations_confirmed_by_artin():
    for n, rep in ((2, verify_braid_relations(2)), (3, verify_braid_relations(3))):
        assert all(artin_trivial(e.relator, n) for e in rep.entries)


# --- freeness certificates -----------------------------------------------------------

def test_freeness_certifies_the_standard_basis():
    for n in (3, 4):
        ws = [p2(n).parse(f"x{i}") for i in range(1, n)]
        assert braid_freeness_check(n, ws).verdict == "certified"


def test_freeness_certifies_a_nontrivial_sample():
    ws = [E3.parse("x1 y2"), E3.parse("x2^2")]
    assert braid_freeness_check(3, ws).verdict == "certified"


def test_freeness_refutes_the_direct_product_sample():
    ws = [E3.parse("y1 x1"), E3.parse("y2 x2")]
    cert = braid_freeness_check(3, ws)
    assert cert.verdict == "refuted"
    bad = [c for c in cert.conditions if not c.ok]
    assert [c.name for c in bad] == [
        "commutator_with_t_nontrivial[w1]",
        "commutator_with_t_nontrivial[w2]",
    ]
    assert bad[0].witness == "[y1 x1, t] = 1"


def test_freeness_pushes_nothing(monkeypatch):
    braid._system.cache_clear()
    ws = [E3.parse("x1^50 y2"), E3.parse("x2")]
    # no push, so no push cap: the splitting alone decides condition (2)
    monkeypatch.setattr(words, "WORD_CAP", 0)
    cert = braid_freeness_check(3, ws)
    assert cert.verdict == "certified"
    assert braid._system.cache_info().currsize == 0


@pytest.mark.parametrize("n", sorted(LAYERS))
@given(data=st.data())
def test_freeness_commutator_condition_agrees_with_artin(n, data):
    # t-powers commute with t though they are nontrivial, so deciding w
    # itself instead of [w, t] fails here
    w = data.draw(st.one_of(
        st.lists(st.sampled_from(layer_letters(n)), max_size=10).map(tuple),
        st.lists(st.sampled_from((OUTER, -OUTER)), min_size=1, max_size=3).map(tuple),
    ))
    pad = [(stable_gen(i),) for i in range(2, n)]
    cert = braid_freeness_check(n, [w, *pad])
    (cond,) = [c for c in cert.conditions if c.name == "commutator_with_t_nontrivial[w1]"]
    # [w, t] = 1 iff w t = t w; the oracle's images of the commutator itself
    # grow exponentially in its twice longer word
    assert cond.ok == (not artin_equal(w + T_WORD, T_WORD + w, n))


def test_freeness_checks_word_count_and_strictness():
    with pytest.raises(ValueError):
        braid_freeness_check(3, [E3.parse("x1")])
    ws = [E3.parse("x2 x1 x2^-1"), E3.parse("x2")]
    assert braid_freeness_check(3, ws).verdict == "certified"
    strict = braid_freeness_check(3, ws, strict=True)
    assert strict.verdict == "inconclusive"  # a failed hypothesis, no relation
    bad = [c for c in strict.conditions if not c.ok]
    assert [c.name for c in bad] == ["letters_within_support[w1]"]
    assert "x2" in bad[0].witness
    # <x1 t, t> = F(x1, t) is free, though x1 t fails the exponent pattern
    assert braid_freeness_check(2, [E2.parse("x1 t")]).verdict == "inconclusive"


# words that commute with t: t fixes each z_i = y_i x_i
def _t_centralizer_word(n: int):
    gens = [T_WORD] + [(base_gen(i), stable_gen(i)) for i in range(1, n)]
    chunks = st.sampled_from(gens + [invert(g) for g in gens])
    return st.lists(chunks, max_size=4).map(lambda ws: sum(ws, ()))


@pytest.mark.parametrize("n", sorted(LAYERS))
@given(data=st.data())
def test_freeness_refutes_only_by_a_relation_artin_confirms(n, data):
    word = st.one_of(st.lists(st.sampled_from(layer_letters(n)), max_size=8).map(tuple),
                     _t_centralizer_word(n))
    ws = data.draw(st.lists(word, min_size=n - 1, max_size=n - 1))
    cert = braid_freeness_check(n, ws, strict=data.draw(st.booleans()))
    related = [i for i, w in enumerate(ws, start=1)
               if not next(c.ok for c in cert.conditions
                           if c.name == f"commutator_with_t_nontrivial[w{i}]")]
    assert (cert.verdict == "refuted") == bool(related) == (cert.witness is not None)
    # [w, t] = 1 iff w t = t w, which the oracle decides on the short words
    for i in related:
        assert artin_equal(ws[i - 1] + T_WORD, T_WORD + ws[i - 1], n)
    # the witness is the first such [w_i, t], and the oracle confirms it
    if cert.witness is not None:
        w = next(w for w in ws if commutator(w, T_WORD) == cert.witness)
        assert w == ws[related[0] - 1] and artin_equal(w + T_WORD, T_WORD + w, n)


# --- alternating-product probe -------------------------------------------------------

def test_probe_passes_for_x1():
    rep = free_factor_probe(E2, [E2.parse("x1")], Bounds())
    assert rep.verdict == "pass"
    assert rep.checked > 0


def test_probe_fails_for_y1_x1_with_minimal_witness():
    rep = free_factor_probe(E2, [E2.parse("y1 x1")], Bounds())
    assert rep.verdict == "fail"
    assert format_word(rep.witness, E2.alphabet) == "y1 x1 t x1^-1 y1^-1 t^-1"
    assert rep.witness_factors == ("H: (y1 x1)", "t^1", "H: (y1 x1)^-1", "t^-1")


def test_probe_with_no_h_generators_checks_t_powers_only():
    rep = free_factor_probe(E2, [], Bounds())
    assert rep.verdict == "pass"
    assert rep.checked == 4


def test_probe_budget_and_input_validation():
    rep = free_factor_probe(E2, [E2.parse("x1")], Bounds(max_products=3))
    assert rep.verdict == "inconclusive"
    assert "budget" in rep.note
    with pytest.raises(ValueError):
        free_factor_probe(E2, [E2.parse("x1 t")], Bounds())


# --- braid generator names -----------------------------------------------------------

def test_resolve_braid_names():
    # each term is rewritten in place, padded to its own width
    assert resolve_braid_names("A1_4 A3_4^-1 A2_3^2", 3) == "x1   t^-1    y2^2  "
    assert resolve_braid_names("A1_3*A2_3", 2) == "x1  *t   "
    assert resolve_braid_names("A1_2", 2) == "y1  "
    assert resolve_braid_names("x1 y2^-1", 3) == "x1 y2^-1"
    w = E3.parse(resolve_braid_names("A1_4 A1_3", 3))
    assert format_word(w, E3.alphabet) == "x1 y1"
    with pytest.raises(ValueError):
        resolve_braid_names("A1_2", 3)
    with pytest.raises(ValueError):
        resolve_braid_names("A9_99", 3)


def test_resolve_braid_names_keeps_other_text_as_typed():
    # a term that is not well formed, or not a whole term, stays as it is
    for text in ("A1_4^x", "A1_4^2x", "zA1_4", " A1_4y ", "A1_4^^2"):
        assert resolve_braid_names(text, 3) == text
    assert resolve_braid_names(" \tA1_4 **A1_3^-2 ", 3) == " \tx1   **y1^-2   "


RANK3_TERMS = [f"{name}{exp}" for name in ("A1_4", "A2_4", "A3_4", "A1_3", "A2_3")
               for exp in ("", "^2", "^-1", "^+3")]
SEPARATORS = st.text(alphabet=" *\t", min_size=1, max_size=3)


@given(before=st.lists(st.tuples(st.sampled_from(RANK3_TERMS), SEPARATORS), max_size=4),
       lead=st.text(alphabet=" *\t", max_size=2),
       unknown=st.sampled_from(["zz", "zz^2", "A1_", "A4_4x"]),
       after=st.lists(st.tuples(SEPARATORS, st.sampled_from(RANK3_TERMS)), max_size=3))
def test_an_unknown_term_among_braid_names_is_reported_at_its_own_column(
        before, lead, unknown, after):
    head = lead + "".join(term + sep for term, sep in before)
    text = head + unknown + "".join(sep + term for sep, term in after)
    with pytest.raises(WordSyntaxError) as e:
        Group(E3).parse(text)
    assert e.value.column == len(head) + 1
    assert repr(unknown.partition("^")[0]) in str(e.value)


GN3_GROUP = Group(gn(3))
GN3_LETTERS = [s * g for g in gn(3).base_gens + gn(3).stable_gens for s in (1, -1)]


@given(u=st.lists(st.sampled_from(GN3_LETTERS), max_size=12),
       pairs=st.lists(st.tuples(st.integers(0, 24), st.sampled_from(GN3_LETTERS)), max_size=4))
def test_group_is_trivial_on_unreduced_words_is_not_nf(u, pairs):
    # cancelling pairs g g^-1 put into u and into the trivial u u^-1; the
    # rewriting decider reads them without a free reduction first
    for w in (list(u), list(u) + list(invert(tuple(u)))):
        for at, g in pairs:
            w[at:at] = [g, -g]
        assert GN3_GROUP.is_trivial(tuple(w)) == (not nf(tuple(w), GN3_GROUP.system))

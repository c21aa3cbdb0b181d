"""Brute-force cross-check of the three bounded oracles.

The enumerator here shares no code with the oracles' walk: it lists every
factor explicitly, takes itertools.product over the lists, and runs
free_reduce and exp_sum on every product.  On small bounds each oracle must
agree with it on verdict, checked count, witness and witness factors, with
and without a product budget, on fixed specs and on drawn ones; and the
walk must hand its `hit` exactly the products whose screened exponent sums
vanish, in order, so that no prune drops one.
"""

import itertools

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hnnfree import words
from hnnfree.braid import Group, braid_trivial, free_factor_probe
from hnnfree.pingpong import (
    Bounds,
    SubgroupSpec,
    _walk,
    bounded_intersection_probe,
    free_product_oracle,
)
from hnnfree.presentation import gn, p2, parse_presentation
from hnnfree.rewrite import RuleSystem, nf
from hnnfree.words import (
    EPSILON,
    OUTER,
    exp_sum,
    format_word,
    free_reduce,
    invert,
    is_base,
)

GN3 = gn(3)
S3 = RuleSystem(GN3)
E2 = p2(2)
EG2 = Group(E2)


def factor_list(label, gens, exp_range):
    """(description, word) of every factor: by total uses, then by runs."""
    out = []
    for total in range(1, exp_range + 1):
        found = []
        for k in range(1, total + 1):
            for idxs in itertools.product(range(len(gens)), repeat=k):
                if any(a == b for a, b in zip(idxs, idxs[1:])):
                    continue
                for mags in itertools.product(range(1, exp_range + 1), repeat=k):
                    if sum(mags) != total:
                        continue
                    for signs in itertools.product((1, -1), repeat=k):
                        found.append(tuple(zip(idxs, (m * s for m, s in zip(mags, signs)))))
        found.sort(key=lambda runs: [(i, abs(e), e < 0) for i, e in runs])
        for runs in found:
            w = EPSILON
            for i, e in runs:
                for _ in range(abs(e)):
                    w = w + (gens[i] if e > 0 else invert(gens[i]))
            out.append((label(runs, gens), w))
    return out


def spec_label(name, alphabet):
    def label(runs, gens):
        chunks = [f"({format_word(gens[i], alphabet)})" + (f"^{e}" if e != 1 else "") for i, e in runs]
        return f"{name}: {' '.join(chunks)}"
    return label


def t_label(runs, gens):
    ((_, e),) = runs
    return f"t^{e}"


def products(lists, syllables):
    """(factor choice, freely reduced product) of every alternating product."""
    for r in range(1, syllables + 1):
        for seq in itertools.product(range(len(lists)), repeat=r):
            if any(a == b for a, b in zip(seq, seq[1:])):
                continue
            for choice in itertools.product(*(lists[i] for i in seq)):
                w = EPSILON
                for _, f in choice:
                    w = w + f
                yield choice, free_reduce(w)


NEVER = lambda f: False


def zero_sum(w, screen):
    return not any(exp_sum(w, g) for g in screen)


def brute(lists, syllables, screen, hit, max_products, trivial=None):
    """The first product that passes the screen and `hit` and has no
    factor that `trivial` holds for is the witness.  For the free-product
    oracles `hit` is the triviality test, and `trivial` is the same test; the
    probe's one factor is its product, which its `hit` shows nontrivial."""
    trivial = trivial or hit
    checked = 0
    for choice, w in products(lists, syllables):
        if max_products is not None and checked >= max_products:
            return "inconclusive", max_products, None, None
        checked += 1
        if zero_sum(w, screen) and hit(w) and not any(trivial(free_reduce(f)) for _, f in choice):
            return "fail", checked, w, tuple(d for d, _ in choice)
    return "pass", checked, None, None


def outcome(rep):
    return rep.verdict, rep.checked, rep.witness, rep.witness_factors


def budgets(full):
    """Small budgets, which land inside pruned subtrees too, and the edges
    of the full count."""
    _, checked, _, _ = full
    return [None, *range(0, 41), checked - 1, checked, checked + 1]


def gn3_spec(label, *texts):
    return SubgroupSpec(label, tuple(GN3.parse(t) for t in texts), frozenset({OUTER}))


ALL_GN3 = GN3.base_gens + GN3.stable_gens + [OUTER]
ALL_E2 = E2.base.base_gens + E2.base.stable_gens + [OUTER]

ORACLE_CASES = {
    "certified pair": ([gn3_spec("A1", "x1"), gn3_spec("A2", "y1 x2")], 4, 2),
    "refuting pair": ([gn3_spec("A", "x1 y2"), gn3_spec("B", "y2 x1")], 6, 2),
    "degenerate generator": ([gn3_spec("E", "1"), gn3_spec("A2", "y1 x2")], 3, 2),
    "empty spec": ([gn3_spec("Z"), gn3_spec("A1", "x1")], 3, 2),
    "two generators": ([gn3_spec("O", "x1", "y1 x1 y1^-1"), gn3_spec("A2", "y1 x2")], 3, 2),
    "exponent range 3": ([gn3_spec("A1", "x1"), gn3_spec("B", "x2 y1")], 3, 3),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_free_product_oracle_matches_brute_force(name):
    specs, syllables, exp_range = ORACLE_CASES[name]
    lists = [factor_list(spec_label(s.label, GN3.alphabet), s.generators, exp_range) for s in specs]
    hit = lambda w: not w or not nf(w, S3)
    full = brute(lists, syllables, ALL_GN3, hit, None)
    for b in budgets(full):
        bounds = Bounds(syllables=syllables, exp_range=exp_range, max_products=b)
        rep = free_product_oracle(specs, S3, bounds)
        assert outcome(rep) == brute(lists, syllables, ALL_GN3, hit, b), (name, b)


def test_free_product_oracle_braid_layer_matches_brute_force():
    specs = [SubgroupSpec("H", (E2.parse("y1 x1"),), frozenset({OUTER})),
             SubgroupSpec("T", (E2.parse("t"),), frozenset({OUTER}))]
    lists = [factor_list(spec_label(s.label, E2.alphabet), s.generators, 2) for s in specs]
    hit = lambda w: not w or braid_trivial(E2, w)
    full = brute(lists, 4, ALL_E2, hit, None)
    assert full[0] == "fail"
    for b in budgets(full):
        rep = free_product_oracle(specs, EG2, Bounds(syllables=4, max_products=b))
        assert outcome(rep) == brute(lists, 4, ALL_E2, hit, b), b


# the lhs s x1^-1 y1^{+-1} and s x1^-1 y1^-1 x1^{+-1} begin with the same two
# letters, and so do s^-1 y1 x1^{+-1} and s^-1 y1 x1 y1^{+-1}
SN = RuleSystem(parse_presentation("""\
base y1 x1
stable s
rel s : y1 ^ x1^-1 y1^-1 = y1 ^ x1
rel s : x1 ^ y1^-1 = x1 ^ y1 x1
"""))

PROBE_CASES = {
    "orbit pair": (S3, ("x2", "y1 x2 y1^-1"), 5),
    "two words": (S3, ("y1 x2", "x2 y2"), 4),
    "pure base generator": (S3, ("y1",), 4),
    "degenerate generator": (S3, ("1",), 4),
    "empty": (S3, (), 4),
    # hits hold x2 y2^-1, the first two letters of the lhs x2 y2^-1 y1^{+-1},
    # but never such an lhs
    "pair without its lhs": (S3, ("x2", "y2 x2 y2^-1"), 5),
    # hits with a redex, with the first two letters of an lhs but no lhs,
    # and with neither
    "nested lhs": (SN, ("s x1^-1 y1", "y1 s"), 4),
    # x1 y2 x1^-1 = y2 holds a redex, and only its normal form is pure base
    "base word after a rewrite": (S3, ("x2", "x1 y2 x1^-1"), 3),
}


def capped_probe(spec, system, max_len, cap):
    """bounded_intersection_probe under a product cap lowered to cap, if
    one is given: the probe's one budget."""
    with pytest.MonkeyPatch.context() as m:
        if cap is not None:
            m.setattr(words, "PRODUCT_CAP", cap)
        return bounded_intersection_probe(spec, system, max_len)


@pytest.mark.parametrize("name", PROBE_CASES)
def test_bounded_intersection_probe_matches_brute_force(name):
    system, texts, max_len = PROBE_CASES[name]
    p = system.presentation
    spec = SubgroupSpec("P", tuple(p.parse(t) for t in texts), frozenset({OUTER}))
    lists = [factor_list(spec_label("P", p.alphabet), spec.generators, max_len)]
    screen = [g for g in p.base_gens + p.stable_gens + [OUTER] if not is_base(g)]

    def hit(w):
        v = nf(w, system)
        return bool(v) and all(is_base(c) for c in v)

    full = brute(lists, 1, screen, hit, None, NEVER)
    for b in budgets(full):
        rep = capped_probe(spec, system, max_len, b)
        assert outcome(rep) == brute(lists, 1, screen, hit, b, NEVER), (name, b)


FREE_FACTOR_CASES = {
    "x1": (["x1"], 4),
    "y1 x1": (["y1 x1"], 6),
    "empty H": ([], 3),
    "degenerate generator": (["1"], 3),
    "two generators": (["y1", "x1"], 3),
}


@pytest.mark.parametrize("name", FREE_FACTOR_CASES)
def test_free_factor_probe_matches_brute_force(name):
    texts, syllables = FREE_FACTOR_CASES[name]
    hs = [E2.parse(t) for t in texts]
    lists = [factor_list(spec_label("H", E2.alphabet), hs, 2), factor_list(t_label, [E2.parse("t")], 2)]
    hit = lambda w: not w or braid_trivial(E2, w)
    full = brute(lists, syllables, ALL_E2, hit, None)
    for b in budgets(full):
        rep = free_factor_probe(E2, hs, Bounds(syllables=syllables, max_products=b))
        assert outcome(rep) == brute(lists, syllables, ALL_E2, hit, b), (name, b)


# Drawn specs.  The generator words include what the fixed cases miss: a
# zero sum vector (1 and the commutator [x1, y1]), coupled coordinates
# (y1 x2), and sums that only parity keeps from vanishing (x1 beside
# y1 x1 y1^-1, or x1^2).  Each draw keeps its enumeration small.

PRODUCT_LIMIT = 2000


def drawn_words(letters, special):
    term = st.sampled_from([*letters, *(f"{a}^-1" for a in letters)])
    return st.one_of(st.sampled_from(special),
                     st.lists(term, min_size=1, max_size=3).map(" ".join))


GN3_WORDS = drawn_words(("x1", "x2", "y1", "y2"),
                        ("1", "x1 y1 x1^-1 y1^-1", "y1 x2", "y1 x1 y1^-1", "x1 x1", "x1"))
E2_WORDS = drawn_words(("x1", "y1"), ("1", "x1 y1 x1^-1 y1^-1", "y1 x1", "x1 x1", "x1"))


def n_products(sizes, syllables):
    """The alternating products of at most `syllables` factors, with
    sizes[i] choices of a factor from spec i."""
    ends = list(sizes)  # products of r factors by their last spec
    total = sum(ends)
    for _ in range(syllables - 1):
        ends = [n * (sum(ends) - e) for n, e in zip(sizes, ends)]
        total += sum(ends)
    return total


def fitting_syllables(data, lists):
    """A drawn syllable count of 1 to 4, lowered until the products fit."""
    syllables = data.draw(st.integers(1, 4), label="syllables")
    while syllables > 1 and n_products([len(f) for f in lists], syllables) > PRODUCT_LIMIT:
        syllables -= 1
    return syllables


def budgets_drawn(data, full):
    """No budget and a drawn one; the full run's verdict is an event for
    `pytest --hypothesis-show-statistics`."""
    event(full[0])
    return [None, data.draw(st.integers(0, full[1] + 1), label="max_products")]


def assert_walk_hits(specs, bounds, screen, lists):
    """_walk hands `hit` every product whose screened sums vanish, in order,
    and no other: no prune drops a product the screen passes."""
    seen = []
    rep = _walk(specs, bounds, lambda g: g in screen, lambda w: seen.append(tuple(w)) or False,
                GN3.alphabet, NEVER)
    assert rep.verdict == "pass"
    assert seen == [w for _, w in products(lists, bounds.syllables) if zero_sum(w, screen)]


@settings(max_examples=100)
@given(data=st.data())
def test_free_product_oracle_matches_brute_force_on_drawn_specs(data):
    texts = data.draw(st.lists(st.lists(GN3_WORDS, min_size=1, max_size=2), min_size=2, max_size=3))
    specs = [gn3_spec("ABC"[i], *ts) for i, ts in enumerate(texts)]
    exp_range = data.draw(st.integers(1, 3), label="exp_range")
    lists = [factor_list(spec_label(s.label, GN3.alphabet), s.generators, exp_range) for s in specs]
    syllables = fitting_syllables(data, lists)
    hit = lambda w: not w or not nf(w, S3)
    full = brute(lists, syllables, ALL_GN3, hit, None)
    for b in budgets_drawn(data, full):
        bounds = Bounds(syllables=syllables, exp_range=exp_range, max_products=b)
        rep = free_product_oracle(specs, S3, bounds)
        assert outcome(rep) == brute(lists, syllables, ALL_GN3, hit, b), b
    assert_walk_hits(specs, Bounds(syllables, exp_range), ALL_GN3, lists)


@settings(max_examples=60)
@given(texts=st.lists(GN3_WORDS, min_size=1, max_size=2), max_len=st.integers(1, 4),
       data=st.data())
def test_bounded_intersection_probe_matches_brute_force_on_drawn_specs(texts, max_len, data):
    spec = gn3_spec("P", *texts)
    lists = [factor_list(spec_label("P", GN3.alphabet), spec.generators, max_len)]
    screen = [g for g in ALL_GN3 if not is_base(g)]

    def hit(w):
        v = nf(w, S3)
        return bool(v) and all(is_base(c) for c in v)

    full = brute(lists, 1, screen, hit, None, NEVER)
    for b in budgets_drawn(data, full):
        rep = capped_probe(spec, S3, max_len, b)
        assert outcome(rep) == brute(lists, 1, screen, hit, b, NEVER), b
    assert_walk_hits([spec], Bounds(1, max_len), screen, lists)


@settings(max_examples=60)
@given(texts=st.lists(E2_WORDS, max_size=2), exp_range=st.integers(1, 3), data=st.data())
def test_free_factor_probe_matches_brute_force_on_drawn_specs(texts, exp_range, data):
    hs = [E2.parse(t) for t in texts]
    lists = [factor_list(spec_label("H", E2.alphabet), hs, exp_range),
             factor_list(t_label, [E2.parse("t")], exp_range)]
    syllables = fitting_syllables(data, lists)
    hit = lambda w: not w or braid_trivial(E2, w)
    full = brute(lists, syllables, ALL_E2, hit, None)
    for b in budgets_drawn(data, full):
        rep = free_factor_probe(E2, hs, Bounds(syllables, exp_range, b))
        assert outcome(rep) == brute(lists, syllables, ALL_E2, hit, b), b
    specs = [SubgroupSpec("H", tuple(hs), frozenset({OUTER})),
             SubgroupSpec("T", (E2.parse("t"),), frozenset({OUTER}))]
    assert_walk_hits(specs, Bounds(syllables, exp_range), ALL_E2, lists)

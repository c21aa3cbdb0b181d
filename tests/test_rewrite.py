import functools
import random
import tracemalloc
from itertools import zip_longest
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rescan import is_subsequence, overlaps_by_scan, rescan_leftmost, stable_signature

from hnnfree import rewrite
from hnnfree.presentation import RewriteRule, compile_rules, gn, p2, parse_presentation
from hnnfree.rewrite import (
    RuleSystem,
    check_local_confluence,
    critical_pairs,
    equal,
    nf,
    nf_ints,
    nf_steps,
    normal_form,
    nu,
    nu_less,
    random_confluence_probe,
    random_word,
)
from hnnfree.words import (
    EPSILON,
    IMAGE_PARTS,
    CapExceeded,
    Inconclusive,
    base_gen,
    exp_sum,
    exp_sums,
    format_word,
    free_reduce,
    image,
    invert,
    is_base,
    stable_gen,
)

GN3 = gn(3)
S3 = RuleSystem(GN3)
GN4 = gn(4)
S4 = RuleSystem(GN4)
GN5 = gn(5)
S5 = RuleSystem(GN5)


def hand_made(rules):
    """A RuleSystem of gn(3) whose rules are the list given, as if its
    presentation compiled to them."""
    with patch.object(rewrite, "compile_rules", lambda p: list(rules)):
        return RuleSystem(GN3)


def w3(text):
    return GN3.parse(text)


def traced(w, system, strategy, seed):
    """(normal form, trace) by the leftmost strategy of normal_form, or by
    the random one that random_confluence_probe samples with seed."""
    return normal_form(w, system) if strategy == "leftmost" else rewrite._apply_random(w, system, seed)


# --- nu and the termination order -------------------------------------------

def test_nu_examples():
    assert nu(w3("y1 x1 y2 y2 x2")) == (1, 2, 0)
    assert nu(EPSILON) == (0,)
    assert nu(w3("x1 x2")) == (0, 0, 0)


def test_nu_less_examples():
    assert nu_less((1, 2), (1, 2, 0))
    # later coordinates dominate
    assert nu_less((5, 0), (0, 1))
    assert not nu_less((1, 2, 0), (1, 2, 0))


def test_nu_less_is_strict_order():
    vs = [(0,), (3,), (0, 0), (1, 2), (5, 0), (0, 1), (1, 2, 0)]
    for a in vs:
        assert not nu_less(a, a)
        for b in vs:
            if nu_less(a, b):
                assert not nu_less(b, a)


# --- redexes and normality ----------------------------------------------------

def test_find_redexes_example():
    redexes = S3.redexes(w3("x2 y2^-1 y1"))
    assert len(redexes) == 1
    pos, idx = redexes[0]
    assert pos == 0
    assert S3.rules[idx].kind == 3


def test_find_redexes_cancellation():
    redexes = S3.redexes(w3("x1 x1^-1"))
    assert len(redexes) == 1
    assert S3.rules[redexes[0][1]].kind == 2
    assert not S3.is_normal_reduced(w3("y1 y1^-1"))
    assert S3.nf_reduced(w3("y1 y1^-1")) == EPSILON


def test_is_normal():
    # a word is in normal form iff it has no redex
    assert S3.redexes(w3("y2^-1 y1 y2 x2 y2^-1")) == []
    assert S3.redexes(w3("x2 y2^-1 y1"))
    assert S3.redexes(EPSILON) == []


# --- normal forms --------------------------------------------------------------

def test_normal_form_examples():
    assert nf(w3("x1 y2"), S3) == w3("y2 x1")
    assert nf(w3("x2 y2^-1 y1"), S3) == w3("y2^-1 y1 y2 x2 y2^-1")
    # base-only words reduce freely
    assert nf(w3("y1 y2 y2^-1 y1"), S3) == w3("y1 y1")


def test_normal_form_idempotent():
    res, trace = normal_form(nf(w3("x2 y2^-1 y1 x1 y2"), S3), S3)
    assert trace.entries == ()
    assert res == nf(w3("x2 y2^-1 y1 x1 y2"), S3)


def test_trace_is_nu_decreasing():
    _, trace = normal_form(w3("x2 y2^-1 y1 x1 x1^-1 y2"), S3)
    prev = trace.nu_initial
    assert len(trace.entries) > 0
    for e in trace.entries:
        assert nu_less(e.nu_after, prev)
        prev = e.nu_after


def test_trace_render_mentions_rules():
    _, trace = normal_form(w3("x2 y2^-1 y1"), S3)
    text = trace.render()
    assert "rule=3/" in text and "nu=" in text


def test_equal_examples():
    assert equal(w3("x1 y2"), w3("y2 x1"), S3)
    assert not equal(w3("x1 y1"), w3("y1 x1"), S3)
    u = w3("x2 y2^-1 y1")
    assert equal(u, u, S3)


def test_equal_respects_relator():
    # x2 commutes with y1 conjugated by y2
    lhs = w3("x2 y2^-1 y1 y2")
    rhs = w3("y2^-1 y1 y2 x2")
    assert equal(lhs, rhs, S3)


# --- stable signatures and the subsequence property ----------------------------

def test_stable_signature():
    sig = stable_signature(w3("y1 x1 y2 x2^-1"))
    assert sig == (stable_gen(1), -stable_gen(2))
    assert stable_signature(w3("y1 y2")) == ()


def test_subsequence_property_example():
    u = w3("x2 y2^-1 y1 x2^-1")
    assert is_subsequence(stable_signature(nf(u, S3)), stable_signature(u))


# --- critical pairs and confluence ----------------------------------------------

def test_gn3_locally_confluent():
    report = check_local_confluence(S3)
    assert report.ok
    assert report.pairs_checked == 24


def test_gn_confluent_2_to_5():
    for n in (2, 4, 5):
        assert check_local_confluence(RuleSystem(gn(n))).ok


def test_kind2_kind4_peak_joins():
    # peak x2 x2^-1 y2^-1 y1: kind-2 cancellation vs kind-4 push-through
    peak = w3("x2 x2^-1 y2^-1 y1")
    found = [
        cp for cp in critical_pairs(S3) if cp.peak == peak
    ]
    assert found
    for cp in found:
        assert nf(cp.left_reduct, S3) == nf(cp.right_reduct, S3) == w3("y2^-1 y1")


def corrupted_gn3_rules():
    """gn(3)'s rules with the rhs of the first long kind-3 rule cut short."""
    bad, corrupted = [], False
    for r in compile_rules(GN3):
        if not corrupted and r.kind == 3 and len(r.rhs) > 2:
            bad.append(RewriteRule(r.kind, r.rule_id, r.lhs, r.rhs[:-1]))
            corrupted = True
        else:
            bad.append(r)
    assert corrupted
    return bad


def test_corrupted_rules_not_confluent():
    report = check_local_confluence(hand_made(corrupted_gn3_rules()))
    assert not report.ok
    assert len(report.failures) > 0


def test_random_probe_small():
    report = random_confluence_probe(S3, seed=3, trials=40, max_len=14)
    assert report.ok
    assert report.trials == 40
    assert report.strategies == 5


def test_probe_zero_trials_vacuous():
    assert random_confluence_probe(S3, seed=0, trials=0, max_len=5).ok


def test_random_probe_flags_a_rule_that_raises_nu():
    # y1 x1 -> x1 y1 terminates, but moves a base letter into a later segment
    y1, x1 = base_gen(1), stable_gen(1)
    system = hand_made([RewriteRule(1, 0, (y1, x1), (x1, y1))])
    report = random_confluence_probe(system, seed=0, trials=30, max_len=20)
    assert not report.ok and len(report.failures) == 15
    for f in report.failures:
        assert f.reason == "nu not decreasing"
        assert is_subsequence((y1, x1), f.word)


def test_trace_reads_rules_by_position_not_id():
    # the one rule has id 7 at position 0
    system = hand_made([RewriteRule(1, 7, w3("y1 y1^-1"), ())])
    for strategy in ("leftmost", "random"):
        res, trace = traced(w3("y2 y1 y1^-1"), system, strategy, 0)
        assert res == w3("y2")
        assert trace.render().splitlines() == [
            "initial: y2 y1 y1^-1", "#1 pos=1 rule=1/7 nu=(1)", "final: y2"]
        assert [(e.position, e.rule_id) for e in trace.entries] == [(1, 7)]


def test_trace_stores_a_record_per_batch_of_swaps():
    w = w3("x1^100 y2^100")
    tracemalloc.start()
    try:
        res, trace = normal_form(w, S3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == w3("y2^100 x1^100") and len(trace) == 10_000
    # each y2 passes the 100 x1 in one batch
    assert len(trace.records) == 100 and peak < 1_000_000
    assert len(trace.entries) == 10_000 and trace.entries[-1].nu_after == (100,) + (0,) * 100


def test_trace_cap_trips_on_a_single_step(monkeypatch):
    # no swap here, so each step stores its nu on its own
    w = w3("y1 x1 x2 x2^-1 x1^-1 y1^-1")
    _, trace = normal_form(w, S3)
    coords = sum(len(e.nu_after) for e in trace.entries)
    assert len(trace) == 3 and all(e.rule_kind in (1, 2) for e in trace.entries)
    monkeypatch.setattr(rewrite, "TRACE_CAP", coords)
    assert normal_form(w, S3)[0] == EPSILON
    monkeypatch.setattr(rewrite, "TRACE_CAP", coords - 1)
    with pytest.raises(CapExceeded, match=f"rewrite trace cap {coords - 1} exceeded"):
        normal_form(w, S3)


# --- property tests --------------------------------------------------------------

def _random_words(system, seed, count, max_len):
    rng = random.Random(seed)
    return [random_word(rng, system, max_len) for _ in range(count)]


words4_st = st.integers(0, 10_000).map(
    lambda s: random_word(random.Random(s), S4, 25)
)


@given(words4_st)
def test_nf_is_normal_and_idempotent(u):
    v = nf(u, S4)
    assert S4.redexes(v) == []
    assert nf(v, S4) == v


@given(words4_st)
def test_nf_preserves_exp_sums(u):
    v = nf(u, S4)
    for g in GN4.base_gens + GN4.stable_gens:
        assert exp_sum(u, g) == exp_sum(v, g)


@given(words4_st)
def test_nf_subsequence_property(u):
    assert is_subsequence(stable_signature(nf(u, S4)), stable_signature(u))


@given(words4_st, st.integers(0, 3))
def test_nf_strategy_independent(u, k):
    reference = nf(u, S4)
    res, trace = rewrite._apply_random(u, S4, k)
    assert res == reference
    prev = trace.nu_initial
    for e in trace.entries:
        assert nu_less(e.nu_after, prev)
        prev = e.nu_after


@given(words4_st, words4_st)
def test_nf_of_concat_composes(u, v):
    assert nf(u + v, S4) == nf(nf(u, S4) + nf(v, S4), S4)


@given(st.integers(0, 10_000))
def test_gn2_nf_is_free_reduction(seed):
    s2 = RuleSystem(gn(2))
    u = random_word(random.Random(seed), s2, 25)
    assert nf(u, s2) == free_reduce(u)


@given(st.integers(0, 10_000))
def test_base_only_words_reduce_freely(seed):
    s5 = RuleSystem(gn(5))
    rng = random.Random(seed)
    u = tuple(c for c in random_word(rng, s5, 30) if is_base(c))
    assert nf(u, s5) == free_reduce(u)


# --- the handwritten general presentation ---------------------------------------

HANDMADE = """\
base y1 y2 y3
stable x1 x2
rel x1 : y1 ^ y2 y3 = y1 ^ y3 y2
rel x1 : y2 ^ y3^-1 y1 = y2 ^ y1 y3
rel x2 : y3 ^ y1 y1 = y3 ^ y2^-1 y1
"""


def test_handmade_presentation_confluent():
    p = parse_presentation(HANDMADE)
    system = RuleSystem(p)
    assert len(system.rules) == 22
    report = check_local_confluence(system)
    assert report.ok
    # and the engine gives stable normal forms on it
    u = p.parse("x1 y2 y3 y1 x2 y1^-1")
    assert nf(u, system) == nf(nf(u, system), system)


# --- the leftmost stack engine against the rescanning oracle ----------------------

# the first association's lhs s^-1 y1 x1 y1^{+-1} extend the second's s^-1 y1 x1
NESTED = """\
base y1 x1
stable s
rel s : y1 ^ x1^-1 y1^-1 = y1 ^ x1
rel s : x1 ^ y1^-1 = x1 ^ y1 x1
"""
# the same relations in the other order, so the shorter lhs comes first
NESTED_SWAPPED = "".join(NESTED.splitlines(keepends=True)[i] for i in (0, 1, 3, 2))


def _toy_rules():
    """Length-decreasing rules, so they terminate, that no presentation
    compiles to: a base-only lhs whose rhs holds a stable letter, and an lhs
    containing another one past its first letter."""
    y1, y2, x1, x2 = base_gen(1), base_gen(2), stable_gen(1), stable_gen(2)
    pairs = [((y1, -y1), ()), ((-y1, y1), ()), ((y1, y1), (x1,)), ((y1, y2), (y2,)),
             ((x1, y1, y2, y2), (x2,)), ((x1, -x1), ())]
    return [RewriteRule(1, i, lhs, rhs) for i, (lhs, rhs) in enumerate(pairs)]


Y1, Y2, X1, X2 = base_gen(1), base_gen(2), stable_gen(1), stable_gen(2)


def _swap_toy_rules(*others, swap=(X1, Y2)):
    """The swap a c -> c a (x1 y2 -> y2 x1 unless swap names a c), the
    cancellations of a and c, then each lhs in others rewritten to x2.
    Every rule but the swap shortens the word, and the swap only moves c
    left, so they terminate."""
    a, c = swap
    pairs = [((a, c), (c, a)), ((a, -a), ()), ((-a, a), ()), ((c, -c), ()),
             ((-c, c), ()), *((lhs, (X2,)) for lhs in others)]
    return [RewriteRule(1, i, lhs, rhs) for i, (lhs, rhs) in enumerate(pairs)]


ENGINE_SYSTEMS = {
    **{f"gn{n}": RuleSystem(gn(n)) for n in range(2, 7)},
    **{f"p2_{n}_base": RuleSystem(p2(n).base) for n in range(2, 5)},
    "handwritten": RuleSystem(parse_presentation(HANDMADE)),
    "nested": RuleSystem(parse_presentation(NESTED)),
    "nested_swapped": RuleSystem(parse_presentation(NESTED_SWAPPED)),
    "gn3_corrupted": hand_made(corrupted_gn3_rules()),
    "toy": hand_made(_toy_rules()),
    # the swap x1 y2 -> y2 x1 beside: an lhs x1 x1 y2; an lhs y1 x1 y2, which
    # reads below a run of x1 (floor 2); a wider lhs y1 x1 y2 y1 (no floor);
    # an lhs y2 x1 x1, so the x1 that y2 passed do not settle all at once
    "swap_aac": hand_made(_swap_toy_rules((X1, X1, Y2))),
    "swap_dac": hand_made(_swap_toy_rules((Y1, X1, Y2))),
    "swap_wider": hand_made(_swap_toy_rules((Y1, X1, Y2, Y1))),
    "swap_caa": hand_made(_swap_toy_rules((Y2, X1, X1))),
    # swaps of the other parities: a base letter past a stable one, and two
    # letters of one kind, which leave nu as it is
    "swap_y2x1": hand_made(_swap_toy_rules(swap=(Y2, X1))),
    "swap_y1y2": hand_made(_swap_toy_rules(swap=(Y1, Y2))),
    "swap_x1x2": hand_made(_swap_toy_rules(swap=(X1, X2))),
}


def _letters(system):
    p = system.presentation
    return [s * g for g in p.base_gens + p.stable_gens for s in (1, -1)]


def _entries(trace):
    return [tuple(e) for e in trace.entries]


def _replayed(trace):
    """(entry, word before, word after) per step, the words replayed from
    the initial word by the rule each entry names."""
    rules = {r.rule_id: r for r in trace.system.rules}
    word = trace.initial
    for e in trace.entries:
        lhs, rhs = rules[e.rule_id].lhs, rules[e.rule_id].rhs
        assert word[e.position : e.position + len(lhs)] == lhs
        after = word[: e.position] + rhs + word[e.position + len(lhs) :]
        yield e, word, after
        word = after


@functools.cache
def _runs(system):
    """Words of up to four pieces, each a letter or the letters of an lhs,
    every letter raised to a power k <= 20: a swap meets long runs of one
    letter and the lhs around them, which uniform letters rarely give it.

    A piece is drawn as (letters, powers), its i-th letter raised to the
    i-th power, or to 1 past the last: flat lists, which hypothesis draws
    and shrinks without a flatmap.  One strategy per system, built once."""
    longest = max(len(r.lhs) for r in system.rules)
    piece = st.one_of(st.sampled_from(_letters(system)).map(lambda g: (g,)),
                      st.sampled_from([r.lhs for r in system.rules]))
    powers = st.lists(st.integers(1, 20), max_size=longest)
    return st.lists(st.tuples(piece, powers), max_size=4).map(
        lambda ps: tuple(g for letters, ks in ps
                         for g, k in zip(letters, [*ks, *[1] * len(letters)]) for _ in range(k)))


# --- equal compares images before it rewrites ---------------------------------------

# the parts of the image that every rule of each system keeps
KEPT = {
    **dict.fromkeys([*(f"gn{n}" for n in range(2, 7)), *(f"p2_{n}_base" for n in range(2, 5)),
                     "swap_y2x1"], ("F(X)", "F(Y)", "sums")),
    **dict.fromkeys(["handwritten", "nested", "nested_swapped", "swap_y1y2"], ("F(X)", "sums")),
    "swap_x1x2": ("F(Y)", "sums"),
    "gn3_corrupted": ("F(X)",),
    **dict.fromkeys(["toy", "swap_aac", "swap_dac", "swap_wider", "swap_caa"], ()),
}


def test_each_system_keeps_its_parts_of_the_image():
    assert {name: system.kept for name, system in ENGINE_SYSTEMS.items()} == KEPT


def _project(w, odd):
    """The free reduction of the letters of w whose code has parity odd."""
    return free_reduce(c for c in w if c & 1 == odd)


def _reference_image(w, system):
    """The parts of w's image, each by its definition: the projections,
    and one exp_sum per generator of the presentation."""
    p = system.presentation
    return _project(w, 1), _project(w, 0), {g: exp_sum(w, g) for g in p.base_gens + p.stable_gens}


@given(st.lists(st.sampled_from(_letters(ENGINE_SYSTEMS["handwritten"])), max_size=40).map(tuple))
def test_image_is_the_projections_and_the_sums(w):
    assert image(w) == (_project(w, 1), _project(w, 0), exp_sums(w))
    assert image(w, sums=False) == (*image(w)[:2], None)


def _pairs(system, data):
    """(u, v): u a uniform or a _runs word, and v one drawn alike, or u
    with up to three relators lhs rhs^-1 of the rules put in, then perhaps
    one letter more.  In about half the pairs one generator is made to
    occur only inverted in both words."""
    letters = _letters(system)
    words = st.one_of(st.lists(st.sampled_from(letters), max_size=30).map(tuple), _runs(system))
    u = data.draw(words)
    how = data.draw(st.sampled_from(["drawn", "decorated", "added"]))
    if how == "drawn":
        v = data.draw(words)
    else:
        v = u
        rule, at = st.sampled_from(system.rules), st.integers(0, 1_000)
        for r, i in data.draw(st.lists(st.tuples(rule, at), max_size=3)):
            i %= len(v) + 1
            v = v[:i] + r.lhs + invert(r.rhs) + v[i:]
        if how == "added":
            i = data.draw(st.integers(0, len(v)))
            v = v[:i] + (data.draw(st.sampled_from(letters)),) + v[i:]
    if data.draw(st.booleans()):
        g = abs(data.draw(st.sampled_from(letters)))
        u, v = (tuple(-g if c == g else c for c in w) for w in (u, v))
    return u, v


def _decided(f, *args):
    """f(*args), or None where it raises Inconclusive."""
    try:
        return f(*args)
    except Inconclusive:
        return None


@functools.cache
def _confluent(system):
    return check_local_confluence(system).ok


def _kept_parts_differ(u, v, system):
    iu, iv = _reference_image(u, system), _reference_image(v, system)
    return any(iu[IMAGE_PARTS.index(part)] != iv[IMAGE_PARTS.index(part)] for part in system.kept)


def _expected_equal(u, v, system):
    """equal's answer by its rule: False where a kept image part differs,
    True on equal normal forms, else False on a confluent system and None
    (Inconclusive) on any other."""
    if _kept_parts_differ(u, v, system):
        return False
    if nf(u, system) == nf(v, system):
        return True
    return False if _confluent(system) else None


@pytest.mark.parametrize("name", list(ENGINE_SYSTEMS))
def test_confluent_is_the_critical_pair_check(name):
    system = ENGINE_SYSTEMS[name]
    assert system.confluent is _confluent(system)


@pytest.mark.parametrize("name", list(ENGINE_SYSTEMS))
@given(data=st.data())
def test_equal_answers_as_normal_forms_do(name, data):
    system = ENGINE_SYSTEMS[name]
    u, v = _pairs(system, data)
    with patch.object(rewrite, "nf", wraps=nf) as rewrites:
        same = _decided(equal, u, v, system)
    assert same == _expected_equal(u, v, system)
    # a kept part that differs answers without a rewrite
    if _kept_parts_differ(u, v, system):
        assert not rewrites.called


def test_equal_refutes_by_the_sums_of_generators_that_occur_only_inverted():
    # the x1 parts agree, and y2, y3 occur only inverted; the rules keep
    # no F(Y), so only the sums tell the words apart
    system = ENGINE_SYSTEMS["handwritten"]
    u, v = (system.presentation.parse(t) for t in ("x1 y2^-2 y3^-1", "x1 y2^-1 y3^-2"))
    with patch.object(rewrite, "nf", side_effect=AssertionError("equal rewrote")):
        assert not equal(u, v, system)
        assert not equal((-Y2,), (-base_gen(3),), system)


def _check_engine(system, w):
    ref, ref_trace = rescan_leftmost(w, system.rules)
    res, trace = normal_form(w, system)
    assert res == ref
    assert _entries(trace) == ref_trace
    assert nf(w, system) == ref
    assert nf_steps(w, system) == (ref, len(ref_trace))
    ints = list(w)
    assert nf_ints(ints, system) is ints and tuple(ints) == ref


def test_nested_prefix_rule_loses_to_its_extension():
    system = ENGINE_SYSTEMS["nested"]
    p = system.presentation
    w = p.parse("y1^-1 x1^-1 y1^-1 y1 x1^2 s^-1 y1 x1 y1^-1 x1^-1 y1^2 s y1^-1 y1 s x1^-1")
    res, trace = normal_form(w, system)
    # at step 3 both 4/12 (s^-1 y1 x1) and 4/11 (s^-1 y1 x1 y1^-1) match at
    # position 2; the leftmost strategy takes the smaller id
    assert _entries(trace)[2][:3] == (2, 4, 11)
    before = list(_replayed(trace))[2][1]
    assert (2, 11) in system.redexes(before) and (2, 12) in system.redexes(before)
    assert res == p.parse("y1^-2 x1 s^-1 y1^3 s^2 x1^-1")
    assert (res, _entries(trace)) == rescan_leftmost(w, system.rules)


def _scan(w, rules):
    """(position, rule index) of every lhs in w, by a scan of the rule list."""
    return [(pos, idx) for pos in range(len(w)) for idx, r in enumerate(rules)
            if tuple(w[pos : pos + len(r.lhs)]) == r.lhs]


def _pieces(system):
    """Words of up to twelve pieces, each a letter or a whole lhs, so that
    lhs overlap and an lhs sits inside a longer one."""
    piece = st.one_of(st.sampled_from(_letters(system)).map(lambda g: (g,)),
                      st.sampled_from([r.lhs for r in system.rules]))
    return st.lists(piece, max_size=12).map(lambda ps: sum(ps, ()))


@pytest.mark.parametrize("name", list(ENGINE_SYSTEMS))
@settings(max_examples=50)
@given(data=st.data())
def test_redexes_match_a_scan_of_the_rule_list(name, data):
    system = ENGINE_SYSTEMS[name]
    w = data.draw(st.one_of(_pieces(system), st.lists(st.sampled_from(_letters(system)),
                                                      max_size=40).map(tuple)))
    scan = _scan(w, system.rules)
    assert system.redexes(w) == scan
    for pos in range(len(w)):
        assert system.match_at(w, pos) == next((idx for p, idx in scan if p == pos), None)


def test_redexes_list_a_prefix_lhs_after_its_extension():
    # 4/11 (s^-1 y1 x1 y1^-1) has the smaller index, but 4/12 (s^-1 y1 x1)
    # is the shorter lhs at the same position
    system = ENGINE_SYSTEMS["nested"]
    w = system.presentation.parse("y1 s^-1 y1 x1 y1^-1")
    assert [system.rules[i].lhs for i in (11, 12)] == [w[1:], w[1:4]]
    assert system.redexes(w) == [(1, 11), (1, 12)]
    assert system.match_at(w, 1) == 11


def test_rules_sharing_an_lhs_raise():
    rules = compile_rules(GN3)
    extra = RewriteRule(2, len(rules), rules[0].lhs, ())
    with pytest.raises(ValueError, match=r"two rules share the lhs y1 y1\^-1"):
        hand_made(rules + [extra])


@pytest.mark.parametrize("n", range(2, 9))
def test_compiled_rules_never_share_an_lhs(n):
    for p in (gn(n), p2(n).base):
        rules = compile_rules(p)
        assert len({r.lhs for r in rules}) == len(rules)
        assert RuleSystem(p).rules == rules


def test_toy_earlier_start_wins():
    system = ENGINE_SYSTEMS["toy"]
    y1, y2, x1, x2 = base_gen(1), base_gen(2), stable_gen(1), stable_gen(2)
    # y1 y2 ends first, but x1 y1 y2 y2 starts one letter earlier
    for w, expected in (((x1, y1, y2, y2), (x2,)), ((x1, y1, y2, y1), (x1, y2, y1))):
        res, trace = normal_form(w, system)
        assert res == expected
        assert (res, _entries(trace)) == rescan_leftmost(w, system.rules)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_step_cap_inside_a_batch_of_swaps(monkeypatch, n):
    # each y2 passes x1^200 in one batch, on gn(6) (floor 2) but one swap
    system = RuleSystem(gn(n))
    w = gn(n).parse("x1^200 y2^200")
    monkeypatch.setattr(rewrite, "STEP_CAP", 200 * 200)
    assert nf_steps(w, system) == (gn(n).parse("y2^200 x1^200"), 200 * 200)
    for cap in (150, 39_900):
        monkeypatch.setattr(rewrite, "STEP_CAP", cap)
        with pytest.raises(CapExceeded, match=f"rewrite step cap {cap} exceeded"):
            nf(w, system)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_caps_inside_the_single_swap_after_a_batch(monkeypatch, n, m):
    # on gn(4) and gn(6) (floor 2) each y2 passes x1^(r-1) in one batch and
    # the last x1 in a single swap, which is the last step of the word
    system, r = RuleSystem(gn(n)), 30
    w = gn(n).parse(f"x1^{r} y2^{m}")
    _, trace = normal_form(w, system)
    assert [count for _, _, count in trace.records] == [r - 1, 1] * m
    steps, coords = r * m, r * m * len(nu(w))
    monkeypatch.setattr(rewrite, "STEP_CAP", steps)
    monkeypatch.setattr(rewrite, "TRACE_CAP", coords)
    assert normal_form(w, system)[0] == nf(w, system) == gn(n).parse(f"y2^{m} x1^{r}")
    monkeypatch.setattr(rewrite, "TRACE_CAP", coords - 1)
    with pytest.raises(CapExceeded, match=f"rewrite trace cap {coords - 1} exceeded"):
        normal_form(w, system)
    assert nf_steps(w, system)[1] == steps  # untraced runs have no trace cap
    monkeypatch.setattr(rewrite, "STEP_CAP", steps - 1)
    for run in (lambda: nf(w, system), lambda: normal_form(w, system)):
        with pytest.raises(CapExceeded, match=f"rewrite step cap {steps - 1} exceeded"):
            run()


@pytest.mark.parametrize("name", ["gn3", "gn4", "handwritten", "nested", "toy"])
@pytest.mark.parametrize("strategy", ["leftmost", "random"])
@given(seed=st.integers(0, 10_000))
def test_trace_nu_is_nu_of_each_step(name, strategy, seed):
    system = ENGINE_SYSTEMS[name]
    w = random_word(random.Random(seed), system, 30)
    _, trace = traced(w, system, strategy, seed)
    assert trace.nu_initial == nu(w)
    for e, _, after in _replayed(trace):
        assert e.nu_after == nu(after)


def _render_from_scratch(trace, alphabet):
    """RewriteTrace.render as it was first written: every line joins its
    whole nu vector."""
    lines = [f"initial: {format_word(trace.initial, alphabet)}"]
    lines += [f"#{k} pos={e.position} rule={e.rule_kind}/{e.rule_id} "
              f"nu=({', '.join(map(str, e.nu_after))})"
              for k, e in enumerate(trace.entries, 1)]
    lines.append(f"final: {format_word(trace.final, alphabet)}")
    return "\n".join(lines)


def _first_difference(a, b):
    """None if the texts a and b are equal, else the first line in which
    they differ: (line number, a's line, b's line).  Asserted on in place
    of a == b, which pytest explains by a diff of the two texts that can
    take minutes for each failing example hypothesis tries."""
    if a == b:
        return None
    pairs = enumerate(zip_longest(a.split("\n"), b.split("\n")))
    return next((i, x, y) for i, (x, y) in pairs if x != y)


@pytest.mark.parametrize("name", list(ENGINE_SYSTEMS))
@pytest.mark.parametrize("strategy", ["leftmost", "random"])
@settings(max_examples=50)
@given(data=st.data())
def test_trace_renders_and_segments_as_from_scratch(name, strategy, data):
    system = ENGINE_SYSTEMS[name]
    w = data.draw(st.one_of(_runs(system), st.lists(st.sampled_from(_letters(system)),
                                                    max_size=30).map(tuple)))
    seed = data.draw(st.integers(0, 10_000))
    _, trace = traced(w, system, strategy, seed)
    alphabet = system.presentation.alphabet
    assert _first_difference(trace.render(), _render_from_scratch(trace, alphabet)) is None
    # the segment of an entry is the number of odd letters before its redex
    for e, before, _ in _replayed(trace):
        assert e.segment == sum(c & 1 for c in before[: e.position])


@pytest.mark.parametrize("name", list(ENGINE_SYSTEMS))
@pytest.mark.parametrize("strategy", ["leftmost", "random"])
@settings(max_examples=50)
@given(data=st.data())
def test_trace_renders_runs_as_from_entries(name, strategy, data):
    # long runs give the leftmost engine batches of swaps to spell
    system = ENGINE_SYSTEMS[name]
    w, seed = data.draw(_runs(system)), data.draw(st.integers(0, 10_000))
    _, trace = traced(w, system, strategy, seed)
    alphabet = system.presentation.alphabet
    assert _first_difference(trace.render(), _render_from_scratch(trace, alphabet)) is None


def test_render_splices_nu_at_most_once_per_record(monkeypatch):
    # each of the 100 batches of 100 swaps is spelled without a replay
    calls = []
    splice = rewrite._splice_nu
    monkeypatch.setattr(rewrite, "_splice_nu", lambda *args: calls.append(args) or splice(*args))
    _, trace = normal_form(w3("x1^100 y2^100"), S3)
    lines = trace.render().splitlines()
    assert len(calls) <= len(trace.records) == 100
    assert len(lines) == 10_002
    assert lines[-2] == f"#10000 pos=99 rule=3/8 nu=(100{', 0' * 100})"


def _random_by_rescan(w, system, seed):
    """(normal form, entries as tuples) of the random strategy when every
    redex is found again by system.redexes after each step."""
    rng, word, out = random.Random(seed), list(w), []
    while reds := system.redexes(word):
        pos, idx = reds[rng.randrange(len(reds))]
        r = system.rules[idx]
        segment = sum(c & 1 for c in word[:pos])
        word[pos : pos + len(r.lhs)] = r.rhs
        out.append((pos, r.kind, r.rule_id, nu(word), segment))
    return tuple(word), out


@pytest.mark.parametrize("name", list(ENGINE_SYSTEMS))
@settings(max_examples=50)
@given(data=st.data())
def test_random_strategy_draws_as_a_full_rescan(name, data):
    system = ENGINE_SYSTEMS[name]
    w = data.draw(st.one_of(_pieces(system), st.lists(st.sampled_from(_letters(system)),
                                                      max_size=30).map(tuple)))
    seed = data.draw(st.integers(0, 10_000))
    res, trace = rewrite._apply_random(w, system, seed)
    assert (res, [tuple(e) for e in trace.entries]) == _random_by_rescan(w, system, seed)


CP_SYSTEMS = {
    **ENGINE_SYSTEMS,
    # at offset 1 into x1 y1 y2 y2, rule 0 begins with the rest y1 y2 y2
    # and rule 1 is a proper prefix of it; the pairs follow index order
    "overlap_order": hand_made([RewriteRule(1, i, lhs, ()) for i, lhs in
                                enumerate([(Y1, Y2, Y2, Y1), (Y1, Y2), (X1, Y1, Y2, Y2)])]),
    **{f"gn{n}": RuleSystem(gn(n)) for n in range(7, 13)},
    **{f"p2_{n}_base": RuleSystem(p2(n).base) for n in range(5, 7)},
    # 60-letter conjugators give lhs of 62 letters, whose rests are compared
    # in full with every lhs that has their first letter
    "long_conjugator": RuleSystem(parse_presentation(
        "base a b c\nstable p q\n"
        f"rel p : a ^ {'b c ' * 30} = a ^ {'c^-1 b ' * 30}\n"
        f"rel p : b ^ {'c a ' * 30} = b ^ c\n"
        f"rel q : c ^ {'b ' * 60} = c ^ {'b ' * 59} a\n")),
}


@pytest.mark.parametrize("name", list(CP_SYSTEMS))
def test_critical_pairs_match_a_scan_of_every_rule_pair(name):
    system = CP_SYSTEMS[name]
    pairs = [(cp.peak, cp.left_reduct, cp.right_reduct, cp.rule1, cp.rule2, cp.offset)
             for cp in critical_pairs(system)]
    assert pairs == overlaps_by_scan(system.rules)


# --- is_normal_reduced against the list of redexes ---------------------------------

# a one-letter lhs y1, alone and beside an lhs x1 y2 that the pairs index keys
ONE_LETTER = {
    "one_letter": hand_made([RewriteRule(1, 0, (Y1,), (Y2,))]),
    "one_letter_and_pair": hand_made([RewriteRule(1, 0, (Y1,), (Y2,)),
                                      RewriteRule(1, 1, (X1, Y2), (Y2, X1))]),
}
NORMAL_SYSTEMS = {**ENGINE_SYSTEMS, **ONE_LETTER,
                  **{k: CP_SYSTEMS[k] for k in ("long_conjugator", "overlap_order")}}


@pytest.mark.parametrize("name", list(NORMAL_SYSTEMS))
@settings(max_examples=50)
@given(data=st.data())
def test_is_normal_reduced_means_no_redex(name, data):
    system = NORMAL_SYSTEMS[name]
    w = free_reduce(data.draw(st.one_of(_pieces(system), st.lists(st.sampled_from(_letters(system)),
                                                                  max_size=40).map(tuple))))
    assert system.is_normal_reduced(w) == (not system.redexes(w))
    assert system.is_normal_reduced(list(w)) == (not system.redexes(w))


@pytest.mark.parametrize("name", list(NORMAL_SYSTEMS))
@settings(max_examples=50)
@given(data=st.data())
def test_nf_reduced_is_the_normal_form(name, data):
    system = NORMAL_SYSTEMS[name]
    w = free_reduce(data.draw(st.one_of(_pieces(system), st.lists(st.sampled_from(_letters(system)),
                                                                  max_size=40).map(tuple))))
    assert system.nf_reduced(w) == nf(w, system)
    assert _decided(system.is_trivial, w) == _expected_equal(w, (), system)


def test_is_trivial_rewrites_a_word_once(monkeypatch):
    # on a non-confluent system the answer comes from the normal form v and
    # its kept image parts, which rewriting keeps: the engine runs on w
    # alone, and never on v or on the empty word
    system = ENGINE_SYSTEMS["nested"]
    assert not system.confluent
    w = system.presentation.parse("s^-1 y1 x1 s x1^-1 y1^-1")
    runs, leftmost = [], rewrite._leftmost

    def counted(word, system, records=None):
        out, steps = leftmost(word, system, records)
        runs.append((tuple(word), steps))
        return out, steps

    monkeypatch.setattr(rewrite, "_leftmost", counted)
    with pytest.raises(Inconclusive, match="not confluent"):
        system.is_trivial(w)
    assert len(runs) == 1 and runs[0][0] == w and runs[0][1]


def _unreduced(system):
    """Words as _pieces draws them with cancelling pairs g g^-1 put in
    between their letters."""
    pair = st.sampled_from(_letters(system)).map(lambda g: (g, -g))
    return st.lists(st.tuples(_pieces(system), st.lists(pair, max_size=3)), min_size=1, max_size=3).map(
        lambda ps: sum((w[:1] + sum(pairs, ()) + w[1:] for w, pairs in ps), ()))


@pytest.mark.parametrize("name", list(NORMAL_SYSTEMS))
@settings(max_examples=50)
@given(data=st.data())
def test_normality_needs_no_free_reduction(name, data):
    # the automaton sees every lhs, so a cancelling pair needs no free
    # reduction first
    system = NORMAL_SYSTEMS[name]
    w = data.draw(_unreduced(system))
    assert system.is_normal_reduced(w) == (not system.redexes(w))
    assert system.nf_reduced(w) == nf(w, system)
    assert _decided(system.is_trivial, w) == _expected_equal(w, (), system)


# the engine's lhs automaton on every system of NORMAL_SYSTEMS: an lhs of
# one letter, lhs of 62 letters whose failure links run deep, and lhs that
# overlap or sit inside a longer one, which _pieces reads
@pytest.mark.parametrize("name", list(NORMAL_SYSTEMS))
@given(data=st.data())
def test_engine_matches_rescanning_oracle(name, data):
    system = NORMAL_SYSTEMS[name]
    _check_engine(system, data.draw(st.one_of(_pieces(system), st.lists(st.sampled_from(_letters(system)),
                                                                        max_size=40).map(tuple))))


@pytest.mark.parametrize("name", list(NORMAL_SYSTEMS))
@given(data=st.data())
def test_engine_matches_rescanning_oracle_on_runs(name, data):
    system = NORMAL_SYSTEMS[name]
    _check_engine(system, data.draw(_runs(system)))


def _swaps(system):
    """{c: [a, ...]}: the letters a that c swaps with by a rule a c -> c a."""
    out = {}
    for r in system.rules:
        if len(r.lhs) == 2 and r.lhs[0] != r.lhs[1] and r.rhs == r.lhs[::-1]:
            out.setdefault(r.lhs[1], []).append(r.lhs[0])
    return out


# systems with swaps of floor 1 (gn3) and 2 (gn4, gn6), where c meets runs
# of two letters it swaps with (x1 and x2 for y3 at gn4); beside a swap, an
# lhs a a c, d a c and c a a, and a wider lhs that beats the swap
LANDING_SYSTEMS = ["gn3", "gn4", "gn6", "swap_aac", "swap_dac", "swap_caa",
                   "swap_wider"]


@pytest.mark.parametrize("name", LANDING_SYSTEMS)
@settings(max_examples=40)
@given(data=st.data())
def test_a_swapped_letter_lands_as_a_rescan_finds(name, data):
    # u a'^j a^r c^m v: c passes a run of a, then perhaps one of a', and
    # lands, where u ends in the rest of an lhs ending in c, under it
    system = ENGINE_SYSTEMS[name]
    swaps = _swaps(system)
    c = data.draw(st.sampled_from(sorted(swaps)))
    a, a1 = data.draw(st.sampled_from(swaps[c])), data.draw(st.sampled_from(swaps[c]))
    j, r, m = (data.draw(st.integers(low, 60)) for low in (0, 1, 1))
    lhs = [rule.lhs for rule in system.rules]
    piece = st.one_of(st.sampled_from(_letters(system)).map(lambda g: (g,)), st.sampled_from(lhs))
    few = st.lists(piece, max_size=3).map(lambda ps: sum(ps, ()))
    under = st.sampled_from([()] + [l[:-1] for l in lhs if l[-1] == c])
    u, v = data.draw(few) + data.draw(under), data.draw(few)
    _check_engine(system, u + (a1,) * j + (a,) * r + (c,) * m + v)


def test_a_swapped_letter_passes_three_runs_as_a_rescan_finds():
    # y4 passes x1^c, x2^b and x3^a at gn(5), each in one batch (floor 1);
    # each y4 after the first reads the lengths of the runs the one before
    # it passed
    for a, b, c, m in ((1, 1, 1, 2), (3, 5, 2, 4), (20, 1, 30, 25), (30, 40, 25, 20)):
        w = GN5.parse(f"x3^{a} x2^{b} x1^{c} y4^{m}")
        res, trace = normal_form(w, S5)
        assert res == GN5.parse(f"y4^{m} x3^{a} x2^{b} x1^{c}")
        assert [count for _, _, count in trace.records] == [c, b, a] * m
        assert (res, _entries(trace)) == rescan_leftmost(w, S5.rules)


def test_a_swapped_letter_passes_two_runs_in_place():
    # y3 passes x1^r and then x2^j at gn(4), each in one batch (floor 1)
    for j, r, m in ((1, 1, 1), (5, 3, 4), (40, 60, 30)):
        w = GN4.parse(f"x2^{j} x1^{r} y3^{m}")
        res, trace = normal_form(w, S4)
        assert res == GN4.parse(f"y3^{m} x2^{j} x1^{r}")
        assert [count for _, _, count in trace.records] == [r, j] * m
        assert (res, _entries(trace)) == rescan_leftmost(w, S4.rules)


@pytest.mark.parametrize("name", list(NORMAL_SYSTEMS))
@settings(max_examples=50)
@given(data=st.data())
def test_automaton_names_the_longest_lhs_ending_each_prefix(name, data):
    system = NORMAL_SYSTEMS[name]
    w = data.draw(st.one_of(_pieces(system), st.lists(st.sampled_from(_letters(system)),
                                                      max_size=40).map(tuple)))
    moves, fail, hits, ends = system._automaton
    s = 0
    for k, c in enumerate(w, 1):
        s = rewrite._move(moves, fail, s, c)
        # every lhs ending w[:k], longest first, by a scan of the rule list
        ending = sorted(((len(r.lhs), idx) for idx, r in enumerate(system.rules)
                         if w[:k][-len(r.lhs):] == r.lhs), reverse=True)
        assert ends[s] == tuple(e[::-1] for e in ending)
        assert hits[s] == (ending[0][::-1] if ending else None)


@pytest.mark.parametrize("name", list(ONE_LETTER))
@given(data=st.data())
def test_a_one_letter_lhs_is_never_normal(name, data):
    system = ONE_LETTER[name]
    assert not system.is_normal_reduced((Y1, Y2))
    w = free_reduce(tuple(data.draw(st.lists(st.sampled_from(_letters(system)), max_size=20))))
    if Y1 in w:
        assert not system.is_normal_reduced(w)

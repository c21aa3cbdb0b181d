"""Brute-force cross-check of the three bounded oracles.

The enumerator here shares no code with the oracles' walk: it lists every
factor explicitly, takes itertools.product over the lists, and runs
free_reduce and exp_sum on every product.  On small bounds each oracle must
agree with it on verdict, checked count, witness and witness factors, with
and without a product budget.
"""

import itertools

import pytest

from hnnfree.braid import braid_trivial, free_factor_probe
from hnnfree.pingpong import (
    Bounds,
    SubgroupSpec,
    bounded_intersection_probe,
    free_product_oracle,
)
from hnnfree.presentation import gn, p2
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
SE2 = RuleSystem(E2.base)


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


def spec_label(name):
    def label(runs, gens):
        chunks = [f"({format_word(gens[i])})" + (f"^{e}" if e != 1 else "") for i, e in runs]
        return f"{name}: {' '.join(chunks)}"
    return label


def t_label(runs, gens):
    ((_, e),) = runs
    return f"t^{e}"


def brute(lists, syllables, screen, hit, max_products):
    checked = 0
    for r in range(1, syllables + 1):
        for seq in itertools.product(range(len(lists)), repeat=r):
            if any(a == b for a, b in zip(seq, seq[1:])):
                continue
            for choice in itertools.product(*(lists[i] for i in seq)):
                if max_products is not None and checked >= max_products:
                    return "inconclusive", max_products, None, None
                checked += 1
                w = EPSILON
                for _, f in choice:
                    w = w + f
                w = free_reduce(w)
                if any(exp_sum(w, g) for g in screen):
                    continue
                if hit(w):
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
    lists = [factor_list(spec_label(s.label), s.generators, exp_range) for s in specs]
    hit = lambda w: not w or not nf(w, S3)
    full = brute(lists, syllables, ALL_GN3, hit, None)
    for b in budgets(full):
        bounds = Bounds(syllables=syllables, exp_range=exp_range, max_products=b)
        rep = free_product_oracle(specs, S3, bounds)
        assert outcome(rep) == brute(lists, syllables, ALL_GN3, hit, b), (name, b)


def test_free_product_oracle_braid_layer_matches_brute_force():
    specs = [SubgroupSpec("H", (E2.parse("y1 x1"),), frozenset({OUTER})),
             SubgroupSpec("T", (E2.parse("t"),), frozenset({OUTER}))]
    lists = [factor_list(spec_label(s.label), s.generators, 2) for s in specs]
    hit = lambda w: not w or braid_trivial(E2, w)
    full = brute(lists, 4, ALL_E2, hit, None)
    assert full[0] == "fail"
    for b in budgets(full):
        rep = free_product_oracle(specs, SE2, Bounds(syllables=4, max_products=b),
                                  is_trivial=lambda w: braid_trivial(E2, w))
        assert outcome(rep) == brute(lists, 4, ALL_E2, hit, b), b


PROBE_CASES = {
    "orbit pair": (("x2", "y1 x2 y1^-1"), 5),
    "two words": (("y1 x2", "x2 y2"), 4),
    "pure base generator": (("y1",), 4),
    "degenerate generator": (("1",), 4),
    "empty": ((), 4),
}


@pytest.mark.parametrize("name", PROBE_CASES)
def test_bounded_intersection_probe_matches_brute_force(name):
    texts, max_len = PROBE_CASES[name]
    spec = gn3_spec("P", *texts)
    lists = [factor_list(spec_label("P"), spec.generators, max_len)]
    screen = [g for g in ALL_GN3 if not is_base(g)]

    def hit(w):
        v = nf(w, S3)
        return bool(v) and all(is_base(c) for c in v)

    full = brute(lists, 1, screen, hit, None)
    for b in budgets(full):
        rep = bounded_intersection_probe(spec, S3, max_len, b)
        assert outcome(rep) == brute(lists, 1, screen, hit, b), (name, b)


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
    lists = [factor_list(spec_label("H"), hs, 2), factor_list(t_label, [E2.parse("t")], 2)]
    hit = lambda w: not w or braid_trivial(E2, w)
    full = brute(lists, syllables, ALL_E2, hit, None)
    for b in budgets(full):
        rep = free_factor_probe(E2, hs, Bounds(syllables=syllables, max_products=b))
        assert outcome(rep) == brute(lists, syllables, ALL_E2, hit, b), (name, b)

"""Independent oracles for the rewriting engine in hnnfree.rewrite.

They share no code with it and read only the rule list.  rescan_leftmost
looks for the smallest position where some lhs occurs (then the first rule
in list order), splices, steps back by the longest lhs and scans forward
again: slow, but obviously leftmost.  overlaps_by_scan compares every rule
with every rule at every offset: quadratic, but obviously all the critical
pairs.  stable_signature and is_subsequence state the invariant of
criterion 04: rewriting only deletes stable/outer letters, never adds or
reorders them.
"""

from __future__ import annotations


def segment_lengths(w) -> tuple[int, ...]:
    """nu: the base-letter (even code) counts between stable/outer letters."""
    coords = [0]
    for c in w:
        if c % 2:
            coords.append(0)
        else:
            coords[-1] += 1
    return tuple(coords)


def stable_signature(w) -> tuple[int, ...]:
    """The sequence of stable/outer letters of w, in order."""
    return tuple(c for c in w if c & 1)


def is_subsequence(sub: tuple, full: tuple) -> bool:
    it = iter(full)
    return all(any(s == f for f in it) for s in sub)


def _match(word: list[int], pos: int, rules) -> int | None:
    for idx, r in enumerate(rules):
        if tuple(word[pos : pos + len(r.lhs)]) == r.lhs:
            return idx
    return None


def rescan_leftmost(w, rules, cap: int = 1_000_000):
    """(normal form, [(position, kind, rule id, nu after, segment)]) of the
    leftmost strategy over the rules, in list order at equal positions; the
    segment of a step is the number of odd letters before its redex."""
    word = list(w)
    back = max(len(r.lhs) for r in rules) - 1
    trace = []
    pos = 0
    while True:
        while pos < len(word) and _match(word, pos, rules) is None:
            pos += 1
        if pos >= len(word):
            return tuple(word), trace
        r = rules[_match(word, pos, rules)]
        segment = sum(c % 2 for c in word[:pos])
        word[pos : pos + len(r.lhs)] = r.rhs
        trace.append((pos, r.kind, r.rule_id, segment_lengths(word), segment))
        if len(trace) > cap:
            raise RuntimeError("rescan oracle: step cap exceeded")
        pos = max(0, pos - back)


def overlaps_by_scan(rules):
    """(peak, left reduct, right reduct, rule id 1, rule id 2, offset) of
    every overlap and embedding of two lhs, by first rule, offset, then
    second rule, in list order; at offset 0 once per unordered pair."""
    out = []
    for i1, r1 in enumerate(rules):
        l1 = r1.lhs
        for d in range(len(l1)):
            for i2, r2 in enumerate(rules):
                l2 = r2.lhs
                if d == 0 and i2 <= i1:
                    continue
                span = min(len(l1) - d, len(l2))
                if any(l1[d + k] != l2[k] for k in range(span)):
                    continue
                peak = l1 + l2[len(l1) - d :]
                left = r1.rhs + peak[len(l1) :]
                right = peak[:d] + r2.rhs + peak[d + len(l2) :]
                out.append((peak, left, right, r1.rule_id, r2.rule_id, d))
    return out

"""Independent oracle for the leftmost rewriting strategy.

A rescanning loop that shares no code with the engine in hnnfree.rewrite:
it reads only the rule list, looks for the smallest position where some lhs
occurs (then the first rule in list order), splices, steps back by the
longest lhs and scans forward again.  Slow, but obviously leftmost.
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


def _match(word: list[int], pos: int, rules) -> int | None:
    for idx, r in enumerate(rules):
        if tuple(word[pos : pos + len(r.lhs)]) == r.lhs:
            return idx
    return None


def rescan_leftmost(w, rules, cap: int = 1_000_000):
    """(normal form, [(position, kind, rule id, nu after)]) of the leftmost
    strategy over the rules, in list order at equal positions."""
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
        word[pos : pos + len(r.lhs)] = r.rhs
        trace.append((pos, r.kind, r.rule_id, segment_lengths(word)))
        if len(trace) > cap:
            raise RuntimeError("rescan oracle: step cap exceeded")
        pos = max(0, pos - back)

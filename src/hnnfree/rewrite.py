"""String rewriting engine: redex search, normal forms with traces, the
nu-vector termination order, and confluence checking.

Words are tuples of signed ints in the code of the words module.  The
one strategy is leftmost position, then smallest rule kind, then smallest
rule id; one stack engine (_leftmost) runs it for every normal form,
traced or not.  Confluence is machine-checked per rule system, so results do
not depend on the strategy; random_confluence_probe alone samples random
strategies, to test that.  Every rewriting-layer triviality decision
comes from one decider, RuleSystem.is_trivial.

equal refutes before it rewrites, by the words' images (words.image).
Each part of IMAGE_PARTS maps the free monoid on the letters
homomorphically to a group: the free reduction of the stable/outer
letters, F(X); of the base letters, F(Y); and the exponent sum of every
generator.  RuleSystem.kept lists the parts on which every rule's lhs and
rhs agree, checked rule by rule when equal first needs them; a step keeps
those, so nf does too, and words with different images have different
normal forms, confluent system or not.  The sums are compared only when
F(X) or F(Y) is not kept, since the two fix them.

A trace stores one record per step, or per batch of swaps the engine takes
at once, and rebuilds the nu vectors and segments only when render or
entries, its one per-step view, reads them.  render spells a batch in which
a base letter passes a run of stable letters in closed form, from one
spelling of the nu vector the batch starts from.  TRACE_CAP bounds the nu
coordinates that rendering the trace spells, one vector per step.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .presentation import HnnPresentation, compile_rules
from . import words
from .words import IMAGE_PARTS, CapExceeded, Inconclusive, Word, base_gen, format_word, image, stable_gen

# read by every rewrite loop when it starts, so tests can lower them; every
# step shortens nu (criterion 02), so reaching STEP_CAP means a long rewrite
STEP_CAP = 10_000_000
# nu coordinates the rendering of a trace may spell, one vector per step,
# summed over its steps; the trace itself stores a record per batch
TRACE_CAP = 10_000_000
_NOT_CONFLUENT = "distinct normal forms, and the rules are not confluent"


def nu(w) -> tuple[int, ...]:
    """Lengths of the base-letter segments split at stable/outer letters."""
    coords = [0]
    for c in w:
        if c & 1:  # stable or outer letter
            coords.append(0)
        else:
            coords[-1] += 1
    return tuple(coords)


def nu_less(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """The termination order: shorter vector first; at equal length compare
    from the last coordinate down (later coordinates dominate)."""
    return (len(a), a[::-1]) < (len(b), b[::-1])


class RuleSystem:
    """A rule list and one index into it, from each lhs to its rule, and
    the alphabet of the presentation, which spells the system's words.

    The rules are the presentation's compiled rules, which never share an
    lhs (kind 3 begins with x, kind 4 with x^-1, and validate forbids a
    base letter twice per stable letter); a list that did would raise
    ValueError as the index is built.  The lhs index is read only
    to compare lhs with lhs when the system is built.  Every scan of a word
    for an lhs reads the Aho-Corasick automaton of the lhs (_automaton):
    the leftmost engine by the longest lhs ending in the letter just read,
    redexes, match_at and the probe's random strategy by every lhs ending
    there (_matches), and is_normal_reduced and the intersection probe by
    whether one ends (read).  For its runs of swaps the engine keeps a
    floor per swap rule a c -> c a (_swap_floors).
    """

    def __init__(self, presentation: HnnPresentation):
        self.presentation, self.alphabet = presentation, presentation.alphabet
        self.rules = compile_rules(presentation)
        self._lhs_index: dict[Word, int] = {}
        for idx, r in enumerate(self.rules):
            if self._lhs_index.setdefault(r.lhs, idx) != idx:
                raise ValueError(f"two rules share the lhs {format_word(r.lhs, self.alphabet)}")
        self._sizes = sorted({len(lhs) for lhs in self._lhs_index})
        # per rule: its rhs reversed (pushed back onto the pending letters),
        # the lhs that beat it, and its floor if it is a swap
        wider = self._wider()
        floors = self._swap_floors(wider)
        self._engine = [(r.rhs[::-1], wider.get(idx, ()), floors.get(idx, 0))
                        for idx, r in enumerate(self.rules)]

    def _wider(self) -> dict[int, list[tuple]]:
        """For each rule, the lhs that contain its lhs at some offset d, run
        on past its end, and win over it: they start earlier (d > 0), or at
        the same place with a smaller index.  Entries are (d, rule index,
        the d letters before, the letters past the end reversed), sorted
        by start, then index.

        Found by looking up every factor of every lhs in the lhs index."""
        out: dict[int, list[tuple]] = {}
        index = self._lhs_index
        for lhs, idx2 in index.items():
            for m in self._sizes:
                for d in range(len(lhs) - m):
                    idx = index.get(lhs[d : d + m])
                    if idx is not None and (d or idx2 < idx):
                        out.setdefault(idx, []).append(
                            (d, idx2, list(lhs[:d]), list(lhs[d + m :][::-1])))
        for entries in out.values():
            entries.sort(key=lambda e: (-e[0], e[1]))
        return out

    def _swap_floors(self, wider) -> dict[int, int]:
        """The swaps, rules a c -> c a that are the first rule for their lhs
        and that no wider lhs beats, each with its floor max(1, L - 1), where
        L is the longest lhs ending in c.

        Once the swap has matched with c on a run of a, no lhs a^(m-1) c
        fits in the run.  After each swap, while at least floor letters a
        stay under c, every lhs ending in c reads some a^(m-1) c that fits,
        so the swap matches again, whatever lies below the run."""
        longest: dict[int, int] = {}
        for lhs in self._lhs_index:
            longest[lhs[-1]] = max(longest.get(lhs[-1], 0), len(lhs))
        out = {}
        for lhs, idx in self._lhs_index.items():
            if len(lhs) == 2 and lhs[0] != lhs[1] and self.rules[idx].rhs == lhs[::-1] \
                    and idx not in wider:
                out[idx] = max(1, longest[lhs[1]] - 1)
        return out

    @cached_property
    def _automaton(self) -> tuple[list[dict[int, int]], list[int], list, list[tuple]]:
        """The Aho-Corasick automaton of the lhs, (moves, fail, hits, ends),
        on the states of the trie of the lhs, the root 0 the empty word.
        fail[s] is the longest proper suffix of s's word that is a state;
        ends[s] is (rule index, length) of every lhs ending s's word, longest
        first: s's own lhs, if any, then those of fail[s]; hits[s] is ends[s][0]
        or None.  moves[s] holds the trie edges out of s, and each other
        transition once _move has taken it."""
        moves: list[dict[int, int]] = [{}]
        own: list[tuple[int, int] | None] = [None]
        for idx, r in enumerate(self.rules):
            s = 0
            for c in r.lhs:
                t = moves[s].get(c)
                if t is None:
                    t = moves[s][c] = len(moves)
                    moves.append({})
                    own.append(None)
                s = t
            own[s] = (idx, len(r.lhs))
        fail = [0] * len(moves)
        ends: list[tuple] = [()] * len(moves)
        order = [0]  # breadth first, so fail[s] is done before s
        for s in order:
            for c, t in moves[s].items():
                order.append(t)
                if s:
                    fail[t] = _move(moves, fail, fail[s], c)
                ends[t] = ends[fail[t]] if own[t] is None else (own[t], *ends[fail[t]])
        return moves, fail, [e[0] if e else None for e in ends], ends

    @cached_property
    def confluent(self) -> bool:
        """Whether every critical pair is joinable (check_local_confluence):
        only then do distinct normal forms prove two words unequal."""
        return check_local_confluence(self).ok

    @cached_property
    def kept(self) -> tuple[str, ...]:
        """The names of the parts of the image on which the lhs and rhs of
        every rule agree, so that rewriting keeps them."""
        sides = [(image(r.lhs), image(r.rhs)) for r in self.rules]
        return tuple(name for i, name in enumerate(IMAGE_PARTS)
                     if all(a[i] == b[i] for a, b in sides))

    @cached_property
    def _screen(self) -> list[int]:
        """Positions in image() of the kept parts _images_differ compares:
        the sums only if F(X) or F(Y) is not kept, since the two fix them."""
        kept = self.kept
        if "F(X)" in kept and "F(Y)" in kept:
            kept = kept[:2]
        return [IMAGE_PARTS.index(name) for name in kept]

    @cached_property
    def _nus(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per rule, for the traced loops: nu of its lhs and of its rhs."""
        return [(nu(r.lhs), nu(r.rhs)) for r in self.rules]

    def encode(self, w: Word) -> list[int]:
        """The mutable form the rewrite loops work on."""
        return list(w)

    def _matches(self, ints, lo: int, hi: int) -> list[tuple[int, int]]:
        """(position, rule index) of every lhs starting in [lo, hi), by position,
        then index: one walk of the lhs automaton from lo, on past hi by the
        longest lhs less one, listing every lhs that ends at a letter (ends)."""
        moves, fail, _, ends = self._automaton
        out, s = [], 0
        for k, c in enumerate(ints[lo : hi + max(self._sizes, default=1) - 1], lo + 1):
            try:
                s = moves[s][c]
            except KeyError:
                s = _move(moves, fail, s, c)
            out += [(k - m, idx) for idx, m in ends[s] if k - m < hi]
        out.sort()
        return out

    def match_at(self, ints, pos: int) -> int | None:
        """Index of the first rule whose lhs occurs at pos."""
        return next((idx for _, idx in self._matches(ints, pos, pos + 1)), None)

    def redexes(self, ints) -> list[tuple[int, int]]:
        """All (position, rule index) pairs, position order then index."""
        return self._matches(ints, 0, len(ints))

    def read(self, s: int, letters) -> int | None:
        """The state of the lhs automaton (_automaton) after reading letters
        from state s, or None as soon as an lhs ends at a letter.  From the
        root 0, a state means the letters read so far hold no lhs."""
        moves, fail, hits, _ = self._automaton
        for c in letters:
            try:
                s = moves[s][c]
            except KeyError:
                s = _move(moves, fail, s, c)
            if hits[s] is not None:
                return None
        return s

    def is_normal_reduced(self, w) -> bool:
        """Whether w holds no lhs, so that nf(w) == w: read from the root.
        It sees every lhs, a cancelling pair y y^-1 too, so w need not be
        freely reduced."""
        return self.read(0, w) is not None

    def nf_reduced(self, w):
        """nf(w), or w itself if it holds no lhs (is_normal_reduced)."""
        return w if self.is_normal_reduced(w) else nf(w, self)

    def _images_differ(self, u: Word, v: Word) -> bool:
        """Whether u and v differ in a kept image part (_screen), which
        proves them unequal on any system, without rewriting either."""
        at = self._screen
        if not at:
            return False
        sums = 2 in at  # IMAGE_PARTS[2]
        iu, iv = image(u, sums), image(v, sums)
        return any(iu[i] != iv[i] for i in at)

    def is_trivial(self, w) -> bool:
        """Whether w is trivial; only a word holding an lhs is rewritten.  A
        nonempty normal form v proves w nontrivial only on a confluent
        system; elsewhere only the kept image parts of v, which rewriting
        keeps, can, and v is not rewritten again."""
        v = self.nf_reduced(w)
        if not v or self.confluent or self._images_differ(v, ()):
            return not v
        raise Inconclusive(_NOT_CONFLUENT)


class TraceEntry(NamedTuple):
    position: int
    rule_kind: int
    rule_id: int
    nu_after: tuple[int, ...]
    segment: int  # the nu coordinate, counted from 0, that position lies in


@dataclass(frozen=True)
class RewriteTrace:
    """The steps of one rewrite as records (start, rule position, count):
    count steps of the rule at that position in system.rules, the first
    with its redex at start, and each further one (a batch of swaps
    a c -> c a) one letter left of the one before.  length is the number
    of steps.  entries expands the records one step each, replaying the nu
    vectors, and render spells a batch from the nu vector it starts from;
    both find a record's segment in that vector (_segment)."""
    initial: Word
    final: Word
    nu_initial: tuple[int, ...]
    records: tuple[tuple[int, int, int], ...]
    length: int
    system: RuleSystem

    def __len__(self) -> int:
        return self.length

    def _replay(self):
        """(position, rule position, segment, nu after) per step; the nu
        list is updated in place as it goes."""
        rules, nus = self.system.rules, self.system._nus
        vec = list(self.nu_initial)
        for start, idx, count in self.records:
            a, j = rules[idx].lhs[0], _segment(vec, start)
            for pos in range(start, start - count, -1):
                _splice_nu(vec, pos, j, *nus[idx])
                yield pos, idx, j, vec
                j -= a & 1

    @cached_property
    def entries(self) -> tuple[TraceEntry, ...]:
        """One TraceEntry per step, expanded from the records."""
        rules = self.system.rules
        return tuple(TraceEntry(pos, rules[idx].kind, rules[idx].rule_id, tuple(vec), j)
                     for pos, idx, j, vec in self._replay())

    def render(self) -> str:
        """One line per step, spelled in the system's alphabet.  A record
        of one step changes only the nu coordinates its lhs covers, from
        its segment j on, so its line respells just those and joins the
        rest as the line before left them.  A batch of swaps a c -> c a, a
        stable or outer and c a base letter, is spelled in closed form: its
        s-th step moves c from segment j + 1 to j + 1 - s, so its line is
        the batch's first nu V with V[j + 1 - s] + 1 and V[j + 1] - 1 put
        into the spelling of V.  Other batches are replayed a step at a
        time."""
        rules, nus, join = self.system.rules, self.system._nus, ", ".join
        alphabet = self.system.alphabet
        vec = list(self.nu_initial)
        parts = list(map(str, vec))
        lines = [f"initial: {format_word(self.initial, alphabet)}"]
        for start, idx, count in self.records:
            r, (lhs_nu, rhs_nu) = rules[idx], nus[idx]
            a, c, j = r.lhs[0], r.lhs[-1], _segment(vec, start)
            head = f"rule={r.kind}/{r.rule_id} nu=("
            if count > 1 and a & 1 and not c & 1:
                q, k, spelled = j + 1, len(lines), join(parts)
                # coordinate i of spelled starts at at[i] and ends at at[i + 1] - 2
                at = [0, *accumulate(len(p) + 2 for p in parts)]
                tail = f"{vec[q] - 1}{spelled[at[q + 1] - 2 :]})"
                lines += [f"#{k + s} pos={start - s} {head}{spelled[: at[i]]}{vec[i] + 1}"
                          f"{spelled[at[i + 1] - 2 : at[q]]}{tail}"
                          for s, i in enumerate(range(j, j - count, -1))]
                vec[q - count] += 1
                vec[q] -= 1
                parts[q - count], parts[q] = str(vec[q - count]), str(vec[q])
                continue
            for pos in range(start, start - count, -1):
                _splice_nu(vec, pos, j, lhs_nu, rhs_nu)
                parts[j : j + len(lhs_nu)] = map(str, vec[j : j + len(rhs_nu)])
                lines.append(f"#{len(lines)} pos={pos} {head}{join(parts)})")
                j -= a & 1
        lines.append(f"final: {format_word(self.final, alphabet)}")
        return "\n".join(lines)


def _segment(vec: list[int], start: int) -> int:
    """The nu coordinate that position start of a word with nu vector vec
    lies in: the number of stable/outer letters before it."""
    j = 0
    while start > vec[j]:  # segment j and the letter after it fill vec[j] + 1
        start -= vec[j] + 1
        j += 1
    return j


def _splice_nu(vec: list[int], start: int, j: int, a: tuple, b: tuple) -> None:
    """Turn vec = nu(word) into nu of the word after one step, in place.

    The step replaces a rule's lhs at start by its rhs, and a, b are their
    nu vectors (RuleSystem._nus); j is the segment start lies in, which
    begins at sum(vec[:j]) + j.  Only the segments the lhs covers change."""
    b = list(b)
    p = len(a) - 1
    if p:
        left, right = vec[j] - a[0], vec[j + p] - a[-1]
    else:  # the lhs lies inside one segment; split it only if rhs must
        left = start - sum(vec[:j]) - j if len(b) > 1 else 0
        right = vec[j] - a[0] - left
    b[0] += left
    b[-1] += right
    vec[j : j + p + 1] = b


def _move(moves: list[dict[int, int]], fail: list[int], s: int, c: int) -> int:
    """The transition of the lhs automaton (RuleSystem._automaton) from s on
    c, stored in moves[s]: the move on c of the first state from s along the
    failure links that has one, else the root."""
    f, t = s, moves[s].get(c)
    while t is None and f:
        f = fail[f]
        t = moves[f].get(c)
    moves[s][c] = t = 0 if t is None else t
    return t


def _leftmost(w, system: RuleSystem, records: list | None = None) -> tuple[list[int], int]:
    """The leftmost strategy on a stack; returns the normal form and the
    number of steps, and appends a RewriteTrace record per step, or per
    batch of swaps, to records if given (while the steps' nu vectors hold
    at most TRACE_CAP coordinates in all).  A traced run takes the same
    steps through the same code; it only records them, with no segment.

    out is the irreducible prefix; the letters still to read sit reversed on
    pending.  states[k] is the state of the lhs automaton
    (RuleSystem._automaton) after out[:k], so every cut of out cuts states
    to match.  A new redex must end at the letter just pushed, so the state
    that letter moves to names the longest lhs ending in it, the redex that
    starts first among those.  Only a redex that contains it and runs on
    into pending can start as early, and each rule lists those
    (RuleSystem._wider); the first that matches wins.
    A step cuts out back to the redex start and pushes the rhs onto pending.

    A swap a c -> c a on a run of a takes at once all the steps it takes
    while its floor of a stays under c (RuleSystem._swap_floors), counting
    them and recording them as one batch.  c then reads its state where it
    stands, under the a it passed, and takes the swaps that match there, a
    batch at a time, until no swap ends at it.  It lands there in place:
    it trades places with the top letter if it passed one run, else the
    letters it passed move up one place, with their states.  A state
    depends only on the letters of the longest lhs before it, so only the
    letters above c up to the first whose state reads as before, within
    the longest lhs, are read again, and the top letter, which changed.
    If an lhs ends at c or at one of them, out is cut back to that letter,
    which is read again from pending, as after any step.
    c lands only under a whole run, so the letters above it are the runs it
    passed, in order.  The next letter read meets them first, so if it swaps
    at once it reuses their lengths; other runs are counted letter by letter.
    """
    moves, fail, hits, _ = system._automaton
    engine = system._engine
    cap, trace_cap = STEP_CAP, TRACE_CAP
    out: list[int] = []
    states, s = [0], 0  # states[k]: the automaton's state after out[:k]; s = states[-1]
    pending = list(w)[::-1]
    width = len(nu(w)) if records is not None else 0  # nu coordinates of the word
    steps = coords = 0
    runs, run_at = [], None  # the runs the last letter to land passed, and (steps, len(out)) then
    while pending:
        c = pending.pop()
        out.append(c)
        try:
            s = moves[s][c]
        except KeyError:
            s = _move(moves, fail, s, c)
        states.append(s)
        hit = hits[s]
        if hit is None:
            continue
        idx, m = hit
        top = len(out)
        start = top - m
        rrhs, wider, floor = engine[idx]
        if floor:  # c swaps down past runs of letters a, in batches, and lands at p
            p, r = top - 1, 0
            known, runs = (runs if run_at == (steps, p) else ()), []
            while True:
                if not r:  # the next run of letters a = out[p - 1] under c
                    if len(runs) < len(known):
                        r = known[len(runs)]
                    else:
                        a, i = out[p - 1], p - 1
                        while i and out[i - 1] == a:
                            i -= 1
                        r = p - i
                    runs.append(r)
                b = r - floor + 1 if r > floor else 1
                if records is not None:  # the steps up to the step cap, each with its nu
                    k = min(b, cap - steps)
                    coords += k * width
                    if coords > trace_cap:
                        raise CapExceeded("rewrite trace", trace_cap)
                    records.append((p - 1, idx, k))
                steps += b
                if steps > cap:
                    raise CapExceeded("rewrite step", cap)
                p -= b
                r -= b
                t = _move(moves, fail, states[p], c)
                hit = hits[t]
                if hit is None or not engine[hit[0]][2]:
                    break
                idx = hit[0]
                floor = engine[idx][2]
            if len(runs) == 1:  # c passed one run: it trades places with the top letter
                out[p], out[-1] = c, out[p]
                states[p + 1] = t
            else:  # the letters c passed move up one place, with their states
                out.insert(p, c)
                out.pop()
                states.insert(p + 1, t)
                states.pop()
            # read again the letters above c that it changed, within the
            # longest lhs, up to the first that reads as before; then the top
            k = p
            while hits[t] is None:
                k += 1
                if k == top:
                    break
                t = _move(moves, fail, states[k], out[k])
                if t == states[k + 1]:  # and so do the letters above it, but the top one
                    k = max(k, top - 2)
                else:
                    states[k + 1] = t
            else:  # an lhs ends at out[k]: read it again, as after any step
                pending.extend(reversed(out[k:]))
                del out[k:]
                del states[k + 1 :]
                s = states[k]
                continue
            run_at = steps, top
            s = states[-1]
            continue
        for d, idx2, head, rtail in wider:
            t = len(rtail)
            if d <= start and t <= len(pending) and pending[-t:] == rtail \
                    and out[start - d : start] == head:
                start, idx = start - d, idx2
                rrhs = engine[idx2][0]
                del pending[-t:]
                break
        del out[start:]
        del states[start + 1 :]
        s = states[-1]
        pending += rrhs
        steps += 1
        if steps > cap:
            raise CapExceeded("rewrite step", cap)
        if records is not None:
            lhs_nu, rhs_nu = system._nus[idx]
            width += len(rhs_nu) - len(lhs_nu)
            coords += width
            if coords > trace_cap:
                raise CapExceeded("rewrite trace", trace_cap)
            records.append((start, idx, 1))
    return out, steps


def _apply_random(w: Word, system: RuleSystem, seed: int) -> tuple[Word, RewriteTrace]:
    """The normal form of w and its trace by the random strategy of
    random_confluence_probe: each step at a redex that random.Random(seed)
    draws from the list of all of them, in position order, then index
    order; one RewriteTrace record (position, rule, 1) per step.

    A step changes only the redexes that start less than the longest lhs
    before its end in the new word, so only those positions are scanned
    again; the redexes past them move by the change in length."""
    steps = coords = 0
    cap, trace_cap = STEP_CAP, TRACE_CAP
    ints, records, rng = list(w), [], random.Random(seed)
    width, back = len(nu(ints)), max(system._sizes, default=1) - 1
    reds = system.redexes(ints)
    while reds:
        pos, idx = reds[rng.randrange(len(reds))]
        lhs, rhs = system.rules[idx].lhs, system.rules[idx].rhs
        records.append((pos, idx, 1))
        ints[pos : pos + len(lhs)] = rhs
        steps += 1
        if steps > cap:
            raise CapExceeded("rewrite step", cap)
        lhs_nu, rhs_nu = system._nus[idx]
        width += len(rhs_nu) - len(lhs_nu)
        coords += width
        if coords > trace_cap:
            raise CapExceeded("rewrite trace", trace_cap)
        lo, shift = max(0, pos - back), len(rhs) - len(lhs)
        keep, past = bisect_left(reds, (lo,)), bisect_left(reds, (pos + len(lhs),))
        reds[keep:] = [*system._matches(ints, lo, pos + len(rhs)),
                       *((p + shift, i) for p, i in reds[past:])]
    final = tuple(ints)
    return final, RewriteTrace(w, final, nu(w), tuple(records), steps, system)


def normal_form(w: Word, system: RuleSystem) -> tuple[Word, RewriteTrace]:
    """The normal form of w and the trace of the leftmost steps to it."""
    records: list[tuple[int, int, int]] = []
    ints, steps = _leftmost(w, system, records)
    final = tuple(ints)
    return final, RewriteTrace(w, final, nu(w), tuple(records), steps, system)


def nf_ints(ints: list[int], system: RuleSystem) -> list[int]:
    """Normal form of a word given as a list, in place; returns its argument."""
    ints[:] = _leftmost(ints, system)[0]
    return ints


def nf_steps(w: Word, system: RuleSystem) -> tuple[Word, int]:
    """Normal form without the trace, and the number of leftmost steps."""
    out, steps = _leftmost(w, system)
    return tuple(out), steps


def nf(w: Word, system: RuleSystem) -> Word:
    """Normal form without the trace."""
    return tuple(_leftmost(w, system)[0])


def equal(u: Word, v: Word, system: RuleSystem) -> bool:
    """Word-problem equality: u and v have the same normal form.

    Rewriting keeps each part of the image in system.kept, so u and v are
    first compared there, and a part that differs answers False without
    rewriting, on any system.  Equal normal forms answer True; distinct
    ones answer False only on a confluent system, and raise Inconclusive
    on any other."""
    if system._images_differ(u, v):
        return False
    if nf(u, system) == nf(v, system):
        return True
    if system.confluent:
        return False
    raise Inconclusive(_NOT_CONFLUENT)


@dataclass(frozen=True)
class CriticalPair:
    peak: Word
    left_reduct: Word
    right_reduct: Word
    rule1: int
    rule2: int
    offset: int


def critical_pairs(system: RuleSystem) -> list[CriticalPair]:
    """All overlaps and embeddings of two lhs patterns with their one-step
    reducts, by first rule, offset d into its lhs l1, then second rule, in
    list order.  Offset 0 pairs are emitted once per unordered rule pair.

    The second lhs starts with the rest l1[d:] of the first, found among
    the lhs with its first letter, or is a proper prefix of that rest,
    found in the lhs index at each lhs length."""
    out: list[CriticalPair] = []
    rules, index, sizes = system.rules, system._lhs_index, system._sizes
    first: dict[int, list[int]] = {}
    for i2, r in enumerate(rules):
        first.setdefault(r.lhs[0], []).append(i2)
    for i1, (_, id1, l1, r1) in enumerate(rules):
        for d in range(len(l1)):
            rest, n = l1[d:], len(l1) - d
            candidates = [index[rest[:m]] for m in sizes if m < n and rest[:m] in index]
            candidates += [i2 for i2 in first.get(rest[0], ()) if rules[i2].lhs[:n] == rest]
            for i2 in sorted(candidates):
                if d == 0 and i2 <= i1:
                    continue
                _, id2, l2, r2 = rules[i2]
                peak = l1 + l2[len(l1) - d :]
                left = r1 + peak[len(l1) :]
                right = peak[:d] + r2 + peak[d + len(l2) :]
                out.append(CriticalPair(peak, left, right, id1, id2, d))
    return out


@dataclass(frozen=True)
class ConfluenceReport:
    ok: bool
    pairs_checked: int
    failures: tuple[CriticalPair, ...]


def check_local_confluence(system: RuleSystem) -> ConfluenceReport:
    """Normalize both reducts of every critical pair; termination is
    certified per trace, so joinability everywhere gives global confluence
    by Newman's lemma."""
    failures = []
    pairs = critical_pairs(system)
    for cp in pairs:
        if nf(cp.left_reduct, system) != nf(cp.right_reduct, system):
            failures.append(cp)
    return ConfluenceReport(not failures, len(pairs), tuple(failures))


def random_word(rng: random.Random, system: RuleSystem, max_len: int) -> Word:
    """Uniform letters with sign over base+stable; unreduced on purpose.

    Draws a sign, then k in 1..B+S standing for y_k (k <= B) or x_{k-B}.
    A max_len above words.WORD_CAP, read at call time, raises CapExceeded
    before anything is drawn."""
    if max_len > words.WORD_CAP:
        raise CapExceeded("word length", words.WORD_CAP)
    a = system.alphabet
    n_base = len(a.base_names)
    n_codes = n_base + len(a.stable_names)
    out = []
    for _ in range(rng.randint(1, max_len)):
        sign, k = rng.choice((1, -1)), rng.randint(1, n_codes)
        out.append(sign * (base_gen(k) if k <= n_base else stable_gen(k - n_base)))
    return tuple(out)


@dataclass(frozen=True)
class ProbeFailure:
    trial: int
    word: Word
    results: tuple[Word, ...]
    reason: str


@dataclass(frozen=True)
class ProbeReport:
    ok: bool
    trials: int
    failures: tuple[ProbeFailure, ...]
    strategies = 5  # random strategies per word: a class constant, not a field


def random_confluence_probe(system: RuleSystem, seed: int, trials: int, max_len: int) -> ProbeReport:
    """Normalize random words under ProbeReport.strategies random strategies
    (_apply_random) and the leftmost one; assert identical results and
    nu-decreasing traces."""
    rng, strategies = random.Random(seed), ProbeReport.strategies
    failures: list[ProbeFailure] = []
    for trial in range(trials):
        w = random_word(rng, system, max_len)
        results = []
        for s in range(strategies):
            res, trace = _apply_random(w, system, seed * 1_000_003 + trial * strategies + s)
            results.append(res)
            prev = trace.nu_initial
            for e in trace.entries:
                if not nu_less(e.nu_after, prev):
                    failures.append(ProbeFailure(trial, w, tuple(results), "nu not decreasing"))
                    break
                prev = e.nu_after
        if set(results) != {nf(w, system)}:  # after the sampled runs, so their caps trip first
            failures.append(ProbeFailure(trial, w, tuple(results), "strategy disagreement"))
    return ProbeReport(not failures, trials, tuple(failures))

"""String rewriting engine: redex search, normal forms with traces, the
nu-vector termination order, and confluence checking.

Words are tuples of signed ints in the code of the words module.  The
deterministic strategy is leftmost position, then smallest rule kind, then
smallest rule id; one stack engine (_leftmost) runs it for every normal form,
traced or not.  Confluence is machine-checked per rule system, so results do
not depend on the strategy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .presentation import HnnPresentation, RewriteRule, compile_rules
from .words import Word, base_gen, format_word, stable_gen

# read by every rewrite loop when it starts, so tests can lower it
STEP_CAP = 10_000_000


class StepCapExceeded(RuntimeError):
    """A rewrite ran past STEP_CAP steps; termination bug suspected."""

    def __init__(self, cap: int):
        super().__init__(f"rewrite step cap {cap} exceeded; termination bug suspected")


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
    """A compiled rule set with its match indexes.

    Rules are bucketed by the first letter of their lhs for `match_at`;
    compile order makes bucket order equal (kind, id) order.  The leftmost
    engine uses an lhs index instead: each distinct lhs maps to its first
    rule, and each last letter to the lhs lengths ending in it, longest
    first.
    """

    def __init__(self, presentation: HnnPresentation, rules: list[RewriteRule] | None = None):
        self.presentation = presentation
        self.rules = compile_rules(presentation) if rules is None else list(rules)
        self._rl = [(r.lhs, r.rhs, r.kind, r.rule_id) for r in self.rules]
        self._by_first: dict[int, list[int]] = {}
        self._lhs_index: dict[Word, int] = {}
        ends: dict[int, set[int]] = {}
        for idx, (lhs, _, _, _) in enumerate(self._rl):
            self._by_first.setdefault(lhs[0], []).append(idx)
            self._lhs_index.setdefault(lhs, idx)
            ends.setdefault(lhs[-1], set()).add(len(lhs))
        self._ends = {c: sorted(ms, reverse=True) for c, ms in ends.items()}
        # per rule: its rhs reversed (pushed back onto the pending letters),
        # the stable/outer letters in its lhs, and the lhs that beat it
        wider = self._wider()
        self._engine = [
            (rhs[::-1], sum([c & 1 for c in lhs]), wider.get(idx, ()))
            for idx, (lhs, rhs, _, _) in enumerate(self._rl)
        ]
        # first letters of the non-cancellation lhs patterns; a freely reduced
        # word avoiding them all is already in normal form
        self.move_starts = frozenset(
            lhs[0]
            for lhs, rhs, _, _ in self._rl
            if not (len(lhs) == 2 and lhs[1] == -lhs[0] and not rhs)
        )

    def _wider(self) -> dict[int, list[tuple]]:
        """For each rule, the lhs that contain its lhs at some offset d, run
        on past its end, and win over it: they start earlier (d > 0), or at
        the same place with a smaller index.  Entries are (d, rule index,
        the d letters before, the letters past the end reversed, the
        stable/outer letters up to the end), sorted by start, then index.

        Found by looking up every factor of every lhs in the lhs index."""
        out: dict[int, list[tuple]] = {}
        index = self._lhs_index
        sizes = {len(lhs) for lhs in index}
        for lhs, idx2 in index.items():
            for m in sizes:
                for d in range(len(lhs) - m):
                    idx = index.get(lhs[d : d + m])
                    if idx is not None and (d or idx2 < idx):
                        out.setdefault(idx, []).append((
                            d, idx2, list(lhs[:d]), list(lhs[d + m :][::-1]),
                            sum([c & 1 for c in lhs[: d + m]]),
                        ))
        for entries in out.values():
            entries.sort(key=lambda e: (-e[0], e[1]))
        return out

    def encode(self, w: Word) -> list[int]:
        """The mutable form the rewrite loops work on."""
        return list(w)

    def _matches(self, ints, positions):
        """(position, rule index) of every lhs occurring at one of the
        positions, in position order, then (kind, id) order."""
        n = len(ints)
        for pos in positions:
            for idx in self._by_first.get(ints[pos], ()):
                lhs = self._rl[idx][0]
                if pos + len(lhs) <= n and all(ints[pos + k] == lhs[k] for k in range(1, len(lhs))):
                    yield pos, idx

    def match_at(self, ints, pos: int) -> int | None:
        """Index of the first rule (kind, id order) whose lhs occurs at pos."""
        return next((idx for _, idx in self._matches(ints, (pos,))), None)

    def redexes(self, ints) -> list[tuple[int, int]]:
        """All (position, rule index) pairs, position order then (kind, id)."""
        return list(self._matches(ints, range(len(ints))))


@dataclass(frozen=True)
class RewriteStep:
    position: int
    rule_kind: int
    rule_id: int
    before: Word
    after: Word
    nu_before: tuple[int, ...]
    nu_after: tuple[int, ...]


@dataclass(frozen=True)
class TraceEntry:
    position: int
    rule_kind: int
    rule_id: int
    nu_after: tuple[int, ...]


@dataclass(frozen=True)
class RewriteTrace:
    initial: Word
    final: Word
    nu_initial: tuple[int, ...]
    entries: tuple[TraceEntry, ...]
    system: RuleSystem

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def steps(self) -> list[RewriteStep]:
        """Full before/after step records, replayed from the entry list."""
        out = []
        cur = list(self.initial)
        prev_nu = self.nu_initial
        before = self.initial
        for e in self.entries:
            lhs, rhs, _, _ = self.system._rl[e.rule_id]
            cur[e.position : e.position + len(lhs)] = rhs
            after = tuple(cur)
            out.append(
                RewriteStep(
                    e.position, e.rule_kind, e.rule_id, before, after, prev_nu, e.nu_after
                )
            )
            before, prev_nu = after, e.nu_after
        return out

    def render(self, alphabet=None) -> str:
        lines = [f"initial: {format_word(self.initial, alphabet)}"]
        lines += [
            f"#{k} pos={e.position} rule={e.rule_kind}/{e.rule_id} "
            f"nu=({', '.join(map(str, e.nu_after))})"
            for k, e in enumerate(self.entries, 1)
        ]
        lines.append(f"final: {format_word(self.final, alphabet)}")
        return "\n".join(lines)


def find_redexes(w: Word, system: RuleSystem) -> list[tuple[int, int]]:
    """All (position, rule id) pairs where some lhs occurs as a substring."""
    return [(pos, system._rl[idx][3]) for pos, idx in system.redexes(w)]


def _splice_nu(vec: list[int], prefix, start: int, j: int, lhs: Word, rhs: Word) -> None:
    """Turn vec = nu(word) into nu of the word after one step, in place.

    The step replaces lhs at start by rhs; j is the segment start lies in,
    and prefix holds at least word[:start].  Only the segments the lhs
    covers change."""
    a, b = nu(lhs), list(nu(rhs))
    p = len(a) - 1
    if p:
        left, right = vec[j] - a[0], vec[j + p] - a[-1]
    else:  # the lhs lies inside one segment; split it only if rhs must
        left = 0
        if len(b) > 1:
            while left < start and not prefix[start - left - 1] & 1:
                left += 1
        right = vec[j] - a[0] - left
    b[0] += left
    b[-1] += right
    vec[j : j + p + 1] = b


def _leftmost(w, system: RuleSystem, entries: list | None = None) -> tuple[list[int], int]:
    """The leftmost strategy on a stack; returns the normal form and the
    number of steps, and appends a TraceEntry per step to entries if given.

    out is the irreducible prefix; the letters still to read sit reversed on
    pending.  A new redex must end at the letter just pushed, so one lookup
    per lhs length ending in it finds the one that starts first.  Only a
    redex that contains it and runs on into pending can start as early, and
    each rule lists those (RuleSystem._wider); the first that matches wins.
    A step cuts out back to the redex start and pushes the rhs onto pending.
    """
    index, ends, engine, rl = system._lhs_index, system._ends, system._engine, system._rl
    cap = STEP_CAP
    out: list[int] = []
    pending = list(w)[::-1]
    vec = list(nu(w)) if entries is not None else None
    odd = steps = 0  # odd: stable/outer letters in out, the index of its last segment
    while pending:
        c = pending.pop()
        out.append(c)
        odd += c & 1
        lengths = ends.get(c)
        if lengths is None:
            continue
        top = len(out)
        for m in lengths:
            if m <= top:
                idx = index.get(tuple(out[top - m :]))
                if idx is not None:
                    break
        else:
            continue
        start = top - m
        rrhs, n_odd, wider = engine[idx]
        for d, idx2, head, rtail, odd2 in wider:
            t = len(rtail)
            if d <= start and t <= len(pending) and pending[-t:] == rtail \
                    and out[start - d : start] == head:
                start, idx, n_odd = start - d, idx2, odd2
                rrhs = engine[idx2][0]
                del pending[-t:]
                break
        del out[start:]
        odd -= n_odd
        pending += rrhs
        steps += 1
        if steps > cap:
            raise StepCapExceeded(cap)
        if entries is not None:
            lhs, rhs, kind, rule_id = rl[idx]
            _splice_nu(vec, out, start, odd, lhs, rhs)
            entries.append(TraceEntry(start, kind, rule_id, tuple(vec)))
    return out, steps


def _apply_random(ints: list[int], system: RuleSystem, entries: list, rng):
    steps = 0
    cap = STEP_CAP
    vec = list(nu(ints))
    while True:
        reds = system.redexes(ints)
        if not reds:
            return
        pos, idx = reds[rng.randrange(len(reds))]
        lhs, rhs, kind, rule_id = system._rl[idx]
        _splice_nu(vec, ints, pos, sum(c & 1 for c in ints[:pos]), lhs, rhs)
        ints[pos : pos + len(lhs)] = rhs
        steps += 1
        if steps > cap:
            raise StepCapExceeded(cap)
        entries.append(TraceEntry(pos, kind, rule_id, tuple(vec)))


def normal_form(
    w: Word,
    system: RuleSystem,
    strategy: str = "leftmost",
    seed: int | None = None,
) -> tuple[Word, RewriteTrace]:
    """Rewrite to an irreducible word; the result is strategy-independent
    because termination is per-trace certified and confluence is checked."""
    entries: list[TraceEntry] = []
    if strategy == "leftmost":
        ints, _ = _leftmost(w, system, entries)
    elif strategy == "random":
        ints = list(w)
        _apply_random(ints, system, entries, random.Random(seed))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    final = tuple(ints)
    return final, RewriteTrace(w, final, nu(w), tuple(entries), system)


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


def is_normal(w: Word, system: RuleSystem) -> bool:
    return all(system.match_at(w, p) is None for p in range(len(w)))


def equal(u: Word, v: Word, system: RuleSystem) -> bool:
    """Word-problem equality: syntactic equality of normal forms."""
    return nf(u, system) == nf(v, system)


def stable_signature(w: Word) -> Word:
    """The sequence of stable/outer letters of w, in order."""
    return tuple(c for c in w if c & 1)


def is_subsequence(sub: tuple, full: tuple) -> bool:
    it = iter(full)
    return all(any(s == f for f in it) for s in sub)


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
    reducts.  Offset 0 pairs are emitted once per unordered rule pair."""
    out: list[CriticalPair] = []
    rl = system._rl
    for i1, (l1, r1, _, id1) in enumerate(rl):
        for d in range(len(l1)):
            for i2, (l2, r2, _, id2) in enumerate(rl):
                if d == 0 and i2 <= i1:
                    continue
                span = min(len(l1) - d, len(l2))
                if any(l1[d + k] != l2[k] for k in range(span)):
                    continue
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

    Draws a sign, then k in 1..B+S standing for y_k (k <= B) or x_{k-B}."""
    a = system.presentation.alphabet
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
    strategies: int
    failures: tuple[ProbeFailure, ...]


def random_confluence_probe(
    system: RuleSystem, seed: int, trials: int, max_len: int, strategies: int = 5
) -> ProbeReport:
    """Normalize random words under several random strategies and the
    deterministic one; assert identical results and nu-decreasing traces."""
    rng = random.Random(seed)
    failures: list[ProbeFailure] = []
    for trial in range(trials):
        w = random_word(rng, system, max_len)
        reference = nf(w, system)
        results = []
        for s in range(strategies):
            res, trace = normal_form(w, system, strategy="random", seed=seed * 1_000_003 + trial * strategies + s)
            results.append(res)
            prev = trace.nu_initial
            for e in trace.entries:
                if not nu_less(e.nu_after, prev):
                    failures.append(ProbeFailure(trial, w, tuple(results), "nu not decreasing"))
                    break
                prev = e.nu_after
        if any(r != reference for r in results):
            failures.append(ProbeFailure(trial, w, tuple(results), "strategy disagreement"))
    return ProbeReport(not failures, trials, strategies, tuple(failures))

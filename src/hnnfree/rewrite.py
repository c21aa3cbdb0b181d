"""String rewriting engine: redex search, normal forms with traces, the
nu-vector termination order, and confluence checking.

Words are tuples of signed ints in the code of the words module; the engine
rewrites them in place as lists.  The deterministic strategy is leftmost
position, then smallest rule kind, then smallest rule id; confluence is
machine-checked per rule system, so results do not depend on the strategy.
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

    Rules are bucketed by the first letter of their lhs; compile order makes
    bucket order equal (kind, id) order.
    """

    def __init__(self, presentation: HnnPresentation, rules: list[RewriteRule] | None = None):
        self.presentation = presentation
        self.rules = compile_rules(presentation) if rules is None else list(rules)
        self._rl = [(r.lhs, r.rhs, r.kind, r.rule_id) for r in self.rules]
        self._by_first: dict[int, list[int]] = {}
        for idx, (lhs, _, _, _) in enumerate(self._rl):
            self._by_first.setdefault(lhs[0], []).append(idx)
        self.max_lhs = max((len(lhs) for lhs, _, _, _ in self._rl), default=1)
        # first letters of the non-cancellation lhs patterns; a freely reduced
        # word avoiding them all is already in normal form
        self.move_starts = frozenset(
            lhs[0]
            for lhs, rhs, _, _ in self._rl
            if not (len(lhs) == 2 and lhs[1] == -lhs[0] and not rhs)
        )

    def encode(self, w: Word) -> list[int]:
        """The mutable form the rewrite loops work on."""
        return list(w)

    def match_at(self, ints, pos: int) -> int | None:
        """Index of the first rule (kind, id order) whose lhs occurs at pos."""
        bucket = self._by_first.get(ints[pos])
        if not bucket:
            return None
        n = len(ints)
        for idx in bucket:
            lhs = self._rl[idx][0]
            if pos + len(lhs) <= n and all(
                ints[pos + k] == lhs[k] for k in range(1, len(lhs))
            ):
                return idx
        return None

    def redexes(self, ints) -> list[tuple[int, int]]:
        """All (position, rule index) pairs, position order then (kind, id)."""
        out = []
        n = len(ints)
        for pos in range(n):
            bucket = self._by_first.get(ints[pos])
            if not bucket:
                continue
            for idx in bucket:
                lhs = self._rl[idx][0]
                if pos + len(lhs) <= n and all(
                    ints[pos + k] == lhs[k] for k in range(1, len(lhs))
                ):
                    out.append((pos, idx))
        return out


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


def _apply_leftmost(ints: list[int], system: RuleSystem, entries: list):
    pos = 0
    steps = 0
    cap = STEP_CAP
    max_lhs = system.max_lhs
    while True:
        n = len(ints)
        idx = None
        while pos < n:
            idx = system.match_at(ints, pos)
            if idx is not None:
                break
            pos += 1
        if pos >= n or idx is None:
            return
        lhs, rhs, kind, rule_id = system._rl[idx]
        ints[pos : pos + len(lhs)] = rhs
        steps += 1
        if steps > cap:
            raise StepCapExceeded(cap)
        entries.append(TraceEntry(pos, kind, rule_id, nu(ints)))
        # a new redex can reach at most max_lhs-1 positions left of the splice
        pos = max(0, pos - max_lhs + 1)


def _apply_random(ints: list[int], system: RuleSystem, entries: list, rng):
    steps = 0
    cap = STEP_CAP
    while True:
        reds = system.redexes(ints)
        if not reds:
            return
        pos, idx = reds[rng.randrange(len(reds))]
        lhs, rhs, kind, rule_id = system._rl[idx]
        ints[pos : pos + len(lhs)] = rhs
        steps += 1
        if steps > cap:
            raise StepCapExceeded(cap)
        entries.append(TraceEntry(pos, kind, rule_id, nu(ints)))


def normal_form(
    w: Word,
    system: RuleSystem,
    strategy: str = "leftmost",
    seed: int | None = None,
) -> tuple[Word, RewriteTrace]:
    """Rewrite to an irreducible word; the result is strategy-independent
    because termination is per-trace certified and confluence is checked."""
    ints = list(w)
    entries: list[TraceEntry] = []
    if strategy == "leftmost":
        _apply_leftmost(ints, system, entries)
    elif strategy == "random":
        _apply_random(ints, system, entries, random.Random(seed))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    final = tuple(ints)
    return final, RewriteTrace(w, final, nu(w), tuple(entries), system)


def nf_ints(ints: list[int], system: RuleSystem) -> list[int]:
    """Normal form of a word given as a list, in place; returns its argument.

    The allocation-free variant of nf for callers that enumerate many words."""
    pos = 0
    max_lhs = system.max_lhs
    match_at = system.match_at
    rl = system._rl
    steps = 0
    cap = STEP_CAP
    while True:
        n = len(ints)
        idx = None
        while pos < n:
            idx = match_at(ints, pos)
            if idx is not None:
                break
            pos += 1
        if pos >= n or idx is None:
            return ints
        lhs, rhs, _, _ = rl[idx]
        ints[pos : pos + len(lhs)] = rhs
        steps += 1
        if steps > cap:
            raise StepCapExceeded(cap)
        pos = max(0, pos - max_lhs + 1)


def nf(w: Word, system: RuleSystem) -> Word:
    """Normal form without the trace."""
    return tuple(nf_ints(list(w), system))


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

    def __repr__(self) -> str:
        verdict = "confluent" if self.ok else f"{len(self.failures)} non-joinable"
        return f"<local confluence: {self.pairs_checked} critical pairs, {verdict}>"


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

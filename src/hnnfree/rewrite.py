"""String rewriting engine: redex search, normal forms with traces, the
nu-vector termination order, and confluence checking.

Words are encoded internally as lists of signed integers (one per letter) so
the inner matching loop stays cheap; the public surface speaks Word.  The
deterministic strategy is leftmost position, then smallest rule kind, then
smallest rule id; confluence is machine-checked per rule system, so results
do not depend on the strategy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .presentation import HnnPresentation, RewriteRule, compile_rules
from .words import Gen, GenKind, Letter, Word, base_gen, stable_gen, OUTER

STEP_CAP = 10_000_000


@dataclass(frozen=True)
class NuVector:
    """Lengths of the base-letter segments split at stable/outer letters."""

    coords: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def nu_less(a: NuVector, b: NuVector) -> bool:
    """The termination order: shorter vector first; at equal length compare
    from the last coordinate down (later coordinates dominate)."""
    if len(a) != len(b):
        return len(a) < len(b)
    for x, y in zip(reversed(a.coords), reversed(b.coords)):
        if x != y:
            return x < y
    return False


class RuleSystem:
    """A compiled rule set with its integer letter encoding and indexes.

    Base letters get codes 1..B, stable letters B+1..B+S, the outer letter
    B+S+1; a letter is sign * code.  Rules are bucketed by the first letter
    of their lhs; compile order makes bucket order equal (kind, id) order.
    """

    def __init__(self, presentation: HnnPresentation, rules: list[RewriteRule] | None = None):
        self.presentation = presentation
        self.rules = compile_rules(presentation) if rules is None else list(rules)
        a = presentation.alphabet
        self.n_base = len(a.base_names)
        self.n_stable = len(a.stable_names)
        self._rl: list[tuple[tuple[int, ...], tuple[int, ...], int, int]] = []
        self._by_first: dict[int, list[int]] = {}
        self.max_lhs = 1
        for idx, r in enumerate(self.rules):
            lhs = tuple(self._code(l) for l in r.lhs)
            rhs = tuple(self._code(l) for l in r.rhs)
            self._rl.append((lhs, rhs, r.kind, r.rule_id))
            self._by_first.setdefault(lhs[0], []).append(idx)
            self.max_lhs = max(self.max_lhs, len(lhs))
        # first letters of the non-cancellation lhs patterns; a freely reduced
        # word avoiding them all is already in normal form
        self.move_starts = frozenset(
            lhs[0]
            for lhs, rhs, _, _ in self._rl
            if not (len(lhs) == 2 and lhs[1] == -lhs[0] and not rhs)
        )

    def _code(self, l: Letter) -> int:
        g = l.gen
        if g.kind is GenKind.BASE:
            return l.sign * g.index
        if g.kind is GenKind.STABLE:
            return l.sign * (self.n_base + g.index)
        return l.sign * (self.n_base + self.n_stable + 1)

    def encode(self, w: Word) -> list[int]:
        return [self._code(l) for l in w.letters]

    def decode(self, ints) -> Word:
        out = []
        for c in ints:
            code, sign = abs(c), 1 if c > 0 else -1
            if code <= self.n_base:
                g = base_gen(code)
            elif code <= self.n_base + self.n_stable:
                g = stable_gen(code - self.n_base)
            else:
                g = OUTER
            out.append(Letter(g, sign))
        return Word(tuple(out))

    def nu_ints(self, ints) -> NuVector:
        coords = [0]
        nb = self.n_base
        for c in ints:
            if abs(c) > nb:
                coords.append(0)
            else:
                coords[-1] += 1
        return NuVector(tuple(coords))

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


def nu(w: Word, system: RuleSystem | None = None) -> NuVector:
    """nu of a word; the split only needs letter kinds, not a system."""
    coords = [0]
    for l in w.letters:
        if l.gen.kind is GenKind.BASE:
            coords[-1] += 1
        else:
            coords.append(0)
    return NuVector(tuple(coords))


@dataclass(frozen=True)
class RewriteStep:
    position: int
    rule_kind: int
    rule_id: int
    before: Word
    after: Word
    nu_before: NuVector
    nu_after: NuVector


@dataclass(frozen=True)
class TraceEntry:
    position: int
    rule_kind: int
    rule_id: int
    nu_after: NuVector


@dataclass(frozen=True)
class RewriteTrace:
    initial: Word
    final: Word
    nu_initial: NuVector
    entries: tuple[TraceEntry, ...]
    system: RuleSystem

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def steps(self) -> list[RewriteStep]:
        """Full before/after step records, replayed from the entry list."""
        out = []
        cur = self.system.encode(self.initial)
        prev_nu = self.nu_initial
        before = self.initial
        for e in self.entries:
            lhs, rhs, _, _ = self.system._rl[e.rule_id]
            cur[e.position : e.position + len(lhs)] = rhs
            after = self.system.decode(cur)
            out.append(
                RewriteStep(
                    e.position, e.rule_kind, e.rule_id, before, after, prev_nu, e.nu_after
                )
            )
            before, prev_nu = after, e.nu_after
        return out

    def render(self, alphabet=None) -> str:
        from .words import format_word

        lines = [f"initial: {format_word(self.initial, alphabet)}"]
        lines += [
            f"#{k} pos={e.position} rule={e.rule_kind}/{e.rule_id} nu={e.nu_after}"
            for k, e in enumerate(self.entries, 1)
        ]
        lines.append(f"final: {format_word(self.final, alphabet)}")
        return "\n".join(lines)


def find_redexes(w: Word, system: RuleSystem) -> list[tuple[int, int]]:
    """All (position, rule id) pairs where some lhs occurs as a substring."""
    return [(pos, system._rl[idx][3]) for pos, idx in system.redexes(system.encode(w))]


def _apply_leftmost(ints: list[int], system: RuleSystem, entries: list, max_steps: int):
    pos = 0
    steps = 0
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
        if steps > max_steps:
            raise RuntimeError(
                f"rewrite step cap {max_steps} exceeded; termination bug suspected"
            )
        entries.append(TraceEntry(pos, kind, rule_id, system.nu_ints(ints)))
        # a new redex can reach at most max_lhs-1 positions left of the splice
        pos = max(0, pos - max_lhs + 1)


def _apply_random(ints: list[int], system: RuleSystem, entries: list, rng, max_steps: int):
    steps = 0
    while True:
        reds = system.redexes(ints)
        if not reds:
            return
        pos, idx = reds[rng.randrange(len(reds))]
        lhs, rhs, kind, rule_id = system._rl[idx]
        ints[pos : pos + len(lhs)] = rhs
        steps += 1
        if steps > max_steps:
            raise RuntimeError(
                f"rewrite step cap {max_steps} exceeded; termination bug suspected"
            )
        entries.append(TraceEntry(pos, kind, rule_id, system.nu_ints(ints)))


def normal_form(
    w: Word,
    system: RuleSystem,
    strategy: str = "leftmost",
    seed: int | None = None,
    max_steps: int = STEP_CAP,
) -> tuple[Word, RewriteTrace]:
    """Rewrite to an irreducible word; the result is strategy-independent
    because termination is per-trace certified and confluence is checked."""
    ints = system.encode(w)
    entries: list[TraceEntry] = []
    nu0 = system.nu_ints(ints)
    if strategy == "leftmost":
        _apply_leftmost(ints, system, entries, max_steps)
    elif strategy == "random":
        _apply_random(ints, system, entries, random.Random(seed), max_steps)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return system.decode(ints), RewriteTrace(w, system.decode(ints), nu0, tuple(entries), system)


def nf_ints(ints: list[int], system: RuleSystem) -> list[int]:
    """Normal form on the integer encoding, in place; returns its argument.

    The object-free variant of nf for callers that enumerate many words."""
    pos = 0
    max_lhs = system.max_lhs
    match_at = system.match_at
    rl = system._rl
    steps = 0
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
        if steps > STEP_CAP:
            raise RuntimeError("rewrite step cap exceeded; termination bug suspected")
        pos = max(0, pos - max_lhs + 1)


def nf(w: Word, system: RuleSystem) -> Word:
    """Normal form without the trace."""
    return system.decode(nf_ints(system.encode(w), system))


def is_normal(w: Word, system: RuleSystem) -> bool:
    ints = system.encode(w)
    return all(system.match_at(ints, p) is None for p in range(len(ints)))


def equal(u: Word, v: Word, system: RuleSystem) -> bool:
    """Word-problem equality: syntactic equality of normal forms."""
    return nf(u, system) == nf(v, system)


def stable_signature(w: Word) -> tuple[Letter, ...]:
    """The sequence of stable/outer letters of w, in order."""
    return tuple(l for l in w.letters if l.gen.kind is not GenKind.BASE)


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
                peak = list(l1) + list(l2[len(l1) - d :])
                left = list(r1) + peak[len(l1) :]
                right = peak[:d] + list(r2) + peak[d + len(l2) :]
                out.append(
                    CriticalPair(
                        system.decode(peak),
                        system.decode(left),
                        system.decode(right),
                        id1,
                        id2,
                        d,
                    )
                )
    return out


@dataclass(frozen=True)
class ConfluenceReport:
    ok: bool
    pairs_checked: int
    failures: tuple[CriticalPair, ...]

    def __repr__(self) -> str:
        verdict = "confluent" if self.ok else f"{len(self.failures)} non-joinable"
        return f"<local confluence: {self.pairs_checked} critical pairs, {verdict}>"


def check_local_confluence(system: RuleSystem, max_steps: int = 100_000) -> ConfluenceReport:
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
    """Uniform letters with sign over base+stable; unreduced on purpose."""
    n_codes = system.n_base + system.n_stable
    length = rng.randint(1, max_len)
    ints = [rng.choice((1, -1)) * rng.randint(1, n_codes) for _ in range(length)]
    return system.decode(ints)


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

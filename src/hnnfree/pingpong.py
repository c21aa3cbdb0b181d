"""Freeness certificates for collections of subgroups.

A collection of subgroups with pairwise disjoint stable-letter supports
generates its free product as soon as each subgroup meets the pure-base
subgroup trivially.  Certificates record which conditions were machine
checked and what evidence backs the base-intersection hypothesis; the
brute-force oracles independently confirm the conclusion up to bounds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from functools import reduce
from math import prod
from operator import add, or_, sub
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from . import words
from .presentation import Association, HnnPresentation
from .rewrite import RuleSystem
from .words import (
    OUTER,
    Alphabet,
    CapExceeded,
    GeneratorMap,
    Inconclusive,
    Word,
    exp_sum,
    format_word,
    free_reduce,
    identity_map,
    image,
    invert,
    is_base,
    join_reduced,
)

if TYPE_CHECKING:
    from .braid import Group


class Verdict(str, Enum):
    """A verdict: its display word, which the member equals, hashes and
    prints as, and exit, the code the CLI exits with on it."""

    CERTIFIED = "certified", 0
    PASS = "pass", 0
    REFUTED = "refuted", 1
    FAIL = "fail", 1
    INCONCLUSIVE = "inconclusive", 3

    def __new__(cls, word: str, code: int):
        member = str.__new__(cls, word)
        member._value_, member.exit = word, code
        return member

    __str__, __format__ = str.__str__, str.__format__


@dataclass(frozen=True)
class SubgroupSpec:
    """A labelled subgroup: generator words plus a declared support.

    The support is the set of stable (or outer) letters the subgroup is
    allowed to use on top of the base letters; a base letter in it is a
    ValueError, which names no letter, as a spec knows no alphabet.
    """

    label: str
    generators: tuple[Word, ...]
    support: frozenset[int]

    def __post_init__(self) -> None:
        if any(map(is_base, self.support)):
            raise ValueError("support must consist of stable letters")


@dataclass(frozen=True)
class Condition:
    name: str
    ok: bool
    witness: str | None = None


def conditions_text(head: str, conds: Sequence[Condition]) -> str:
    """A condition list as text: the head, then `  ok   name  [witness]` each."""
    lines = [head]
    for c in conds:
        suffix = f"  [{c.witness}]" if c.witness else ""
        lines.append(f"  {'ok' if c.ok else 'FAIL':4} {c.name}{suffix}")
    return "\n".join(lines)


def conditions_doc(conds: Sequence[Condition]) -> list[dict]:
    """A condition list as JSON: {"name", "ok", "witness"} each."""
    return [asdict(c) for c in conds]


@dataclass(frozen=True)
class Bounds:
    """Enumeration limits for the oracles.

    exp_range caps both the exponent of one run and the generator uses of
    one alternating factor.  max_products is the overall budget; exceeding
    it yields an inconclusive verdict, never a pass.  Without a budget below
    words.PRODUCT_CAP, the walk stops at the cap, inconclusive too.
    """

    syllables: int = 6
    exp_range: int = 2
    max_products: int | None = None


@dataclass(frozen=True)
class Certificate:
    """Outcome of a freeness check: cited criterion, conditions and the
    witness that refutes it, if any.  Refuted with a witness, else certified
    when every condition holds, else inconclusive."""

    theorem: str
    conditions: tuple[Condition, ...]
    witness: Word | None = None

    @property
    def verdict(self) -> Verdict:
        if self.witness is not None:
            return Verdict.REFUTED
        return Verdict.CERTIFIED if all(c.ok for c in self.conditions) else Verdict.INCONCLUSIVE

    def render(self) -> str:
        return conditions_text(f"verdict: {self.verdict}  ({self.theorem})", self.conditions)

    def doc(self) -> dict:
        return {"verdict": self.verdict, "theorem": self.theorem,
                "conditions": conditions_doc(self.conditions), "bounds": None}


@dataclass(frozen=True)
class OracleReport:
    """Result of a bounded enumeration: fail with a witness, inconclusive
    with a note (a budget or cap spent, or a product left undecided), else
    pass; the witness is spelled in `alphabet`."""

    checked: int
    witness: Word | None = None
    witness_factors: tuple[str, ...] | None = None
    note: str | None = None
    alphabet: Alphabet | None = None

    @property
    def verdict(self) -> Verdict:
        return Verdict.FAIL if self.witness is not None else Verdict.INCONCLUSIVE if self.note else Verdict.PASS

    def render(self) -> str:
        line = f"{self.verdict}  (products checked: {self.checked})"
        if self.witness is not None:
            line += f"\n  witness: {format_word(self.witness, self.alphabet)}"
        if self.witness_factors:
            line += f"\n  factors: {' | '.join(self.witness_factors)}"
        if self.note:
            line += f"\n  note: {self.note}"
        return line

    def doc(self) -> dict:
        return {
            "verdict": self.verdict,
            "checked": self.checked,
            "witness": None if self.witness is None else format_word(self.witness, self.alphabet),
            "witness_factors": list(self.witness_factors) if self.witness_factors else None,
            "note": self.note,
        }


def support_check(
    spec: SubgroupSpec, disjoint_with: Sequence[SubgroupSpec], alphabet: Alphabet
) -> list[Condition]:
    """Support conditions for one spec against the others.

    Checks non-emptiness, pairwise disjointness, and that the free
    reduction of every generator word stays inside base letters plus the
    support.  Witnesses spell generators in `alphabet`.
    """
    name = alphabet.name
    conds = [Condition(f"support_nonempty[{spec.label}]", bool(spec.support))]
    for other in disjoint_with:
        overlap = spec.support & other.support
        witness = ", ".join(sorted(name(g) for g in overlap)) or None
        conds.append(Condition(f"support_disjoint[{spec.label},{other.label}]", not overlap, witness))
    bad: list[str] = []
    for w in spec.generators:
        for c in free_reduce(w):
            if not is_base(c) and abs(c) not in spec.support:
                bad.append(f"{name(abs(c))} in {format_word(w, alphabet)}")
                break
    conds.append(Condition(f"support_contains_generators[{spec.label}]", not bad,
                           "; ".join(bad) or None))
    return conds


def _two_conjugators(p: HnnPresentation) -> tuple[int, Association] | None:
    """The first stable letter of p and its association with w != v, or None:
    with w = v throughout, [x_i, y_j] = 1 gives the quotient F(X) x F(Y)."""
    return next(((x, a) for x in p.stable_gens for a in p.associations(x) if a.w != a.v), None)


def descends_to_identity(m: GeneratorMap, p: HnnPresentation) -> bool:
    """Whether m projects to the identity on both coordinates of F(X) x F(Y).

    Defined only when every association has w = v (_two_conjugators).
    """
    if bad := _two_conjugators(p):
        x, a = bad
        raise ValueError("direct-product projection undefined: association "
                         f"({p.alphabet.name(a.y)}) of {p.alphabet.name(x)} has two distinct conjugators")
    return all(image(m.apply((g,)), False)[:2] == image((g,), False)[:2]
               for g in p.base_gens + p.stable_gens)


def orbit_intersection_certificate(m: GeneratorMap, w: Word, p: HnnPresentation) -> Certificate:
    """Certify that the subgroup generated by the m-orbit of w avoids the base.

    Requires m to descend to the identity on the direct-product quotient;
    then a non-vanishing stable projection of w forces A = <m^k(w)> to meet
    the pure-base subgroup trivially.  A vanishing projection proves nothing
    (every power of a commutator [x1, y1] keeps a stable letter), so it
    refutes only when w itself is a nontrivial pure base word, which lies
    in A; otherwise the verdict is inconclusive.
    """
    if not descends_to_identity(m, p):
        raise ValueError("map does not descend to the identity on the direct product")
    px = image(w, False)[0]
    conds = (
        Condition("map_descends_to_identity", True),
        Condition(
            "stable_projection_nontrivial",
            bool(px),
            format_word(px, p.alphabet) if px else "stable projection is empty",
        ),
    )
    r = free_reduce(w)
    pure_base = bool(r) and all(is_base(c) for c in r)
    return Certificate("orbit-intersection", conds, r if pure_base else None)


def orbit_evidence(spec: SubgroupSpec, w: Word, p: HnnPresentation) -> Certificate:
    """The orbit certificate of w under the identity map as evidence for spec.

    It speaks of A = <w>, so it counts only when every generator of spec,
    freely reduced, is w^{+-1}, the whole orbit.  Otherwise it is
    inconclusive and names the first generator not covered, spelled in p's
    alphabet.
    """
    cert = orbit_intersection_certificate(identity_map(p.base_gens + p.stable_gens), w, p)
    r = free_reduce(w)
    missing = [g for g in spec.generators if free_reduce(g) not in (r, invert(r))]
    if not missing:
        return cert
    why = f"{format_word(missing[0], p.alphabet)} not in the orbit of {format_word(w, p.alphabet)}"
    covers = Condition(f"orbit_covers_generators[{spec.label}]", False, why)
    return Certificate(cert.theorem, (covers,) + cert.conditions)


def _projection_certifies(spec: SubgroupSpec, p: HnnPresentation) -> bool:
    """Whether A = <spec> meets the base trivially because every association
    has w = v, making pi: x -> (x, 1), y -> (1, y) a homomorphism to F(X) x
    F(Y), and every generator, with no t, maps to (a, b)^{+-1} for one a != 1:
    then h in A and in the base has pi(h) = (a, b)^k = (1, h), so h = 1."""
    if _two_conjugators(p) or any(OUTER in map(abs, free_reduce(g)) for g in spec.generators):
        return False
    pairs = (image(g, False)[:2] for g in spec.generators)
    images = {min((a, b), (invert(a), invert(b))) for a, b in pairs}
    return len(images) <= 1 and all(a for a, _ in images)


Evidence = Certificate | OracleReport | str


def free_product_certificate(
    specs: Sequence[SubgroupSpec],
    evidence: Mapping[str, Evidence],
    p: HnnPresentation,
) -> Certificate:
    """Certify that the given subgroups of the group p presents generate
    their free product.

    Supports must be pairwise disjoint and non-empty and contain the
    generators (support_check); each spec needs base-intersection evidence.
    A certified orbit certificate for which _projection_certifies holds, or
    a declared external proof, is proof-grade; any other certificate and a
    bounded probe pass leave the verdict inconclusive, and so does a failed
    support condition, a failed hypothesis.  Only a probe witness refutes.
    Witnesses are spelled in p's alphabet.
    """
    conds: list[Condition] = []
    for i, spec in enumerate(specs):
        conds += support_check(spec, specs[i + 1 :], p.alphabet)
    witness = None
    for spec in specs:
        name = f"base_intersection_trivial[{spec.label}]"
        ev = evidence.get(spec.label)
        if ev is None:
            conds.append(Condition(name, False, "no evidence supplied"))
        elif isinstance(ev, Certificate) and ev.theorem != "orbit-intersection":
            conds.append(Condition(name, False, f"{ev.theorem} certificate: not base-intersection evidence"))
        elif isinstance(ev, Certificate):
            ok = ev.verdict == Verdict.CERTIFIED
            why = next((f" ({c.witness})" for c in ev.conditions if not c.ok), "")
            if ok and not _projection_certifies(spec, p):
                ok, why = False, f" (no direct-product projection shows that {spec.label} meets the base trivially)"
            conds.append(Condition(name, ok, f"orbit certificate: {ev.verdict}{why}"))
        elif isinstance(ev, OracleReport):
            # Bounded evidence never certifies, but a failed probe refutes.
            if ev.witness is not None:
                conds.append(Condition(name, False, f"probe found witness {format_word(ev.witness, p.alphabet)}"))
                witness = ev.witness
            else:
                note = f" ({ev.note})" if ev.note else ""
                conds.append(Condition(name, False, f"bounded probe only: {ev.verdict}{note}"))
        else:
            conds.append(Condition(name, True, f"declared: {ev}"))
    return Certificate("free-product-pingpong", tuple(conds), witness)


def _alternating(live: Sequence[int], r: int, before: int):
    """The sequences of r items of live with no two neighbours equal and
    the first not equal to before, in the order itertools.product lists
    them; only these are generated."""
    if not r:
        yield ()
        return
    for i in live:
        if i != before:
            for rest in _alternating(live, r - 1, i):
                yield (i,) + rest


def _factor_desc(spec: SubgroupSpec, runs: list[tuple[int, int]], alphabet: Alphabet) -> str:
    chunks = []
    for idx, e in runs:
        base = format_word(spec.generators[idx], alphabet)
        chunks.append(f"({base})^{e}" if e != 1 else f"({base})")
    return f"{spec.label}: {' '.join(chunks)}"


def _walk(
    specs: Sequence[SubgroupSpec],
    bounds: Bounds,
    screen: Callable[[int], bool],
    hit: Callable[[Word], bool],
    alphabet: Alphabet,
    trivial: Callable[[Word], bool],
    reader: tuple[object, Callable[[object, Word], object], Callable[[object], bool]] | None = None,
) -> OracleReport:
    """Depth-first walk over the alternating products of the specs.

    A product a_1 ... a_r has r <= bounds.syllables factors, adjacent ones
    from different specs.  A factor is a sequence of runs g^e over its
    spec's generators, adjacent runs on different generators, with
    1 <= |e| and total uses sum |e| <= exp_range: a reduced word of that
    many letters in the generators taken as free letters.  Order: syllable
    count, then spec sequence, then each factor by total uses and then by
    its runs (generator index, |e|, positive first), so the first witness
    is minimal.  An exp_range above words.EXP_RANGE_CAP, read at call time,
    raises CapExceeded before anything is built.  Every other stop
    is an inconclusive report with a note: past max_products products, or
    past words.PRODUCT_CAP, read at call time, when no smaller budget is
    given, it counts that many products checked; a words.Inconclusive that
    `hit` or `trivial` raises counts the products decided before the one
    it was given.

    A prefix carries its freely reduced word and its exponent sums on the
    generators of its letters for which `screen` holds.  Each such
    coordinate has exact reach sets: every value that the rest of the
    current factor (given its uses left and its last generator) can add,
    and every value that the factors of the slots still to come can add.
    Once a sum is no longer the negation of a value of the two sets added
    together, no completion brings it back to zero (parity and non-empty
    factors included), and the whole subtree is counted as checked without
    being visited.  A run that ends the last factor must bring every sum
    to zero, so it is settled by comparing what it adds with what the
    prefix lacks: a run that fails counts as its one product, and its
    word is never built.  A product whose sums vanish goes to `hit` as a
    tuple.  A hit is a witness only if `trivial` holds for none of its
    factors, whose words are built for hits alone; the first witness fails
    the report, which spells it and its factors in `alphabet`.

    A `reader`, (start, read, clean_hit), decides products without `hit`
    while it can.  A prefix then carries a state too: start on the empty
    prefix, then read(state, letters) on each run's letters, the run words
    read as they are concatenated.  read returns None once it cannot vouch
    for the letters; that prefix is dirty, and below it the walk runs as
    above.  A clean state answers `hit` for a product as clean_hit(state)
    does, so a clean product's word is built only for a witness.  Each
    transition is computed once per state and run.  The subtree of a
    clean child is settled when the walk leaves it with no dirty node and
    no clean_hit that held; its key (slot, state, sums, uses left,
    generator of the run) fixes the products below it, their screening and
    their verdicts, so another child with that key in the same spec
    sequence counts its products as a prune does, without being visited.

    The runs that may come next in a factor depend only on the spec, its
    uses left and the generator of the run before, so each such triple
    reads them from one list, built the first time the walk reaches it:
    every allowed run in walk order with its word, its step in the sums
    and its rest sets, leaving out a run that no run could follow.  Only
    the alternating sequences of non-empty specs are walked.  A prefix
    word and a run's word are both freely reduced, so they are joined at
    the seam (words.join_reduced).
    """
    e_max, budget, cap = bounds.exp_range, bounds.max_products, words.PRODUCT_CAP
    limit = cap if budget is None else min(budget, cap)
    # returned up the walk, in place of a witness, once the limit is spent
    stop = f"oracle product cap {cap} exceeded" if limit == cap else f"budget of {limit} products exceeded"
    if e_max > words.EXP_RANGE_CAP:
        raise CapExceeded("exponent range", words.EXP_RANGE_CAP)
    gen_words = [s.generators for s in specs]
    coords = sorted({abs(c) for gens in gen_words for g in gens for c in g if screen(abs(c))})
    steps = [[[exp_sum(g, c) for c in coords] for g in gens] for gens in gen_words]
    # A set of values v of coordinate k is the int with the bits v + off[k],
    # off[k] bounding what one factor adds.  A sum s is carried as
    # s + bias[k], bias[k] bounding every sum, and a tail set T as the bits
    # bias[k] + off[k] - t, so that s + f + t = 0 for some t in T and f in
    # a factor's set F exactly when (T >> s + bias[k]) & F is not 0.
    off = [e_max * max((abs(st[k]) for sts in steps for st in sts), default=0)
           for k in range(len(coords))]

    def shift(bits: int, v: int) -> int:
        return bits << v if v >= 0 else bits >> -v

    def reach(d: list[int], o: int) -> tuple[list[list[int]], list[int]]:
        """For one coordinate, to which the generators add d: avoid[u][g],
        the values of the reduced words of u letters that do not begin with
        generator g (u = 0: the empty word), and the values of the factors."""
        n = len(d)
        avoid, ends, every = [[1 << o] * n], [(0, 0)] * n, 0
        for _ in range(e_max):
            # words of one more letter, by their first letter g or g^-1
            ends = [(shift(a | p, d[g]), shift(a | m, -d[g]))
                    for g, (a, (p, m)) in enumerate(zip(avoid[-1], ends))]
            both = [p | m for p, m in ends]
            avoid.append([reduce(or_, both[:g] + both[g + 1:], 0) for g in range(n)])
            every = reduce(or_, both, every)
        return avoid, [v - o for v in range(every.bit_length()) if every >> v & 1]

    # per spec: rests[i][u][g] holds a set per coordinate, values[i] the
    # values of its factors per coordinate, powers[i][g][e] the reduced
    # word g^e and what it adds to each sum, built (candidates) when a
    # run of g may first reach |e|, subtree[i][u] the run
    # sequences of u uses after a run and sizes[i] its factors.  The factors
    # of u uses are the 2n(2n-1)^(u-1) reduced words of u letters in its n
    # generators, and 2(n-1)(2n-1)^(u-1) of them avoid a given first one.
    rests, values, powers, subtree, sizes = [], [], [], [], []
    for gens, sts in zip(gen_words, steps):
        n = len(gens)
        per_coord = [reach([st[k] for st in sts], o) for k, o in enumerate(off)]
        rests.append([[[r[u][g] for r, _ in per_coord] for g in range(n)]
                      for u in range(e_max + 1)])
        values.append([vs for _, vs in per_coord])
        powers.append([{} for _ in gens])
        grow = [(2 * n - 1) ** u for u in range(e_max)]
        subtree.append([1] + [2 * (n - 1) * q for q in grow])
        sizes.append(2 * n * sum(grow))
    # a non-empty spec has 2 factors or more, so with two or more of them
    # the 2^(r+1) - 4 or more products of fewer than r syllables are counted
    # before r is reached; with one, only r = 1 has products
    live = [i for i, size in enumerate(sizes) if size]
    reachable = max(1, (limit + 4).bit_length() - 2) if len(live) > 1 else 1
    syllables = min(bounds.syllables, reachable)
    bias = [syllables * o for o in off]
    # the tail set of every spec sequence walked so far, the empty one first
    tails = {(): [1 << b + o for b, o in zip(bias, off)]}
    # the runs of a spec that may come next, given its uses left and the
    # generator of the run before (-1: none), each as (idx, e, g^e, what it
    # adds to the sums, uses left after it, the run sequences after it, the
    # rest sets after it, the reader's state after it by the state before),
    # in walk order; built when first needed
    cands: dict[tuple[int, int, int], list[tuple]] = {}
    path: list[tuple[int, int, int]] = []
    checked = unsettled = 0
    start, read, clean_hit = reader or (None, None, None)

    def slots() -> list[list[tuple[int, int]]]:
        """The runs (generator index, exponent) of each factor on path."""
        out = [[] for _ in seq]
        for pos, idx, e in path:
            out[pos].append((idx, e))
        return out

    def candidates(i: int, left: int, last: int) -> list[tuple]:
        out = []
        for idx, pw in enumerate(powers[i]):
            if idx == last:
                continue
            built = len(pw) // 2
            if built < left:  # extend pw to |e| = left, g^e freely reduced
                g, st = free_reduce(gen_words[i][idx]), steps[i][idx]
                up, down = (pw[built][0], pw[-built][0]) if built else ((), ())
                for mag in range(built + 1, left + 1):
                    up, down = join_reduced(up, g), join_reduced(down, invert(g))
                    pw[mag], pw[-mag] = (up, [mag * d for d in st]), (down, [-mag * d for d in st])
            for mag in range(1, left + 1):
                rest = left - mag
                if subtree[i][rest]:  # else no run can follow this one
                    for e in (mag, -mag):
                        out.append((idx, e, *pw[e], rest, subtree[i][rest], rests[i][rest][idx], {}))
        return out

    def follow(state, moves: dict, letters: Word):
        """The reader's state after a run's letters, kept in its moves."""
        if state not in moves:
            moves[state] = read(state, letters)
        return moves[state]

    # factor() picks the factor of slot pos, runs() extends it run by run;
    # seq, tail, tail_size and settled belong to the spec sequence being
    # walked, path holds the runs (slot, generator index, exponent) of the
    # prefix, and state is the reader's state on it, None once dirty
    def factor(pos: int, w: Word, sums: list[int], state):
        for total in range(1, e_max + 1):
            found = runs(pos, w, sums, -1, total, state)
            if found is not None:
                return found
        return None

    def runs(pos: int, w: Word, sums: list[int], last: int, left: int, state):
        nonlocal checked, unsettled
        key = seq[pos], left, last
        todo = cands.get(key)
        if todo is None:
            todo = cands[key] = candidates(*key)
        ts, size = tail[pos], tail_size[pos]
        # a run that ends the last factor must bring every sum to bias
        need = list(map(sub, bias, sums)) if pos == end else None
        for idx, e, letters, step, rest, after, fs, moves in todo:
            if rest or need is None:
                nxt = list(map(add, sums, step))
                for s, f, t in zip(nxt, fs, ts):
                    if not t >> s & f:
                        if checked + after * size > limit:
                            return stop
                        checked += after * size
                        break
                else:
                    sub_state = None if state is None else follow(state, moves, letters)
                    if sub_state is None:
                        unsettled += 1
                    else:
                        child = pos, sub_state, tuple(nxt), rest, idx
                        if child in settled:
                            if checked + after * size > limit:
                                return stop
                            checked += after * size
                            continue
                        mark = unsettled
                    path.append((pos, idx, e))
                    v = join_reduced(w, letters)
                    found = (runs(pos, v, nxt, idx, rest, sub_state) if rest
                             else factor(pos + 1, v, nxt, sub_state))
                    if found is not None:
                        return found
                    path.pop()
                    if sub_state is not None and unsettled == mark:
                        settled.add(child)
            else:  # a whole product, whose sums vanish exactly when step == need
                if checked >= limit:
                    return stop
                checked += 1
                if step == need:
                    end_state = None if state is None else follow(state, moves, letters)
                    if end_state is not None and not clean_hit(end_state):
                        continue
                    unsettled += 1
                    path.append((pos, idx, e))
                    v = join_reduced(w, letters)
                    if (end_state is not None or hit(v)) and not any(
                            trivial(reduce(join_reduced, (powers[i][idx][e][0] for idx, e in made)))
                            for i, made in zip(seq, slots())):
                        return v
                    path.pop()
        return None

    try:
        for r in range(1, syllables + 1):
            for seq in _alternating(live, r, -1):
                # the suffixes of seq are walked sequences, so only seq is new
                tails[seq] = [
                    reduce(or_, (shift(t, -v) for v in vs), 0)
                    for t, vs in zip(tails[seq[1:]], values[seq[0]])
                ]
                tail, end = [tails[seq[pos + 1 :]] for pos in range(r)], r - 1
                tail_size = [prod(sizes[i] for i in seq[pos + 1 :]) for pos in range(r)]
                settled = set()
                found = factor(0, (), bias, start)
                if found is stop:
                    return OracleReport(max(limit, 0), note=stop)
                if found is not None:
                    factors = tuple(_factor_desc(specs[i], made, alphabet)
                                    for i, made in zip(seq, slots()))
                    return OracleReport(checked, found, factors, alphabet=alphabet)
    except Inconclusive as e:  # the product just counted is left undecided
        return OracleReport(checked - 1, note=str(e))
    finally:  # runs and factor reach themselves through their closure cells
        runs = factor = None
    return OracleReport(checked)


def free_product_oracle(
    specs: Sequence[SubgroupSpec],
    group: Group | RuleSystem,
    bounds: Bounds,
    is_trivial: Callable[[Word], bool] | None = None,
) -> OracleReport:
    """Exhaustively check that alternating products are nontrivial in group.

    Enumerates products a_1 ... a_r with r <= bounds.syllables, adjacent
    factors from different specs, each factor a nonempty reduced word in one
    spec's generators within bounds; order is syllable count, then spec
    sequence, then factor choice, so the first witness is minimal.  Exponent
    sums in every letter screen the products; the rest go to is_trivial, by
    default group.is_trivial: a braid.Group's decides in the group its
    source presents, the braid layer by the splitting, and a RuleSystem's
    rewrites only a product that holds an lhs.  A trivial product is a
    witness only if is_trivial finds each of its factors nontrivial; a
    product it cannot decide (words.Inconclusive) stops the walk with an
    inconclusive report.  The witness is spelled in group.alphabet.
    """
    if is_trivial is None:
        is_trivial = group.is_trivial
    trivial = lambda w: not w or is_trivial(w)
    # every generator, t included, is an exponent-sum invariant
    return _walk(specs, bounds, lambda g: True, trivial, group.alphabet, trivial)


def bounded_intersection_probe(spec: SubgroupSpec, system: RuleSystem, max_len: int) -> OracleReport:
    """Check that no short nontrivial element of the subgroup is a pure base word.

    Enumerates reduced words in the declared generators up to max_len uses;
    products that are trivial in the group are skipped, nontrivial ones must
    keep a stable letter in their normal form.  Only the non-base exponent
    sums screen the products.  Past words.PRODUCT_CAP products, or on a
    product it cannot decide, the report is inconclusive.

    The walk reads the run words of each prefix, as they are concatenated,
    with the lhs automaton (RuleSystem.read), and carries down the state
    (automaton state, a letter was read, a stable letter was read).  Every
    cancelling pair is an lhs, so while no lhs has ended the state is
    clean: the letters read are the freely reduced prefix and hold no lhs,
    so they are their own normal form, and a clean product is a witness
    exactly when it read a letter and no stable letter.  This holds on any
    system, confluent or not.  Once an lhs ends the prefix is dirty, and
    each of its products that passes the screen is rewritten
    (RuleSystem.nf_reduced).  A clean subtree is counted once per key
    (_walk).  A spec with a letter outside the system's alphabet, whose
    cancelling pairs are no lhs, is walked without the automaton.
    """
    def pure_base(w: Word) -> bool:
        v = system.nf_reduced(w)
        return bool(v) and all(map(is_base, v))

    def read(state: tuple[int, bool, bool], letters: Word) -> tuple[int, bool, bool] | None:
        s, seen, stable = state
        s = system.read(s, letters)
        return None if s is None else (s, seen or bool(letters), stable or not all(map(is_base, letters)))

    letters = {c for g in spec.generators for c in g}
    exact = all(system.read(0, (d, -d)) is None for c in letters for d in (c, -c))
    reader = ((0, False, False), read, lambda state: state[1] and not state[2]) if exact else None
    bounds = Bounds(syllables=1, exp_range=max_len)
    # a hit's one factor is itself, which pure_base shows is nontrivial
    return _walk([spec], bounds, lambda g: not is_base(g), pure_base, system.alphabet, lambda f: False,
                 reader)

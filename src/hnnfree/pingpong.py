"""Freeness certificates for collections of subgroups.

A collection of subgroups with pairwise disjoint stable-letter supports
generates its free product as soon as each subgroup meets the pure-base
subgroup trivially.  Certificates record which conditions were machine
checked and what evidence backs the base-intersection hypothesis; the
brute-force oracles independently confirm the conclusion up to bounds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import product
from math import prod
from typing import Callable, Mapping, Sequence

from .presentation import HnnPresentation
from .rewrite import RuleSystem, nf, nf_ints
from .words import (
    OUTER,
    Alphabet,
    GeneratorMap,
    Word,
    format_word,
    free_reduce,
    gen_name,
    invert,
    is_base,
    project_base,
    project_stable,
)

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"
# oracle verdicts; a budget overrun is INCONCLUSIVE
PASS = "pass"
FAIL = "fail"


class _Budget(Exception):
    """Raised internally when an oracle exhausts its product budget."""


@dataclass(frozen=True)
class SubgroupSpec:
    """A labelled subgroup: generator words plus a declared support.

    The support is the set of stable (or outer) letters the subgroup is
    allowed to use on top of the base letters.
    """

    label: str
    generators: tuple[Word, ...]
    support: frozenset[int]

    def __post_init__(self) -> None:
        for g in self.support:
            if is_base(g):
                raise ValueError(f"support must consist of stable letters, got {gen_name(g)}")


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
    it yields an inconclusive verdict, never a pass.
    """

    syllables: int = 6
    exp_range: int = 2
    max_products: int | None = None


@dataclass(frozen=True)
class Certificate:
    """Outcome of a freeness check: verdict, cited criterion, conditions."""

    verdict: str
    theorem: str
    conditions: tuple[Condition, ...]

    def __post_init__(self) -> None:
        if self.verdict == CERTIFIED and not all(c.ok for c in self.conditions):
            raise ValueError("certified verdict requires every condition to pass")

    def render(self) -> str:
        return conditions_text(f"verdict: {self.verdict}  ({self.theorem})", self.conditions)

    def doc(self) -> dict:
        return {"verdict": self.verdict, "theorem": self.theorem,
                "conditions": conditions_doc(self.conditions), "bounds": None}


@dataclass(frozen=True)
class OracleReport:
    """Result of a bounded enumeration: pass, fail with witness, or budget out.
    The witness is spelled in `alphabet`, that of the enumeration's system."""

    verdict: str
    checked: int
    witness: Word | None = None
    witness_factors: tuple[str, ...] | None = None
    note: str | None = None
    alphabet: Alphabet | None = None

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


def in_base_subgroup(w: Word, system: RuleSystem) -> bool:
    """Membership in the pure-base subgroup: the normal form uses base letters only."""
    return all(is_base(c) for c in nf(w, system))


def support_check(
    spec: SubgroupSpec,
    disjoint_with: Sequence[SubgroupSpec] = (),
    strict: bool = True,
    alphabet: Alphabet | None = None,
) -> list[Condition]:
    """Support conditions for one spec against the others.

    Checks non-emptiness, pairwise disjointness, and in strict mode that
    every generator word stays inside base letters plus the support.
    Witnesses spell generators in `alphabet` (default names without one).
    """
    name = gen_name if alphabet is None else alphabet.name
    conds = [Condition(f"support_nonempty[{spec.label}]", bool(spec.support))]
    for other in disjoint_with:
        overlap = spec.support & other.support
        witness = ", ".join(sorted(name(g) for g in overlap)) or None
        conds.append(Condition(f"support_disjoint[{spec.label},{other.label}]", not overlap, witness))
    if strict:
        bad: list[str] = []
        for w in spec.generators:
            for c in w:
                if not is_base(c) and abs(c) not in spec.support:
                    bad.append(f"{name(abs(c))} in {format_word(w, alphabet)}")
                    break
        conds.append(Condition(f"support_contains_generators[{spec.label}]", not bad,
                               "; ".join(bad) or None))
    else:
        conds.append(Condition(f"support_containment_declared[{spec.label}]", True,
                               "lax mode: containment accepted as declared"))
    return conds


def descends_to_identity(m: GeneratorMap, p: HnnPresentation) -> bool:
    """Whether m projects to the identity on both coordinates of F(X) x F(Y).

    Defined only when every association has w = v, so that adding the
    relations [x_i, y_j] = 1 gives the direct-product quotient.
    """
    for x in p.stable_gens:
        for a in p.associations(x):
            if a.w != a.v:
                raise ValueError(
                    "direct-product projection undefined: association "
                    f"({gen_name(a.y)}) of {gen_name(x)} has two distinct conjugators"
                )
    for g in p.base_gens + p.stable_gens:
        one = (g,)
        img = m.apply(one)
        if project_stable(img) != project_stable(one):
            return False
        if project_base(img) != project_base(one):
            return False
    return True


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
    px = project_stable(w)
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
    verdict = CERTIFIED if px else REFUTED if pure_base else INCONCLUSIVE
    return Certificate(verdict, "orbit-intersection", conds)


def orbit_evidence(
    spec: SubgroupSpec,
    w: Word,
    p: HnnPresentation,
    m: GeneratorMap,
    m_inv: GeneratorMap,
) -> Certificate:
    """The orbit certificate of w as evidence for spec.

    It speaks of A = <m^k(w)>, so it counts only when every generator of
    spec, freely reduced, is m^k(w)^{+-1} for some |k| <= 3 (the range
    criterion 09 probes; m_inv inverts m).  Otherwise it is inconclusive
    and names the first generator not covered, spelled in p's alphabet.
    """
    cert = orbit_intersection_certificate(m, w, p)
    r = free_reduce(w)
    orbit, fwd, bwd = {r}, r, r
    for _ in range(3):
        fwd, bwd = m.apply(fwd), m_inv.apply(bwd)
        orbit |= {fwd, bwd}
    orbit |= {invert(u) for u in orbit}
    missing = [g for g in spec.generators if free_reduce(g) not in orbit]
    if not missing:
        return cert
    why = f"{format_word(missing[0], p.alphabet)} not in the orbit of {format_word(w, p.alphabet)}"
    covers = Condition(f"orbit_covers_generators[{spec.label}]", False, why)
    return Certificate(INCONCLUSIVE, cert.theorem, (covers,) + cert.conditions)


def _projection_certifies(spec: SubgroupSpec, p: HnnPresentation) -> bool:
    """Whether A = <spec> meets the base trivially because every association
    has w = v, making pi: x -> (x, 1), y -> (1, y) a homomorphism to F(X) x
    F(Y), and every generator, with no t, maps to (a, b)^{+-1} for one a != 1:
    then h in A and in the base has pi(h) = (a, b)^k = (1, h), so h = 1."""
    if any(a.w != a.v for x in p.stable_gens for a in p.associations(x)) or any(
            OUTER in map(abs, free_reduce(g)) for g in spec.generators):
        return False
    pairs = ((project_stable(g), project_base(g)) for g in spec.generators)
    images = {min((a, b), (invert(a), invert(b))) for a, b in pairs}
    return len(images) <= 1 and all(a for a, _ in images)


Evidence = Certificate | OracleReport | str


def free_product_certificate(
    specs: Sequence[SubgroupSpec],
    evidence: Mapping[str, Evidence],
    system: RuleSystem,
    strict: bool = True,
) -> Certificate:
    """Certify that the given subgroups generate their free product.

    Supports must be pairwise disjoint and non-empty; each spec needs
    base-intersection evidence.  A certified orbit certificate for which
    _projection_certifies holds, or a declared external proof, is
    proof-grade; any other certificate and a bounded probe pass
    leave the verdict inconclusive.  Only failed support conditions and a
    probe witness refute.  Witnesses are spelled in the alphabet of the
    system's presentation.
    """
    p = system.presentation
    conds: list[Condition] = []
    hard_fail = False
    for i, spec in enumerate(specs):
        for c in support_check(spec, specs[i + 1 :], strict=strict, alphabet=p.alphabet):
            conds.append(c)
            hard_fail |= not c.ok
    for spec in specs:
        name = f"base_intersection_trivial[{spec.label}]"
        ev = evidence.get(spec.label)
        if ev is None:
            conds.append(Condition(name, False, "no evidence supplied"))
        elif isinstance(ev, Certificate) and ev.theorem != "orbit-intersection":
            conds.append(Condition(name, False, f"{ev.theorem} certificate: not base-intersection evidence"))
        elif isinstance(ev, Certificate):
            ok = ev.verdict == CERTIFIED
            why = next((f" ({c.witness})" for c in ev.conditions if not c.ok), "")
            if ok and not _projection_certifies(spec, p):
                ok, why = False, f" (no direct-product projection shows that {spec.label} meets the base trivially)"
            conds.append(Condition(name, ok, f"orbit certificate: {ev.verdict}{why}"))
        elif isinstance(ev, OracleReport):
            # Bounded evidence never certifies, but a failed probe refutes.
            if ev.verdict == FAIL:
                witness = format_word(ev.witness, p.alphabet) if ev.witness is not None else None
                conds.append(Condition(name, False, f"probe found witness {witness}"))
                hard_fail = True
            else:
                conds.append(Condition(name, False, f"bounded probe only: {ev.verdict}"))
        else:
            conds.append(Condition(name, True, f"declared: {ev}"))
    verdict = REFUTED if hard_fail else CERTIFIED if all(c.ok for c in conds) else INCONCLUSIVE
    return Certificate(verdict, "free-product-pingpong", tuple(conds))


Runs = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def _run_count(n_gens: int, exp_range: int, uses: int, after_run: bool) -> int:
    """Run sequences ((gen index, signed exponent), ...) spending exactly
    `uses`, with 1 <= |exponent| <= exp_range and adjacent indices distinct;
    after_run forbids one index for the first run."""
    if uses == 0:
        return 1
    first = n_gens - 1 if after_run else n_gens
    return first * sum(
        2 * _run_count(n_gens, exp_range, uses - mag, True)
        for mag in range(1, min(uses, exp_range) + 1)
    )


def _push(stack: list[int], letters: Sequence[int]) -> list[int]:
    """A copy of the reduced word `stack`, extended by `letters` and freely reduced."""
    out = stack.copy()
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return out


def _factor_desc(spec: SubgroupSpec, runs: Runs, alphabet: Alphabet) -> str:
    chunks = []
    for idx, e in runs:
        base = format_word(spec.generators[idx], alphabet)
        chunks.append(f"({base})^{e}" if e != 1 else f"({base})")
    return f"{spec.label}: {' '.join(chunks)}"


def _walk(
    specs: Sequence[SubgroupSpec],
    bounds: Bounds,
    screen: Callable[[int], bool],
    hit: Callable[[list[int]], bool],
    alphabet: Alphabet,
) -> OracleReport:
    """Depth-first walk over the alternating products of the specs.

    A product a_1 ... a_r has r <= bounds.syllables factors, adjacent ones
    from different specs.  A factor is a sequence of runs g^e over its
    spec's generators, adjacent runs on different generators, with
    1 <= |e| and total uses sum |e| <= exp_range.  Order: syllable count,
    then spec sequence, then each factor by total uses and then by its runs
    (generator index, |e|, positive first), so the first witness is minimal.

    A prefix carries its freely reduced word and its exponent sums on the
    generators of its letters for which `screen` holds.  Once a
    sum can no longer return to zero within the uses left, the whole
    subtree is counted as checked without being visited; a product whose
    sums vanish goes to `hit`, and the first hit fails the report, which
    spells its witness and factors in `alphabet`.
    """
    e_max, limit = bounds.exp_range, bounds.max_products
    gen_words = [s.generators for s in specs]
    coords = sorted({abs(c) for gens in gen_words for g in gens for c in g if screen(abs(c))})
    steps = [[[g.count(c) - g.count(-c) for c in coords] for g in gens] for gens in gen_words]
    reach = [[max((abs(st[k]) for st in sts), default=0) for k in range(len(coords))] for sts in steps]
    powers = [
        [
            {e: _push([], (g if e > 0 else invert(g)) * abs(e))
             for mag in range(1, e_max + 1) for e in (mag, -mag)}
            for g in gens
        ]
        for gens in gen_words
    ]
    sizes = [sum(_run_count(len(gens), e_max, u, False) for u in range(1, e_max + 1)) for gens in gen_words]
    checked = 0

    def count(amount: int) -> None:
        nonlocal checked
        if limit is not None and checked + amount > limit:
            raise _Budget
        checked += amount

    # factor() picks the factor of slot pos, runs() extends it run by run;
    # seq, tail_reach and tail_size belong to the spec sequence being walked
    def factor(pos: int, w: list[int], sums: list[int], done: tuple):
        if pos == len(seq):
            count(1)
            return (w, done) if hit(w) else None
        for total in range(1, e_max + 1):
            found = runs(pos, w, sums, done, (), -1, total)
            if found:
                return found
        return None

    def runs(pos: int, w: list[int], sums: list[int], done: tuple, made: Runs, last: int, left: int):
        if left == 0:
            return factor(pos + 1, w, sums, done + ((seq[pos], made),))
        i = seq[pos]
        for idx, (step, pw) in enumerate(zip(steps[i], powers[i])):
            if idx == last:
                continue
            for mag in range(1, min(left, e_max) + 1):
                rest = left - mag
                for e in (mag, -mag):
                    nxt = [s + e * d for s, d in zip(sums, step)]
                    if any(abs(s) > m * rest + t for s, m, t in zip(nxt, reach[i], tail_reach[pos])):
                        count(_run_count(len(steps[i]), e_max, rest, True) * tail_size[pos])
                        continue
                    found = runs(pos, _push(w, pw[e]), nxt, done, made + ((idx, e),), idx, rest)
                    if found:
                        return found
        return None

    try:
        for r in range(1, bounds.syllables + 1):
            for seq in product(range(len(specs)), repeat=r):
                if not all(sizes[i] for i in seq) or any(a == b for a, b in zip(seq, seq[1:])):
                    continue
                # what the slots after each position can still add or count
                tail_reach = [
                    [e_max * sum(reach[i][k] for i in seq[pos + 1 :]) for k in range(len(coords))]
                    for pos in range(r)
                ]
                tail_size = [prod(sizes[i] for i in seq[pos + 1 :]) for pos in range(r)]
                found = factor(0, [], [0] * len(coords), ())
                if found:
                    w, done = found
                    factors = tuple(_factor_desc(specs[i], made, alphabet) for i, made in done)
                    return OracleReport(FAIL, checked, tuple(w), factors, alphabet=alphabet)
    except _Budget:
        return OracleReport(
            INCONCLUSIVE, max(limit, 0), note=f"budget of {limit} products exceeded"
        )
    return OracleReport(PASS, checked)


def free_product_oracle(
    specs: Sequence[SubgroupSpec],
    system: RuleSystem,
    bounds: Bounds,
    is_trivial: Callable[[Word], bool] | None = None,
) -> OracleReport:
    """Exhaustively check that alternating products are nontrivial.

    Enumerates products a_1 ... a_r with r <= bounds.syllables, adjacent
    factors from different specs, each factor a nonempty reduced word in one
    spec's generators within bounds; order is syllable count, then spec
    sequence, then factor choice, so the first witness is minimal.  Exponent
    sums in every letter screen the products; the rest go to is_trivial,
    which defaults to the rewriting normal form and must decide triviality
    in the group the products live in.  The witness is spelled in the
    alphabet of the system's presentation.
    """
    if is_trivial is None:
        is_trivial = lambda w: not nf(w, system)
    # every generator, t included, is an exponent-sum invariant
    return _walk(specs, bounds, lambda g: True, lambda w: not w or is_trivial(tuple(w)),
                 system.presentation.alphabet)


def bounded_intersection_probe(
    spec: SubgroupSpec,
    system: RuleSystem,
    max_len: int,
    max_products: int | None = None,
) -> OracleReport:
    """Check that no short nontrivial element of the subgroup is a pure base word.

    Enumerates reduced words in the declared generators up to max_len uses;
    products that are trivial in the group are skipped, nontrivial ones must
    keep a stable letter in their normal form.  Only the non-base exponent
    sums screen the products.
    """
    def pure_base(w: list[int]) -> bool:
        # a reduced word with no first letter of a non-cancelling rule is normal
        v = w if system.move_starts.isdisjoint(w) else nf_ints(list(w), system)
        return bool(v) and all(is_base(c) for c in v)

    bounds = Bounds(syllables=1, exp_range=max_len, max_products=max_products)
    return _walk([spec], bounds, lambda g: not is_base(g), pure_base, system.presentation.alphabet)

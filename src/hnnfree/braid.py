"""The braid layer p2(n): gn(n) extended by an outer letter t
(presentation.SemidirectExtension), decided by the splitting of that layer.

Every braid-layer verdict comes from one decider, BraidSplitting.is_trivial:
triviality, equality, the freeness certificate, the relation check and the
alternating-product probe.  It tries, in this order:

1. the projection onto F(Y) (words.image): a word whose base letters do
   not freely reduce to 1 is nontrivial, as F(X, t) is the normal factor;
2. the exponent sums of the x_i and of t: the action of every base letter
   keeps them, so a word with a nonzero sum is nontrivial;
3. only a word that passes both is split, cyclically reduced first, and it
   is trivial iff its x-part reduces to 1.  split_nf is the exact two-part
   normal form of the braid layer as a semidirect product of two free
   groups, pushing every base letter left through the stable-letter action;
   its y-part is the projection of step 1.  The x-part can grow
   exponentially in the word; an action step that leaves more than
   X_PART_CAP letters raises words.CapExceeded, which the CLI reports as
   inconclusive.

semidirect_nf, the push, decides nothing.  It moves every t to the right,
each base letter c after t^d becoming z^-d c z^d for the word z that t
conjugates c by, and reduces the remainder with the base rewriting system;
phi_power takes powers by the same closed form, linear in the power.  The
push is computed only where its value is printed (braid-phi --push, and
the route column of braid-verify).  For n >= 3 the conjugation maps do not
respect the base presentation's relations (verify_extension exhibits the
failing relator images), so a nonzero remainder there proves nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from . import words
from .pingpong import (
    Bounds,
    Certificate,
    Condition,
    OracleReport,
    SubgroupSpec,
    Verdict,
    conditions_doc,
    conditions_text,
    descends_to_identity,
    free_product_oracle,
)
from .presentation import HnnPresentation, SemidirectExtension, p2, relators
from .rewrite import RuleSystem, equal, nf
from .words import (
    OUTER,
    Alphabet,
    CapExceeded,
    Word,
    base_gen,
    commutator,
    conjugate,
    cyclic_reduce,
    exp_sum,
    format_word,
    free_reduce,
    image,
    invert,
    is_base,
    reduce_onto,
    stable_gen,
)

T_WORD = (OUTER,)

# Largest x-part, in letters, that one action step of the splitting may
# leave; read at call time.  About ten times the largest x-part that the
# tests, the scripts and perfbench reach (93,106 letters, for a random
# length-40 p2(4) word); one step past it builds at most nine times as many.
X_PART_CAP = 1_000_000


@dataclass(frozen=True)
class SemidirectElement:
    """A pushed word: base-presentation normal form g and outer exponent k."""

    g: Word
    k: int

    @property
    def is_identity(self) -> bool:
        return not self.g and self.k == 0

    def render(self, alphabet: Alphabet) -> str:
        return f"({format_word(self.g, alphabet)}, t^{self.k})"


@lru_cache(maxsize=None)
def _system(p: HnnPresentation) -> RuleSystem:
    return RuleSystem(p)


def _conjugated(ext: SemidirectExtension, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The free reduction of the product of the images t^-k c t^k =
    z^k c z^-k, z = ext.conj[|c|], of the pairs (c, k) in turn.  It raises
    CapExceeded past words.WORD_CAP letters held after an image, or
    before building an image longer than that (the cap read at call time)."""
    cap, out = words.WORD_CAP, []
    for c, k in pairs:
        z, zi = ext.conj_pairs[abs(c)]
        if k < 0:
            z, zi, k = zi, z, -k
        if 2 * k * len(z) >= cap:
            raise CapExceeded("phi power", cap)
        if len(reduce_onto(out, z * k + (c,) + zi * k)) > cap:
            raise CapExceeded("phi power", cap)
    return out


def phi_power(ext: SemidirectExtension, w: Word, k: int) -> Word:
    """phi^k(w) = t^-k w t^k for any integer k: each letter c maps to
    z^k c z^-k, linear in |k|, under _conjugated's cap.  A word that phi
    fixes is its own image under every power and returns at once."""
    if OUTER in w or -OUTER in w:
        raise ValueError("phi_power expects a word without outer letters")
    out = free_reduce(w)
    if not k or ext.phi.apply(out) == out:
        return out
    return tuple(_conjugated(ext, ((c, k) for c in out)))


def semidirect_nf(ext: SemidirectExtension, w: Word) -> SemidirectElement:
    """Push every t of the free reduction of w rightward, then reduce the
    remainder over the base rules.  It decides nothing: an identity result
    means the word is trivial, but for n >= 3 some trivial words leave a
    remainder, and braid_trivial settles every word.  A letter c after t^d
    pushes to t^d c t^-d, so the remainder is _conjugated over the pairs
    (c, -d), under its cap."""
    depth, pairs = 0, []
    for c in free_reduce(w):
        if abs(c) == OUTER:
            depth += 1 if c > 0 else -1
        else:
            pairs.append((c, -depth))
    g = nf(tuple(_conjugated(ext, pairs)), _system(ext.base))
    return SemidirectElement(g, depth)


# ---------------------------------------------------------------------------
# The exact splitting: every word over {y_*} u {x_*, t} decomposes uniquely
# as (pure y-word) . (pure x/t-word).  Base letters act on the x/t free
# group by conjugation; pushing them left is a relation-by-relation
# rewriting whose endpoint is unique, so triviality of both parts decides
# the word problem completely.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitNormalForm:
    y_part: Word
    x_part: Word

    @property
    def is_identity(self) -> bool:
        return not self.y_part and not self.x_part

    def render(self, alphabet: Alphabet) -> str:
        return f"({format_word(self.y_part, alphabet)} | {format_word(self.x_part, alphabet)})"


class BraidSplitting:
    """Per-letter action tables for the splitting of the rank-n braid layer.

    For each base letter y_j^{+-1} the table gives the conjugate y_j^-1 g y_j
    (and y_j g y_j^-1) of every signed x/t letter g as an x/t word.  The
    tables are constants: the tests prove them equal to Artin's closed form
    (conjugation by P = x_j t and Q = t x_j), mutually inverse, and keeping
    the x/t exponent sums of each letter, for n = 2..8.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("splitting requires n >= 2")
        t = OUTER
        self._tables: dict[int, dict[int, Word]] = {}
        for j in range(1, n):
            xj = stable_gen(j)
            fwd: dict[int, Word] = {}
            bwd: dict[int, Word] = {}
            for i in range(1, n):
                xi = stable_gen(i)
                if i < j:
                    fwd[xi] = bwd[xi] = (xi,)
                elif i == j:
                    fwd[xi] = (xj, t, xj, -t, -xj)
                    bwd[xi] = (-t, xj, t)
                else:
                    fwd[xi] = (xj, t, -xj, -t, xi, t, xj, -t, -xj)
                    bwd[xi] = (-t, -xj, t, xj, xi, -xj, -t, xj, t)
            fwd[t] = (xj, t, -xj)
            bwd[t] = (-t, -xj, t, xj, t)
            for table in (fwd, bwd):
                table.update({-g: invert(img) for g, img in table.items()})
            self._tables[base_gen(j)] = fwd
            self._tables[-base_gen(j)] = bwd

    def act(self, y: int, u: list[int]) -> list[int]:
        """The reduced x/t word y^-1 u y, for a signed base letter y."""
        table = self._tables[y]
        out: list[int] = []
        for c in u:  # inline: reduce_onto per image made p2(4) splits 8-18% slower
            for m in table[c]:
                if out and out[-1] == -m:
                    out.pop()
                else:
                    out.append(m)
        return out

    def nf(self, w: Word) -> SplitNormalForm:
        """(q | u): q = pi_Y(w), u the x/t letters with each base letter pushed left."""
        return SplitNormalForm(image(w, False)[1], tuple(self.x_part(w)))

    def x_part(self, w: Word) -> list[int]:
        """The x-part u of nf(w): the reduced x/t word left when each base
        letter of w is pushed left past the x/t letters before it."""
        cap = X_PART_CAP
        u: list[int] = []
        for c in w:
            if c & 1:  # stable/outer, pushed inline: reduce_onto made p2(4) splits 5-24% slower
                if u and u[-1] == -c:
                    u.pop()
                else:
                    u.append(c)
            else:
                u = self.act(c, u)
                if len(u) > cap:
                    raise CapExceeded("splitting x-part", cap)
        return u

    def is_trivial(self, w: Word) -> bool:
        """Triviality in the braid layer: refute by the F(Y) projection and
        the x/t exponent sums, and split the cyclic reduction of a word that
        passes both, since a conjugate of w is trivial iff w is."""
        if image(w, False)[1] or any(exp_sum(w, g) for g in {abs(c) for c in w if c & 1}):
            return False
        return not self.x_part(cyclic_reduce(w))


@lru_cache(maxsize=None)
def _splitting(n: int) -> BraidSplitting:
    return BraidSplitting(n)


def split_nf(ext: SemidirectExtension, w: Word) -> SplitNormalForm:
    """The exact two-part normal form; identity iff the braid word is trivial."""
    return _splitting(ext.rank).nf(w)


def braid_trivial(ext: SemidirectExtension, w: Word) -> bool:
    """Complete triviality test for the braid layer (BraidSplitting.is_trivial)."""
    return _splitting(ext.rank).is_trivial(w)


def braid_equal(ext: SemidirectExtension, u: Word, v: Word) -> bool:
    """Complete equality test for the braid layer via the splitting."""
    return _splitting(ext.rank).is_trivial(invert(v) + u)


class Group:
    """The group a presentation source presents, the engine that decides in
    it and the alphabet that spells its words, the source's own: a
    SemidirectExtension source is the braid layer p2(n) (braid), decided by
    the splitting of rank n; any other source is an HNN presentation,
    decided by rewriting in its own rule system.  It is the one place that
    tells a p2 source from the others.  is_trivial means the same here, in
    RuleSystem and in BraidSplitting: triviality in the group each decides;
    free_product_oracle decides and spells in the Group it is given."""

    def __init__(self, source: HnnPresentation | SemidirectExtension):
        self.source, self.alphabet = source, source.alphabet
        self.braid = source if isinstance(source, SemidirectExtension) else None

    @cached_property
    def system(self) -> RuleSystem:
        """The rule system of an HNN source, built on first use; the braid
        layer has none."""
        return RuleSystem(self.source)

    def parse(self, text: str) -> Word:
        """Parse a word of the source; under p2, A{i}_{j} braid names are
        resolved first."""
        if self.braid:
            text = resolve_braid_names(text, self.braid.rank)
        return self.source.parse(text)

    def is_trivial(self, w: Word) -> bool:
        return braid_trivial(self.braid, w) if self.braid else self.system.is_trivial(w)

    def equal(self, u: Word, v: Word) -> bool:
        return braid_equal(self.braid, u, v) if self.braid else equal(u, v, self.system)


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionReport:
    checks: tuple[Condition, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        head = f"extension checks: {'all pass' if self.ok else 'FAILURES'}"
        return conditions_text(head, self.checks)

    def doc(self) -> dict:
        return {"ok": self.ok, "checks": conditions_doc(self.checks)}


def verify_extension(ext: SemidirectExtension) -> ExtensionReport:
    """Check that the outer conjugation maps define an automorphism of the base.

    (a) every base relator's image normalizes to the identity, (b) the two
    maps are mutually inverse on generators, (c) both project to the identity
    on the stable-by-base direct product.  For the braid presets (a) fails
    from n = 3 on; the report carries the witnessing relator images.
    """
    system = _system(ext.base)
    alphabet = ext.base.alphabet
    checks: list[Condition] = []
    for idx, r in enumerate(relators(ext.base)):
        img = ext.phi.apply(r)
        v = nf(img, system)
        why = None
        if v:
            why = f"image of {format_word(r, alphabet)} has normal form {format_word(v, alphabet)}"
        checks.append(Condition(f"relator_image_trivial[{idx}]", not v, why))
    gens = ext.base.base_gens + ext.base.stable_gens
    mutual = all(
        ext.phi.apply(ext.phi_inv.apply((g,))) == (g,)
        and ext.phi_inv.apply(ext.phi.apply((g,))) == (g,)
        for g in gens
    )
    checks.append(Condition("maps_mutually_inverse", mutual))
    checks.append(Condition("projects_to_identity", descends_to_identity(ext.phi, ext.base)))
    return ExtensionReport(tuple(checks))


@dataclass(frozen=True)
class RelationCheck:
    family: str
    i: int | None
    j: int | None
    relator: Word
    pushed: SemidirectElement
    settled_by: str  # "push" or "split"
    trivial: bool

    def label(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in (("i", self.i), ("j", self.j)) if v)
        return f"{self.family}({params})" if params else self.family


@dataclass(frozen=True)
class BraidRelationReport:
    n: int
    entries: tuple[RelationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(e.trivial for e in self.entries)

    @property
    def all_push(self) -> bool:
        """Whether every relator already pushed to the identity pair."""
        return all(e.settled_by == "push" for e in self.entries)

    def render(self) -> str:
        lines = [f"relation check at n={self.n}: {'all trivial' if self.ok else 'FAILURES'}"]
        alphabet = p2(self.n).alphabet
        for e in self.entries:
            mark = "ok" if e.trivial else "FAIL"
            extra = "" if e.settled_by == "push" else f"  (push remainder {e.pushed.render(alphabet)})"
            lines.append(f"  {mark:4} {e.label():10} via {e.settled_by}{extra}")
        return "\n".join(lines)

    def doc(self) -> dict:
        alphabet = p2(self.n).alphabet
        entries = [
            {"family": e.family, "i": e.i, "j": e.j, "settled_by": e.settled_by,
             "trivial": e.trivial, "push_remainder": format_word(e.pushed.g, alphabet),
             "push_t_exponent": e.pushed.k}
            for e in self.entries
        ]
        return {"ok": self.ok, "all_settled_by_push": self.all_push, "entries": entries}


class BraidVerification:
    """The extension checks and the relation check of one rank; the
    relation check alone sets the verdict."""

    def __init__(self, extension: ExtensionReport, relations: BraidRelationReport):
        self.extension, self.relations = extension, relations

    @property
    def verdict(self) -> Verdict:
        return Verdict.PASS if self.relations.ok else Verdict.FAIL

    def render(self) -> str:
        text = f"{self.extension.render()}\n{self.relations.render()}"
        text += f"\noverall: relations {'all trivial' if self.relations.ok else 'FAIL'}"
        if not self.extension.ok:
            text += " (conjugation maps do not descend to the base quotient; see failures above)"
        return text

    def doc(self) -> dict:
        return {"n": self.relations.n, "extension": self.extension.doc(),
                "relations": self.relations.doc(), "verdict": self.verdict}


def verify_braid_relations(n: int) -> BraidRelationReport:
    """Machine-check the two families of defining relations against each other.

    The exact splitting decides every relator of both the conjugation-action
    form and the rearranged form.  Each is also pushed through semidirect_nf
    for the route column alone: settled_by is "push" where the push reaches
    the identity pair and "split" where only the splitting proves the
    relator trivial, since the push provably misses the mixed-index
    conjugation family for n >= 3.
    """
    ext = p2(n)
    split = _splitting(n)
    x = lambda i: (stable_gen(i),)
    y = lambda j: (base_gen(j),)
    entries: list[RelationCheck] = []

    def check(family: str, i: int | None, j: int | None, rel: Word) -> None:
        pushed = semidirect_nf(ext, rel)
        route = "push" if pushed.is_identity else "split"
        entries.append(RelationCheck(family, i, j, rel, pushed, route, split.is_trivial(rel)))

    for i in range(1, n):
        for j in range(i + 1, n):
            rel = free_reduce(conjugate(x(i), y(j)) + invert(x(i)))
            check("R1", i, j, rel)
            check("R1'", i, j, commutator(x(i), y(j)))
    for i in range(1, n):
        rhs = conjugate(x(i), invert(x(i) + T_WORD))
        check("R2", i, None, free_reduce(conjugate(x(i), y(i)) + invert(rhs)))
        rhs = conjugate(x(i), invert(y(i)))
        check("R2'", i, None, free_reduce(conjugate(x(i), T_WORD) + invert(rhs)))
    for j in range(1, n):
        for i in range(j + 1, n):
            c = commutator(T_WORD, x(j))
            rel = free_reduce(conjugate(x(i), y(j)) + invert(conjugate(x(i), c)))
            check("R3", i, j, rel)
            check("R3'", i, j, commutator(x(i), conjugate(y(j), y(i))))
    for j in range(1, n):
        rhs = conjugate(T_WORD, invert(x(j)))
        check("R4", None, j, free_reduce(conjugate(T_WORD, y(j)) + invert(rhs)))
        rhs = free_reduce(y(j) + commutator(x(j), y(j)))
        check("R4'", None, j, free_reduce(conjugate(y(j), T_WORD) + invert(rhs)))
    return BraidRelationReport(n, tuple(entries))


def braid_freeness_check(
    n: int, words: Sequence[Word], strict: bool = False
) -> Certificate:
    """Freeness certificate for <w_1, ..., w_{n-1}, t> in the rank-n braid layer.

    Condition (1): w_i must carry nonzero exponent sum exactly in x_i, with
    zero t-exponent.  Condition (2): [w_i, t] must be nontrivial, decided by
    BraidSplitting.is_trivial alone; nothing is pushed, so no base rule
    system is compiled.  Strict mode additionally pins each w_i inside the
    letters {y_*} u {x_i}.  Certified when every condition holds; refuted
    only when some [w_i, t] = 1, a relation among the generators, the first
    of which is the witness; any other failed condition is a failed
    hypothesis, so the answer is inconclusive.
    """
    if len(words) != n - 1:
        raise ValueError(f"expected {n - 1} words, got {len(words)}")
    split = _splitting(n)
    alphabet = p2(n).alphabet
    name = alphabet.name
    conds: list[Condition] = []
    witness = None
    for i, w in enumerate(words, start=1):
        xi = stable_gen(i)
        exps = {g: exp_sum(w, g) for g in [*map(stable_gen, range(1, n)), OUTER]}
        ok1 = all((e != 0) == (g == xi) for g, e in exps.items())
        table = ", ".join(f"{name(g)}:{e}" for g, e in exps.items() if e or g == xi)
        conds.append(Condition(f"exponent_pattern[w{i}]", ok1, table))
        nontrivial = not split.is_trivial(c := commutator(w, T_WORD))
        if not nontrivial and witness is None:
            witness = c
        why = f"[{format_word(w, alphabet)}, t] " + ("is nontrivial" if nontrivial else "= 1")
        conds.append(Condition(f"commutator_with_t_nontrivial[w{i}]", nontrivial, why))
        if strict:
            bad = sorted(name(abs(c)) for c in w if not is_base(c) and abs(c) != xi)
            conds.append(Condition(f"letters_within_support[w{i}]", not bad, ", ".join(bad) or None))
    return Certificate("braid-free-rank", tuple(conds), witness)


def free_factor_probe(
    ext: SemidirectExtension, h_generators: Sequence[Word], bounds: Bounds
) -> OracleReport:
    """Bounded check that H and <t> meet only trivially in alternating products.

    The free-product oracle over the specs H and <t> in the braid layer
    (Group(ext)), whose triviality test is the exact splitting: every
    alternating product of nontrivial H-words and nonzero t-powers within
    the bounds must be nontrivial.  H-generators may not contain t.
    """
    for h in h_generators:
        if OUTER in h or -OUTER in h:
            raise ValueError("H generators must not contain the outer letter")
    support = frozenset({OUTER})
    specs = [SubgroupSpec("H", tuple(h_generators), support), SubgroupSpec("T", (T_WORD,), support)]
    rep = free_product_oracle(specs, Group(ext), bounds)
    if not rep.witness_factors:
        return rep
    # a <t> factor is one run, "T: (t)" or "T: (t)^e"; it is spelled t^e
    factors = tuple(
        "t^" + (f.partition("^")[2] or "1") if f.startswith("T: ") else f
        for f in rep.witness_factors
    )
    return replace(rep, witness_factors=factors)


# ---------------------------------------------------------------------------
# Braid generator names: A{i}_{j} with 1 <= i < j <= n+1 resolves to the
# x/y/t alphabet of the rank-n layer.
# ---------------------------------------------------------------------------

# a whole term A{i}_{j} or A{i}_{j}^e of the word grammar, between separators
_AIJ_RE = re.compile(r"(?<![^\s*])A(\d+)_(\d+)((?:\^[+-]?\d+)?)(?![^\s*])")


def resolve_braid_names(text: str, n: int) -> str:
    """Rewrite each A{i}_{j}[^e] term in place into x/y/t names, padded with
    spaces to its own width; every other character stays as typed, so a
    parse error names the column and the term of the text given."""
    def name(m: re.Match) -> str:
        i, j = int(m.group(1)), int(m.group(2))
        if j == n + 1 and 1 <= i < n:
            new = f"x{i}"
        elif j == n + 1 and i == n:
            new = "t"
        elif j == n and 1 <= i < n:
            new = f"y{i}"
        else:
            raise ValueError(f"braid generator {m.group(0)} lies outside the rank-{n} layer")
        return (new + m.group(3)).ljust(len(m.group(0)))

    return _AIJ_RE.sub(name, text)

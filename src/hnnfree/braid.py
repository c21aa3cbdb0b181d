"""The braid layer: extensions of the base presentations by an outer letter t.

Two normal forms live side by side here.  semidirect_nf pushes every t
through the word with the conjugation word maps and reduces the remainder
with the base rewriting system; a trivial result proves the braid trivial,
but for n >= 3 a nonzero remainder proves nothing, because the conjugation
maps do not respect the base presentation's relations (verify_extension
exhibits the failing relator images).  split_nf is the exact two-part
normal form of the braid layer as a semidirect product of two free groups,
pushing every base letter left through the stable-letter action; it is
sound and complete, and acts as the authority whenever the push leaves a
remainder.

Triviality and equality in the braid layer are decided by one function,
BraidSplitting.is_trivial, in this order:

1. the projection onto F(Y): a word whose base letters do not freely
   reduce to 1 is nontrivial, because F(X, t) is the normal factor;
2. the exponent sums of the x_i and of t: the action of every base letter
   keeps them, so a word with a nonzero sum is nontrivial;
3. only a word that passes both is split, and it is trivial iff its x-part
   reduces to 1.  The x-part can grow exponentially in the word; an
   action step that leaves more than X_PART_CAP letters raises
   XPartCapExceeded, which the CLI reports as inconclusive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

from .pingpong import (
    CERTIFIED,
    FAIL,
    PASS,
    REFUTED,
    Bounds,
    Certificate,
    Condition,
    OracleReport,
    SubgroupSpec,
    conditions_doc,
    conditions_text,
    descends_to_identity,
    free_product_oracle,
)
from .presentation import HnnPresentation, SemidirectExtension, p2, relators
from .rewrite import RuleSystem, nf
from .words import (
    OUTER,
    Word,
    base_gen,
    commutator,
    conjugate,
    exp_sum,
    format_word,
    free_reduce,
    gen_name,
    invert,
    is_base,
    project_base,
    stable_gen,
)

T_WORD = (OUTER,)

# Largest x-part, in letters, that one action step of the splitting may
# leave; read at call time.  About ten times the largest x-part that the
# tests, the scripts and perfbench reach (93,106 letters, for a random
# length-40 p2(4) word); one step past it builds at most nine times as many.
X_PART_CAP = 1_000_000


class XPartCapExceeded(RuntimeError):
    """An action step of the splitting left more than X_PART_CAP letters."""

    def __init__(self, cap: int):
        super().__init__(f"splitting x-part cap {cap} exceeded")


@dataclass(frozen=True)
class SemidirectElement:
    """A pushed word: base-presentation normal form g and outer exponent k."""

    g: Word
    k: int

    @property
    def is_identity(self) -> bool:
        return not self.g and self.k == 0

    def render(self, alphabet=None) -> str:
        return f"({format_word(self.g, alphabet)}, t^{self.k})"


@lru_cache(maxsize=None)
def _system(p: HnnPresentation) -> RuleSystem:
    return RuleSystem(p)


def phi_power(ext: SemidirectExtension, w: Word, k: int) -> Word:
    """Apply the outer conjugation map (k > 0) or its inverse (k < 0) |k| times."""
    if OUTER in w or -OUTER in w:
        raise ValueError("phi_power expects a word without outer letters")
    m = ext.phi if k > 0 else ext.phi_inv
    out = free_reduce(w)
    for _ in range(abs(k)):
        out = m.apply(out)
    return out


@lru_cache(maxsize=None)
def _pushed_letter(ext: SemidirectExtension, c: int, k: int) -> Word:
    return phi_power(ext, (c,), k)


def semidirect_nf(ext: SemidirectExtension, w: Word) -> SemidirectElement:
    """Push every t rightward, then reduce the remainder over the base rules.

    Sound: an identity result means the word is trivial in the extension.
    For n >= 3 the converse fails on some trivial words, so a nonzero
    remainder should be settled with braid_trivial.
    """
    k = 0
    parts: list[int] = []
    for c in w:
        if abs(c) == OUTER:
            k += 1 if c > 0 else -1
        else:
            parts.extend(_pushed_letter(ext, c, -k))
    g = nf(free_reduce(parts), _system(ext.base))
    return SemidirectElement(g, k)


def semidirect_equal(ext: SemidirectExtension, u: Word, v: Word) -> bool:
    """Equality of pushed forms; agreement implies equality in the extension."""
    return semidirect_nf(ext, u) == semidirect_nf(ext, v)


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

    def render(self, alphabet=None) -> str:
        return f"({format_word(self.y_part, alphabet)} | {format_word(self.x_part, alphabet)})"


class BraidSplitting:
    """Per-letter action tables for the splitting of the rank-n braid layer.

    For each base letter y_j^{+-1} the table gives the conjugate y_j^-1 g y_j
    (and y_j g y_j^-1) of every signed x/t letter g as an x/t word.  Mutual
    inverseness of the two tables, and that every image keeps the x/t
    exponent sums of its letter, are re-verified at construction.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("splitting requires n >= 2")
        self.n = n
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
        self._check_tables()

    def _check_tables(self) -> None:
        odd = [stable_gen(i) for i in range(1, self.n)] + [OUTER]
        for y, table in self._tables.items():
            for g, img in table.items():
                if self.act(-y, self.act(y, [g])) != [g]:
                    raise AssertionError(
                        f"action tables not mutually inverse at {gen_name(abs(y))}, {gen_name(abs(g))}"
                    )
                if any(exp_sum(img, h) != exp_sum((g,), h) for h in odd):
                    raise AssertionError(
                        f"action table at {gen_name(abs(y))} changes the exponent sums of {gen_name(abs(g))}"
                    )

    def act(self, y: int, u: list[int]) -> list[int]:
        """The reduced x/t word y^-1 u y, for a signed base letter y."""
        table = self._tables[y]
        out: list[int] = []
        for c in u:
            for m in table[c]:
                if out and out[-1] == -m:
                    out.pop()
                else:
                    out.append(m)
        return out

    def nf(self, w: Word) -> SplitNormalForm:
        cap = X_PART_CAP
        q: list[int] = []
        u: list[int] = []
        for c in w:
            if c & 1:  # stable or outer letter
                if u and u[-1] == -c:
                    u.pop()
                else:
                    u.append(c)
            else:
                if q and q[-1] == -c:
                    q.pop()
                else:
                    q.append(c)
                u = self.act(c, u)
                if len(u) > cap:
                    raise XPartCapExceeded(cap)
        return SplitNormalForm(tuple(q), tuple(u))

    def is_trivial(self, w: Word) -> bool:
        """Triviality in the braid layer: refute by the F(Y) projection and
        the x/t exponent sums, and split only a word that passes both."""
        if project_base(w):
            return False
        if any(exp_sum(w, g) for g in {abs(c) for c in w if c & 1}):
            return False
        return self.nf(w).is_identity


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
        for e in self.entries:
            mark = "ok" if e.trivial else "FAIL"
            extra = "" if e.settled_by == "push" else f"  (push remainder {e.pushed.render()})"
            lines.append(f"  {mark:4} {e.label():10} via {e.settled_by}{extra}")
        return "\n".join(lines)

    def doc(self) -> dict:
        entries = [
            {"family": e.family, "i": e.i, "j": e.j, "settled_by": e.settled_by,
             "trivial": e.trivial, "push_remainder": format_word(e.pushed.g),
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
    def verdict(self) -> str:
        return PASS if self.relations.ok else FAIL

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

    Every relator of both the conjugation-action form and the rearranged
    form is pushed through semidirect_nf; relators the push cannot finish
    are settled by the exact splitting.  All of them are trivial in the
    braid layer; which route settles each one is recorded, since the push
    provably misses the mixed-index conjugation family for n >= 3.
    """
    ext = p2(n)
    split = _splitting(n)
    x = lambda i: (stable_gen(i),)
    y = lambda j: (base_gen(j),)
    entries: list[RelationCheck] = []

    def check(family: str, i: int | None, j: int | None, rel: Word) -> None:
        pushed = semidirect_nf(ext, rel)
        if pushed.is_identity:
            entries.append(RelationCheck(family, i, j, rel, pushed, "push", True))
        else:
            entries.append(
                RelationCheck(family, i, j, rel, pushed, "split", split.is_trivial(rel))
            )

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
    the exact splitting.  Strict mode additionally pins each w_i inside the
    letters {y_*} u {x_i}.
    """
    if len(words) != n - 1:
        raise ValueError(f"expected {n - 1} words, got {len(words)}")
    ext = p2(n)
    split = _splitting(n)
    alphabet = ext.alphabet
    conds: list[Condition] = []
    for i, w in enumerate(words, start=1):
        exps = {f"x{j}": exp_sum(w, stable_gen(j)) for j in range(1, n)}
        exps["t"] = exp_sum(w, OUTER)
        ok1 = all((e != 0) == (name == f"x{i}") for name, e in exps.items())
        table = ", ".join(f"{name}:{e}" for name, e in exps.items() if e or name == f"x{i}")
        conds.append(Condition(f"exponent_pattern[w{i}]", ok1, table))
        comm = commutator(w, T_WORD)
        nontrivial = not split.is_trivial(comm)
        pushed = semidirect_nf(ext, comm)
        witness = f"[{format_word(w, alphabet)}, t] "
        witness += "is nontrivial" if nontrivial else "= 1"
        witness += f"; push remainder {pushed.render(alphabet)}"
        conds.append(Condition(f"commutator_with_t_nontrivial[w{i}]", nontrivial, witness))
        if strict:
            bad = sorted(gen_name(abs(c)) for c in w if not is_base(c) and abs(c) != stable_gen(i))
            conds.append(Condition(f"letters_within_support[w{i}]", not bad, ", ".join(bad) or None))
    verdict = CERTIFIED if all(c.ok for c in conds) else REFUTED
    return Certificate(verdict, "braid-free-rank", tuple(conds))


def free_factor_probe(
    ext: SemidirectExtension, h_generators: Sequence[Word], bounds: Bounds
) -> OracleReport:
    """Bounded check that H and <t> meet only trivially in alternating products.

    The free-product oracle over the specs H and <t>, with the exact
    splitting as the triviality test: every alternating product of
    nontrivial H-words and nonzero t-powers within the bounds must be
    nontrivial.  H-generators may not contain t.
    """
    for h in h_generators:
        if OUTER in h or -OUTER in h:
            raise ValueError("H generators must not contain the outer letter")
    support = frozenset({OUTER})
    specs = [SubgroupSpec("H", tuple(h_generators), support), SubgroupSpec("T", (T_WORD,), support)]
    rep = free_product_oracle(specs, _system(ext.base), bounds, _splitting(ext.rank).is_trivial)
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

_AIJ_RE = re.compile(r"^A(\d+)_(\d+)$")


def resolve_braid_names(text: str, n: int) -> str:
    """Rewrite A{i}_{j} tokens into x/y/t names; other tokens pass through."""
    out: list[str] = []
    for token in text.replace("*", " ").split():
        name, sep, exp = token.partition("^")
        m = _AIJ_RE.match(name)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            if j == n + 1 and 1 <= i < n:
                name = f"x{i}"
            elif j == n + 1 and i == n:
                name = "t"
            elif j == n and 1 <= i < n:
                name = f"y{i}"
            else:
                raise ValueError(
                    f"braid generator {token} lies outside the rank-{n} layer"
                )
        out.append(name + sep + exp)
    return " ".join(out)

"""Data model for multiple HNN extensions of a free group by basis-conjugating
embeddings, the compiler to rewrite rules, and the g/p2 family builders.

A presentation consists of base generators Y, stable generators X, and for
each stable letter x a list of associations (y, w, v) encoding the relation
(y^w)^x = y^v with w, v reduced words over Y.  The footnote conditions (first
letter of w and of v differs from y^{+-1}) make every compiled pattern reduced
as written.  Generators and words use the integer code of the words module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .words import (
    EPSILON,
    Alphabet,
    CapExceeded,
    GeneratorMap,
    Word,
    base_gen,
    conjugate,
    default_alphabet,
    free_reduce,
    invert,
    is_base,
    parse_word,
    stable_gen,
)


@dataclass(frozen=True)
class Association:
    """One triple (y, w, v) attached to a stable letter: (y^w)^x = y^v."""

    y: int
    w: Word = EPSILON
    v: Word = EPSILON


@dataclass(frozen=True, eq=False)
class HnnPresentation:
    alphabet: Alphabet
    assoc: dict[int, tuple[Association, ...]] = field(default_factory=dict)

    @property
    def base_gens(self) -> list[int]:
        return [base_gen(i) for i in range(1, len(self.alphabet.base_names) + 1)]

    @property
    def stable_gens(self) -> list[int]:
        return [stable_gen(i) for i in range(1, len(self.alphabet.stable_names) + 1)]

    def associations(self, x: int) -> tuple[Association, ...]:
        return self.assoc.get(x, ())

    def parse(self, text: str) -> Word:
        return parse_word(text, self.alphabet)


def validate(p: HnnPresentation) -> list[str]:
    """All violations of the presentation constraints; empty list means ok.
    Generators are spelled in the presentation's alphabet, and a code
    outside it by its number; an unknown generator's name is quoted, as
    parse_presentation quotes one."""
    out: list[str] = []
    stable = set(p.stable_gens)
    base = set(p.base_gens)
    name = lambda g: p.alphabet.name(g) if g in stable or g in base else f"code {g}"
    unknown = lambda g: repr(p.alphabet.name(g)) if g in stable or g in base else f"code {g}"
    for x, assocs in p.assoc.items():
        if x not in stable:
            out.append(f"unknown stable generator {unknown(x)}")
            continue
        seen: set[int] = set()
        for a in assocs:
            label = f"{name(x)}:{name(a.y)}"
            if a.y not in base:
                out.append(f"{label}: unknown base generator {unknown(a.y)}")
                continue
            if a.y in seen:
                out.append(f"{label}: duplicate base generator for {name(x)}")
            seen.add(a.y)
            for side, cw in (("w", a.w), ("v", a.v)):
                if not all(is_base(c) for c in cw):
                    out.append(f"{label}: conjugator not in F(Y) ({side})")
                elif any(c == -d for c, d in zip(cw, cw[1:])):
                    out.append(f"{label}: unreduced conjugator ({side})")
                elif cw and abs(cw[0]) == a.y:
                    out.append(f"{label}: {side} begins with y^{{+-1}}")
    return out


class RewriteRule(NamedTuple):
    """A literal pattern -> replacement pair of one of the four kinds.

    kind 1: y^e y^-e -> 1          kind 3: x v^-1 y^e -> w^-1 y^e w x v^-1
    kind 2: x^e x^-e -> 1          kind 4: x^-1 w^-1 y^e -> v^-1 y^e v x^-1 w^-1
    """

    kind: int
    rule_id: int
    lhs: Word
    rhs: Word


def compile_rules(p: HnnPresentation) -> list[RewriteRule]:
    """Compile to the four rule families; count = 2|Y| + 2|X| + 4*sum(m_i).

    Deterministic order: kind-1 per base generator and sign, kind-2 per
    stable generator and sign, then kind-3 and kind-4 per (stable,
    association, sign), association lists in presentation order.
    """
    bad = validate(p)
    if bad:
        raise ValueError("invalid presentation: " + "; ".join(bad))
    rules: list[RewriteRule] = []

    def add(kind, lhs, rhs):
        rules.append(RewriteRule(kind, len(rules), lhs, rhs))

    for g in p.base_gens:
        for s in (1, -1):
            add(1, (s * g, -s * g), EPSILON)
    for g in p.stable_gens:
        for s in (1, -1):
            add(2, (s * g, -s * g), EPSILON)
    for x in p.stable_gens:
        for a in p.associations(x):
            for s in (1, -1):
                y = (s * a.y,)
                add(3, (x,) + invert(a.v) + y, invert(a.w) + y + a.w + (x,) + invert(a.v))
    for x in p.stable_gens:
        for a in p.associations(x):
            for s in (1, -1):
                y = (s * a.y,)
                add(4, (-x,) + invert(a.w) + y, invert(a.v) + y + a.v + (-x,) + invert(a.w))
    return rules


# the largest gn/p2 rank; a larger one would be built in full
RANK_CAP = 32


@lru_cache(maxsize=None)
def gn(n: int) -> HnnPresentation:
    """The group with [x_i, y_j] = 1 for i < j and [x_i, y_j^{y_i}] = 1 for i > j.

    Base y_1..y_{n-1}, stable x_1..x_{n-1}; for x_i the associations are
    (y_j, 1, 1) for j > i and (y_j, y_i, y_i) for j < i, ordered by j.
    All conjugators satisfy w = v, so the projection to F(X) x F(Y) exists.
    Memoized, so caches keyed by presentations stay bounded by the ranks;
    a rank above RANK_CAP raises CapExceeded before anything is built.
    """
    if n < 2:
        raise ValueError("gn requires n >= 2")
    if n > RANK_CAP:
        raise CapExceeded("preset rank", RANK_CAP)
    alphabet = default_alphabet(n - 1, n - 1)
    assoc: dict[int, tuple[Association, ...]] = {}
    for i in range(1, n):
        items = []
        for j in range(1, n):
            if j == i:
                continue
            conj = (base_gen(i),) if j < i else EPSILON
            items.append(Association(base_gen(j), conj, conj))
        assoc[stable_gen(i)] = tuple(items)
    return HnnPresentation(alphabet, assoc)


class SemidirectExtension:
    """The rank-n pure-braid kernel layer F_n x| F_{n-1}: gn(n) extended by an
    outer letter t that conjugates both x_i and y_i by z_i = y_i x_i, so
    t^-1 g t = z_g g z_g^-1, phi(x_i) = x_i^{y_i^-1} and phi(y_i) = y_i [x_i, y_i].

    phi (g -> z_g g z_g^-1) describes t^-1 g t and phi_inv (g -> z_g^-1 g z_g)
    describes t g t^-1.  phi fixes every z_i, so t^-k g t^k = z_g^k g z_g^-k
    for every k: the closed form by which the braid module, where operations
    on extensions live, takes powers.  The braid module decides this group
    with the splitting of the rank-n layer; p2 is the memoized constructor.
    It takes only the rank, so no other extension can be built, and the
    splitting of rank n is always this group's own.
    """

    def __init__(self, n: int):
        self.rank, self.base = n, gn(n)
        zs = [(base_gen(i), stable_gen(i)) for i in range(1, n)]  # z_i = y_i x_i
        self.conj = {g: z for z in zs for g in z}
        self.conj_pairs = {g: (z, invert(z)) for g, z in self.conj.items()}  # (z_g, z_g^-1)
        a = self.base.alphabet
        self.alphabet = Alphabet(a.base_names, a.stable_names, "t")
        self.phi = GeneratorMap({g: conjugate((g,), invert(z)) for g, z in self.conj.items()})
        self.phi_inv = GeneratorMap({g: conjugate((g,), z) for g, z in self.conj.items()})

    def parse(self, text: str) -> Word:
        return parse_word(text, self.alphabet)


@lru_cache(maxsize=None)
def p2(n: int) -> SemidirectExtension:
    """The rank-n braid layer SemidirectExtension(n), memoized like gn, so
    p2(n) is p2(n); gn raises on a rank above RANK_CAP before any conjugator
    is built.
    """
    if n < 2:
        raise ValueError("p2 requires n >= 2")
    return SemidirectExtension(n)


# ---------------------------------------------------------------------------
# Presentation file format (line-oriented, # comments):
#   base y1 y2 ...
#   stable x1 x2 ...
#   rel <stable> : <y> ^ <w-word> = <y> ^ <v-word>
# The gN and p2 presets have no directive: the CLI names them with --preset.
# ---------------------------------------------------------------------------


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_rel_side(text: str, alphabet: Alphabet, lineno: int) -> tuple[int, Word]:
    toks = text.split()
    if len(toks) < 3 or toks[1] != "^":
        raise PresentationSyntaxError(
            "relation side must read <y> ^ <word>", lineno
        )
    if toks[0] not in alphabet:
        raise PresentationSyntaxError(f"unknown generator {toks[0]!r}", lineno)
    return alphabet.gen(toks[0]), parse_word(" ".join(toks[2:]), alphabet)


def parse_presentation(text: str) -> HnnPresentation:
    """Parse the presentation file format into an HnnPresentation whose
    alphabet is the file's own names.  Every fault names its line: a
    fault of validate, the first rel line it holds for."""
    base_names: list[str] = []
    stable_names: list[str] = []
    rel_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        ws = line.split()
        if ws[0] in ("base", "stable"):
            for name in ws[1:]:
                if name in base_names or name in stable_names:
                    raise PresentationSyntaxError(f"duplicate generator name {name!r}", lineno)
                (base_names if ws[0] == "base" else stable_names).append(name)
        elif ws[0] == "rel":
            rel_lines.append((lineno, line[3:].strip()))
        else:
            raise PresentationSyntaxError(f"unknown directive {ws[0]!r}", lineno)
    if not base_names or not stable_names:
        raise PresentationSyntaxError("missing base or stable declaration", 1)
    alphabet = Alphabet(tuple(base_names), tuple(stable_names))
    assoc: dict[int, list[Association]] = {}
    for lineno, body in rel_lines:
        head, _, rhs = body.partition("=")
        name, _, lhs = head.partition(":")
        name = name.strip()
        if not rhs or not lhs:
            raise PresentationSyntaxError(
                "relation must read rel <stable> : <y> ^ <w> = <y> ^ <v>", lineno
            )
        if name not in alphabet:
            raise PresentationSyntaxError(f"unknown stable generator {name!r}", lineno)
        x = alphabet.gen(name)
        y1, w = _parse_rel_side(lhs.strip(), alphabet, lineno)
        y2, v = _parse_rel_side(rhs.strip(), alphabet, lineno)
        if y1 != y2:
            raise PresentationSyntaxError(
                "both sides of a relation must conjugate the same base generator",
                lineno,
            )
        assoc.setdefault(x, []).append(Association(y1, w, v))
        # validate's faults of x depend only on x's associations
        bad = validate(HnnPresentation(alphabet, {x: tuple(assoc[x])}))
        if bad:
            raise PresentationSyntaxError("; ".join(bad), lineno)
    return HnnPresentation(alphabet, {x: tuple(v) for x, v in assoc.items()})


def relators(p: HnnPresentation) -> list[Word]:
    """The defining relators (x^-1 w^-1 y w x) (v^-1 y^-1 v), one per
    association and generator, freely reduced."""
    out: list[Word] = []
    for x in p.stable_gens:
        for a in p.associations(x):
            out.append(free_reduce((-x,) + conjugate((a.y,), a.w) + (x,) + conjugate((-a.y,), a.v)))
    return out

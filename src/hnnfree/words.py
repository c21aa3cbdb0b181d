"""Free-monoid and free-group word algebra over a split alphabet.

There are three classes of letters: base letters (written ``y1, y2, ...`` by
default), stable letters (``x1, x2, ...``) and an optional outer letter
(``t``).  A word is a plain tuple of signed ints, one per letter, in one code
that needs no alphabet and carries the letter's class:

    y_i -> 2i,   x_i -> 2i + 1,   t -> 1,   inverse letter -> negation.

So a letter is a base letter iff its code is even, and ``abs(c)`` is its
generator.  ``reduced`` is a checkable property, not a hidden normalization,
because the rewriting engine operates on the free monoid and must be able to
represent unreduced intermediates; ``u + v`` is the literal (monoid)
product.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

Word = tuple[int, ...]

OUTER = 1
EPSILON: Word = ()

# letters a parsed word may expand to; read at call time, so tests can lower it
WORD_CAP = 1_000_000


class Inconclusive(RuntimeError):
    """A question the program cannot decide: a precondition of every decider
    failed, or (CapExceeded) a computation ran past a cap."""


class CapExceeded(Inconclusive):
    """A computation ran past a cap, so its answer is inconclusive; what
    names the cap, which words the message as `{what} cap {cap} exceeded`.
    The one exception of every cap but PRODUCT_CAP, which raises nothing
    (Bounds); no class subclasses it."""

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} cap {cap} exceeded")


# the largest exp_range an oracle walks; read at call time, so tests can lower it
EXP_RANGE_CAP = 1_000


# the most products an oracle walk checks when no smaller budget is given;
# read at call time.  Above the largest unbudgeted count in the tests, the
# scripts and perfbench (5,631,276 products, for criterion 09)
PRODUCT_CAP = 10_000_000


def base_gen(i: int) -> int:
    return 2 * i


def stable_gen(i: int) -> int:
    return 2 * i + 1


def is_base(c: int) -> bool:
    """Whether a letter (of either sign) is a base letter."""
    return not c & 1


def invert(w: Word) -> Word:
    """Reversed, sign-flipped word; w + invert(w) reduces to 1."""
    return tuple(-c for c in reversed(w))


def reduce_onto(out: list[int], letters: Iterable[int]) -> list[int]:
    """Extend the freely reduced list out by letters, in place, keeping it
    freely reduced; returns out.  The package's free-reduction loop."""
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return out


def join_reduced(u: Word, v: Word) -> Word:
    """The freely reduced word of u v, for freely reduced u and v: only the
    letters that meet at the seam can cancel, so they are cut and the rest
    is joined."""
    k, most = 0, min(len(u), len(v))
    while k < most and u[-1 - k] == -v[k]:
        k += 1
    return u[: len(u) - k] + v[k:] if k else u + v


def free_reduce(w: Iterable[int]) -> Word:
    """The unique reduced word freely equal to w (classical cancellation)."""
    return tuple(reduce_onto([], w))


def cyclic_reduce(w: Iterable[int]) -> Word:
    """free_reduce(w) with matching inverse letters stripped from both ends:
    a cyclically reduced conjugate of w."""
    u = free_reduce(w)
    i = 0
    while 2 * i + 1 < len(u) and u[i] == -u[-1 - i]:
        i += 1
    return u[i : len(u) - i]


def conjugate(a: Word, b: Word) -> Word:
    """a^b := b^-1 a b, freely reduced."""
    return free_reduce(invert(b) + a + b)


def commutator(a: Word, b: Word) -> Word:
    """[a, b] := a b a^-1 b^-1, freely reduced.

    With this convention and a^b = b^-1 a b one has the free identity
    [b, a] * (a b) = b a, exercised by the test suite.
    """
    return free_reduce(a + b + invert(a) + invert(b))


def exp_sum(w: Word, g: int) -> int:
    """Signed count of occurrences of g in w.

    Invariant under free reduction, and under every relation of the
    presentations built here (all relators have zero exponent sum in every
    generator), hence well-defined on group elements.
    """
    return w.count(g) - w.count(-g)


def exp_sums(w: Word) -> dict[int, int]:
    """The nonzero exponent sums of w, by generator: exp_sum of every
    generator that occurs in w, whichever its sign."""
    counts = Counter(w)
    return {g: s for g in {abs(c) for c in counts} if (s := counts[g] - counts[-g])}


# the parts of image(w), in its order
IMAGE_PARTS = ("F(X)", "F(Y)", "sums")


def image(w: Word, sums: bool = True) -> tuple:
    """The parts of w's image, as IMAGE_PARTS names them: pi_X(w) and
    pi_Y(w), its stable/outer and its base letters freely reduced, from one
    pass over two stacks, and its exponent sums (exp_sums) if sums, else
    None.  Each part is a homomorphism from words to a group."""
    stacks: tuple[list[int], list[int]] = ([], [])  # base, stable/outer
    for c in w:  # inline: reduce_onto per letter ran 2.4x slower (50-3200 letters)
        s = stacks[c & 1]
        if s and s[-1] == -c:
            s.pop()
        else:
            s.append(c)
    return tuple(stacks[1]), tuple(stacks[0]), exp_sums(w) if sums else None


@dataclass(frozen=True)
class GeneratorMap:
    """A map from generators to words, applied by substitution; every
    generator a word it is applied to holds must have an image."""

    images: dict[int, Word]

    def apply(self, w: Word) -> Word:
        """Substitute images (inverted for inverse letters), then freely reduce."""
        images, parts = self.images, []
        for c in w:
            img = images[abs(c)]
            parts.extend(img if c > 0 else invert(img))
        return free_reduce(parts)


def identity_map(gens: Iterable[int]) -> GeneratorMap:
    return GeneratorMap({g: (g,) for g in gens})


# ---------------------------------------------------------------------------
# Word grammar (shared with the CLI)
#
# word     := "1" | term (sep term)*         sep = whitespace or "*"
# term     := identifier ("^" nonzero-int)?
# identifier matches [A-Za-z][A-Za-z0-9_]*; resolution against an Alphabet.
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"(?P<name>[A-Za-z][A-Za-z0-9_]*)(?:\^(?P<exp>[+-]?\d+))?$")


class WordSyntaxError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


@dataclass(frozen=True)
class Alphabet:
    """A presentation's one name table, binding identifier spellings to
    generator codes: it maps names to codes for parsing, and name spells
    every code in it (gN's table has no t, p2's has)."""

    base_names: tuple[str, ...]
    stable_names: tuple[str, ...]
    outer_name: str | None = None

    def __post_init__(self) -> None:
        by_code = {base_gen(i): n for i, n in enumerate(self.base_names, 1)}
        by_code.update((stable_gen(i), n) for i, n in enumerate(self.stable_names, 1))
        if self.outer_name is not None:
            by_code[OUTER] = self.outer_name
        by_name: dict[str, int] = {}
        for g, n in by_code.items():
            if n in by_name:
                raise ValueError(f"duplicate generator name {n!r}")
            by_name[n] = g
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_by_code", by_code)

    def gen(self, name: str) -> int:
        try:
            return self._by_name[name]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name  # type: ignore[attr-defined]

    def name(self, g: int) -> str:
        """g's name; a code outside the table has none, and raises KeyError."""
        try:
            return self._by_code[g]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"no generator has code {g}") from None


def default_alphabet(n_base: int, n_stable: int) -> Alphabet:
    return Alphabet(
        tuple(f"y{i}" for i in range(1, n_base + 1)),
        tuple(f"x{i}" for i in range(1, n_stable + 1)),
    )


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse the word grammar against an alphabet; errors carry the column,
    and a word of more than WORD_CAP letters raises CapExceeded."""
    stripped = text.strip()
    if stripped == "1":
        return EPSILON
    if not stripped:
        raise WordSyntaxError("empty word (write 1 for the identity)", 1)
    letters: list[int] = []
    # token boundaries: whitespace or '*', both pure separators
    for m in re.finditer(r"[^\s*]+", text):
        tok, col = m.group(0), m.start() + 1
        tm = _TERM_RE.match(tok)
        if tm is None:
            raise WordSyntaxError(f"bad term {tok!r}", col)
        name = tm.group("name")
        if name not in alphabet:
            raise WordSyntaxError(f"unknown generator {name!r}", col)
        g = alphabet.gen(name)
        exp = int(tm.group("exp")) if tm.group("exp") else 1
        if exp == 0:
            raise WordSyntaxError("zero exponent not allowed", col)
        if len(letters) + abs(exp) > WORD_CAP:
            raise CapExceeded("word length", WORD_CAP)
        letters.extend([g if exp > 0 else -g] * abs(exp))
    return tuple(letters)


def format_word(w: Word, alphabet: Alphabet) -> str:
    """Print a word in the grammar, spelled in alphabet; runs of one letter
    collapse to powers."""
    if not w:
        return "1"
    name = alphabet.name
    out: list[str] = []
    i = 0
    while i < len(w):
        c = w[i]
        j = i
        while j < len(w) and w[j] == c:
            j += 1
        exp = j - i if c > 0 else i - j
        out.append(name(abs(c)) if exp == 1 else f"{name(abs(c))}^{exp}")
        i = j
    return " ".join(out)

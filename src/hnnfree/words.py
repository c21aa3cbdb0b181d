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
from dataclasses import dataclass, field
from typing import Iterable

Word = tuple[int, ...]

OUTER = 1
EPSILON: Word = ()


def base_gen(i: int) -> int:
    return 2 * i


def stable_gen(i: int) -> int:
    return 2 * i + 1


def is_base(c: int) -> bool:
    """Whether a letter (of either sign) is a base letter."""
    return not c & 1


def gen_name(g: int) -> str:
    """Default symbol name of a generator: y<i> / x<i> / t."""
    if g == OUTER:
        return "t"
    return f"{'x' if g & 1 else 'y'}{g >> 1}"


def invert(w: Word) -> Word:
    """Reversed, sign-flipped word; w + invert(w) reduces to 1."""
    return tuple(-c for c in reversed(w))


def free_reduce(w: Iterable[int]) -> Word:
    """The unique reduced word freely equal to w (classical cancellation)."""
    stack: list[int] = []
    for c in w:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


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


def project_stable(w: Word) -> Word:
    """pi_X: keep stable and outer letters (the odd codes), then freely reduce."""
    return free_reduce(c for c in w if c & 1)


def project_base(w: Word) -> Word:
    """pi_Y: keep base letters, then freely reduce."""
    return free_reduce(c for c in w if not c & 1)


class MissingImageError(KeyError):
    def __init__(self, gen: int):
        super().__init__(gen_name(gen))
        self.gen = gen

    def __str__(self) -> str:
        return f"generator map has no image for {gen_name(self.gen)}"


@dataclass(frozen=True)
class GeneratorMap:
    """A map from generators to words, applied by substitution.

    Unmapped outer letters default to themselves; unmapped base/stable
    letters raise MissingImageError.
    """

    images: dict[int, Word] = field(default_factory=dict)

    def image(self, g: int) -> Word:
        try:
            return self.images[g]
        except KeyError:
            if g == OUTER:
                return (OUTER,)
            raise MissingImageError(g) from None

    def apply(self, w: Word) -> Word:
        """Substitute images (inverted for inverse letters), then freely reduce."""
        parts: list[int] = []
        for c in w:
            img = self.image(abs(c))
            parts.extend(img if c > 0 else invert(img))
        return free_reduce(parts)

    def then(self, after: "GeneratorMap") -> "GeneratorMap":
        """Composite map: first self, then after (apply = after.apply . self.apply)."""
        return GeneratorMap({g: after.apply(w) for g, w in self.images.items()})


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
    """Name table binding identifier spellings to generator codes."""

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
        """g's name; a code outside the table keeps its default name (gen_name)."""
        return self._by_code.get(g) or gen_name(g)  # type: ignore[attr-defined]


def default_alphabet(n_base: int, n_stable: int, outer: bool = False) -> Alphabet:
    return Alphabet(
        tuple(f"y{i}" for i in range(1, n_base + 1)),
        tuple(f"x{i}" for i in range(1, n_stable + 1)),
        "t" if outer else None,
    )


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse the word grammar against an alphabet; errors carry the column."""
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
        letters.extend([g if exp > 0 else -g] * abs(exp))
    return tuple(letters)


def format_word(w: Word, alphabet: Alphabet | None = None) -> str:
    """Print a word in the grammar; runs of one letter collapse to powers."""
    if not w:
        return "1"
    name = gen_name if alphabet is None else alphabet.name
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

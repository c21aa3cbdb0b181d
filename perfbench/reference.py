"""Answer references for the benchmark, sharing no code with hnnfree.

A word here is a tuple of nonzero ints: code c > 0 is a generator, -c its
inverse.  Codes follow the order of a `Names` table: base names first, then
stable names, then the outer letter.  Everything below is restated from
the mathematical definitions, so the output of the code under test is never
its own reference:

- relators are spelled from the defining relations;
- exponent sums and the projection that deletes base letters are
  invariants of every presentation here, and the projection that deletes
  stable letters is one when every conjugator pair has w = v (the gn
  presets);
- braid words are evaluated through the Artin action of the braid group on
  a free group, exactly on short words and in random 2x2 matrix images of
  the free group for any length;
- oracle product counts are counted with closed recursions.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache

_TERM = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^([+-]?\d+))?$")


class Names:
    """Generator names and their integer codes."""

    def __init__(self, base, stable, outer=None):
        self.base = tuple(base)
        self.stable = tuple(stable)
        self.outer = outer
        self.names = self.base + self.stable + ((outer,) if outer else ())
        self.code = {n: i for i, n in enumerate(self.names, 1)}
        self.n_base = len(self.base)
        self.n_stable = len(self.stable)

    def is_base(self, c: int) -> bool:
        return abs(c) <= self.n_base

    def is_outer(self, c: int) -> bool:
        return self.outer is not None and abs(c) == len(self.names)

    def parse(self, text: str) -> tuple[int, ...]:
        text = text.strip()
        if text == "1":
            return ()
        out: list[int] = []
        for tok in re.split(r"[\s*]+", text):
            m = _TERM.match(tok)
            if m is None or m.group(1) not in self.code:
                raise ValueError(f"reference parser: bad term {tok!r}")
            e = int(m.group(2)) if m.group(2) else 1
            c = self.code[m.group(1)]
            out.extend([c if e > 0 else -c] * abs(e))
        return tuple(out)

    def format(self, w) -> str:
        if not w:
            return "1"
        out = []
        i = 0
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            e = (j - i) * (1 if w[i] > 0 else -1)
            name = self.names[abs(w[i]) - 1]
            out.append(name if e == 1 else f"{name}^{e}")
            i = j
        return " ".join(out)


def gn_names(n: int) -> Names:
    return Names([f"y{i}" for i in range(1, n)], [f"x{i}" for i in range(1, n)])


def p2_names(n: int) -> Names:
    return Names([f"y{i}" for i in range(1, n)], [f"x{i}" for i in range(1, n)], "t")


# ---------------------------------------------------------------------------
# Free-group algebra
# ---------------------------------------------------------------------------


def reduce(w) -> tuple[int, ...]:
    out: list[int] = []
    for c in w:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def inverse(w) -> tuple[int, ...]:
    return tuple(-c for c in reversed(w))


def is_reduced(w) -> bool:
    return all(a != -b for a, b in zip(w, w[1:]))


def exp_sums(w, n_codes: int) -> tuple[int, ...]:
    sums = [0] * (n_codes + 1)
    for c in w:
        sums[abs(c)] += 1 if c > 0 else -1
    return tuple(sums[1:])


def project(w, keep) -> tuple[int, ...]:
    return reduce(c for c in w if keep(c))


def cyclic_conjugates(w) -> set[tuple[int, ...]]:
    return {w[i:] + w[:i] for i in range(len(w))}


# ---------------------------------------------------------------------------
# Relators, spelled from the defining relations
# ---------------------------------------------------------------------------


def relation_relator(x: int, y: int, w, v) -> tuple[int, ...]:
    """(y^w)^x = y^v with a^b = b^-1 a b, as the relator x^-1 w^-1 y w x v^-1 y^-1 v."""
    return reduce((-x,) + inverse(w) + (y,) + tuple(w) + (x,) + inverse(v) + (-y,) + tuple(v))


def gn_relators(n: int) -> list[tuple[int, ...]]:
    """[x_i, y_j] = 1 for i < j and [x_i, y_j^{y_i}] = 1 for i > j."""
    k = n - 1
    out = []
    for i in range(1, n):
        for j in range(1, n):
            if j == i:
                continue
            conj = (i,) if j < i else ()
            out.append(relation_relator(k + i, j, conj, conj))
    return out


def parse_presentation_file(text: str) -> tuple[Names, list[tuple[int, ...]]]:
    """Names and relators of a presentation file (base/stable/rel lines)."""
    base: list[str] = []
    stable: list[str] = []
    rels: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "base":
            base += rest.split()
        elif head == "stable":
            stable += rest.split()
        elif head == "rel":
            rels.append(rest)
        else:
            raise ValueError(f"reference parser: unknown directive {head!r}")
    names = Names(base, stable)
    relators = []
    for body in rels:
        lhs, rhs = body.split("=")
        x, side = lhs.split(":")
        y1, w = side.split("^", 1)
        y2, v = rhs.split("^", 1)
        assert y1.strip() == y2.strip()
        relators.append(
            relation_relator(
                names.code[x.strip()], names.code[y1.strip()], names.parse(w), names.parse(v)
            )
        )
    return names, relators


def phi_images(n: int) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """The outer conjugation t^-1 g t of the braid layer and its inverse:
    phi(x_i) = y_i x_i y_i^-1, phi(y_i) = y_i [x_i, y_i];
    phi^-1(y_i) = x_i^-1 y_i x_i, phi^-1(x_i) = x_i^-1 y_i^-1 x_i y_i x_i."""
    k = n - 1
    out = {}
    for i in range(1, n):
        y, x = i, k + i
        out[x] = ((y, x, -y), (-x, -y, x, y, x))
        out[y] = ((y, x, y, -x, -y), (-x, y, x))
    return out


def phi_power(n: int, w, power: int) -> tuple[int, ...]:
    images = phi_images(n)
    side = 0 if power > 0 else 1
    for _ in range(abs(power)):
        parts: list[int] = []
        for c in w:
            img = images[abs(c)][side]
            parts.extend(img if c > 0 else inverse(img))
        w = reduce(parts)
    return reduce(w)


def braid_relators(n: int) -> list[tuple[int, ...]]:
    """Relators of the rank-n braid layer: the gn(n) relators, which hold in
    the braid group, and t^-1 g t = phi(g) for every base and stable g."""
    t = 2 * (n - 1) + 1
    out = list(gn_relators(n))
    for g, (img, _) in phi_images(n).items():
        out.append(reduce((-t, g, t) + inverse(img)))
    return out


def decorate(rng: random.Random, w, relators, names: Names, count: int) -> tuple[int, ...]:
    """Insert `count` relator conjugates and `count` cancelling pairs at
    random places: the result is equal to w in the group, and unreduced."""
    out = list(w)
    codes = len(names.names)
    for _ in range(count):
        r = rng.choice(relators)
        if rng.random() < 0.5:
            r = inverse(r)
        cut = rng.randrange(len(r))
        r = r[cut:] + r[:cut]
        pos = rng.randrange(len(out) + 1)
        out[pos:pos] = r
        g = rng.randint(1, codes) * rng.choice((1, -1))
        pos = rng.randrange(len(out) + 1)
        out[pos:pos] = (g, -g)
    return tuple(out)


def random_word(rng: random.Random, codes, length: int) -> tuple[int, ...]:
    """A freely reduced word of the given length over the given codes."""
    out: list[int] = []
    while len(out) < length:
        c = rng.choice(codes) * rng.choice((1, -1))
        if out and out[-1] == -c:
            continue
        out.append(c)
    return tuple(out)


# ---------------------------------------------------------------------------
# The Artin action: the braid group on m strands acts faithfully on F_m,
# sigma_k: g_k -> g_k g_{k+1} g_k^-1, g_{k+1} -> g_k.  The rank-n layer's
# letters are pure braids on n+1 strands: x_i = A_{i,n+1}, y_i = A_{i,n},
# t = A_{n,n+1}.
# ---------------------------------------------------------------------------


def _substitute(images, w):
    out: list[int] = []
    for c in w:
        img = images[abs(c)]
        out.extend(img if c > 0 else inverse(img))
    return reduce(out)


def _then(a, b):
    """First a, then b, as images of the free generators."""
    return {g: _substitute(b, a[g]) for g in a}


def _sigma(m: int, k: int, sign: int):
    imgs = {g: (g,) for g in range(1, m + 1)}
    if sign > 0:
        imgs[k], imgs[k + 1] = (k, k + 1, -k), (k,)
    else:
        imgs[k], imgs[k + 1] = (k + 1,), (-(k + 1), k, k + 1)
    return imgs


@lru_cache(maxsize=None)
def artin_letters(n: int) -> dict[int, dict[int, tuple[int, ...]]]:
    """Signed code of each layer letter -> its automorphism of F_{n+1}."""
    m = n + 1
    names = p2_names(n)
    ident = {g: (g,) for g in range(1, m + 1)}

    def a_ij(i, j, sign):
        a = ident
        for k in range(j - 1, i, -1):
            a = _then(a, _sigma(m, k, 1))
        a = _then(_then(a, _sigma(m, i, sign)), _sigma(m, i, sign))
        for k in range(i + 1, j):
            a = _then(a, _sigma(m, k, -1))
        return a

    out = {}
    for c in range(1, len(names.names) + 1):
        if names.is_outer(c):
            i, j = n, n + 1
        elif names.is_base(c):
            i, j = c, n
        else:
            i, j = c - names.n_base, n + 1
        out[c] = a_ij(i, j, 1)
        out[-c] = a_ij(i, j, -1)
    for c in list(out):
        if c > 0:
            assert _then(out[c], out[-c]) == ident, "A_ij inverse construction broken"
    return out


ARTIN_EXACT_MAX = 12


def artin_trivial(n: int, w) -> bool:
    """Exact triviality by the Artin action; only for words of at most
    ARTIN_EXACT_MAX letters, since the images grow exponentially."""
    if len(w) > ARTIN_EXACT_MAX:
        raise ValueError("exact Artin evaluation is reserved for short words")
    autos = artin_letters(n)
    cur = {g: (g,) for g in range(1, n + 2)}
    for c in w:
        cur = _then(cur, autos[c])
    return all(cur[g] == (g,) for g in cur)


_P = (1 << 61) - 1


def _mul(a, b):
    return (
        (a[0] * b[0] + a[1] * b[2]) % _P,
        (a[0] * b[1] + a[1] * b[3]) % _P,
        (a[2] * b[0] + a[3] * b[2]) % _P,
        (a[2] * b[1] + a[3] * b[3]) % _P,
    )


def _inv(a):
    return (a[3], -a[1] % _P, -a[2] % _P, a[0])


class MatrixImage:
    """Random images of F_{n+1} in SL2(F_p), p = 2^61 - 1.

    The Artin automorphism of a braid word is pulled back through these
    images letter by letter from the right, which costs a fixed number of
    matrix products per letter.  A braid that moves some image is
    nontrivial, a certificate; a trivial braid moves none.
    """

    def __init__(self, n: int, seed: int):
        rng = random.Random(seed)
        self.n = n
        self.autos = artin_letters(n)
        self.base = {}
        for g in range(1, n + 2):
            a = rng.randrange(1, _P)
            b, c = rng.randrange(_P), rng.randrange(_P)
            d = (1 + b * c) * pow(a, -1, _P) % _P
            self.base[g] = (a, b, c, d)

    def _eval(self, w, mats):
        out = (1, 0, 0, 1)
        for c in w:
            out = _mul(out, mats[c] if c > 0 else _inv(mats[-c]))
        return out

    def moves(self, w) -> bool:
        mats = self.base
        for c in reversed(w):
            auto = self.autos[c]
            mats = {g: self._eval(auto[g], mats) for g in mats}
        return mats != self.base


class BraidReference:
    """Triviality reference for the rank-n braid layer."""

    def __init__(self, n: int):
        self.n = n
        self.images = [MatrixImage(n, 7919 * n + s) for s in range(2)]
        for r in braid_relators(n):
            if not artin_trivial(n, r) or self.moves(r):
                raise AssertionError(f"reference relator is not trivial: {r}")

    def moves(self, w) -> bool:
        return any(im.moves(w) for im in self.images)

    def certified_nontrivial(self, w) -> bool:
        if any(exp_sums(w, 2 * self.n - 1)):
            return True
        if self.moves(w):
            return True
        return len(w) <= ARTIN_EXACT_MAX and not artin_trivial(self.n, w)


# ---------------------------------------------------------------------------
# Product counts of the bounded oracles, by closed recursion
# ---------------------------------------------------------------------------


def factor_count(n_gens: int, uses: int, exp_range: int) -> int:
    """Nonempty run sequences (gen, exponent): adjacent gens differ,
    1 <= |exponent| <= exp_range, summed |exponent| <= uses."""

    @lru_cache(maxsize=None)
    def f(budget: int, last: int) -> int:
        total = 0
        for g in range(n_gens):
            if g == last:
                continue
            for mag in range(1, min(exp_range, budget) + 1):
                total += 2 * (1 + f(budget - mag, g))
        return total

    return f(uses, -1)


def alternating_products(factors: list[int], syllables: int) -> int:
    """Products of 1..syllables factors, adjacent ones from different specs."""
    total = 0
    ends = list(factors)
    for _ in range(syllables):
        total += sum(ends)
        ends = [sum(e for j, e in enumerate(ends) if j != i) * factors[i] for i in range(len(factors))]
    return total


def free_factor_products(n_h: int, syllables: int, exp_range: int) -> int:
    """Alternating products of H-factors and nonzero t-powers."""
    return alternating_products([factor_count(n_h, exp_range, exp_range), 2 * exp_range], syllables)


def probe_products(n_gens: int, max_len: int) -> int:
    """Run sequences with summed |exponent| from 1 to max_len, any run size."""

    @lru_cache(maxsize=None)
    def leaves(budget: int, last: int) -> int:
        if budget == 0:
            return 1
        return sum(
            2 * leaves(budget - mag, g)
            for g in range(n_gens)
            if g != last
            for mag in range(1, budget + 1)
        )

    return sum(leaves(total, -1) for total in range(1, max_len + 1))

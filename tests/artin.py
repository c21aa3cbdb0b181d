"""Independent test oracle: braid words evaluated in the Artin representation.

The braid group on m strands acts faithfully on the free group F_m: the
elementary braid s_k maps g_k to g_k g_{k+1} g_k^-1 and g_{k+1} to g_k.  A
word in the package's x/y/t letters is translated through x_i = A_{i,n+1},
y_i = A_{i,n}, t = A_{n,n+1} with A_{i,j} built from the s_k.  The word then
acts letter by letter on each free generator in turn, and the images are
compared with the generators.  Faithfulness makes this an
exact triviality oracle, with none of the package's rewriting machinery
involved: reduction here is plain integer-tuple cancellation.

Input words are read in the package's letter code: y_i = 2i, x_i = 2i + 1,
t = 1, an inverse letter negated.
"""

from __future__ import annotations

from functools import lru_cache


def _red(w):
    out = []
    for a in w:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def _inv(w):
    return tuple(-a for a in reversed(w))


class Auto:
    """Automorphism of F_m as images of the generators 1..m."""

    def __init__(self, m: int, images: dict[int, tuple[int, ...]]):
        self.m = m
        self.images = {g: _red(images[g]) for g in range(1, m + 1)}

    def apply(self, w: tuple[int, ...]) -> tuple[int, ...]:
        out: list[int] = []
        for a in w:
            img = self.images[abs(a)]
            out.extend(img if a > 0 else _inv(img))
        return _red(out)

    def then(self, other: "Auto") -> "Auto":
        return Auto(self.m, {g: other.apply(self.images[g]) for g in range(1, self.m + 1)})

    def __eq__(self, other):
        return isinstance(other, Auto) and self.images == other.images


def _identity(m: int) -> Auto:
    return Auto(m, {g: (g,) for g in range(1, m + 1)})


def _sigma(m: int, k: int) -> Auto:
    imgs = {g: (g,) for g in range(1, m + 1)}
    imgs[k] = (k, k + 1, -k)
    imgs[k + 1] = (k,)
    return Auto(m, imgs)


def _sigma_inv(m: int, k: int) -> Auto:
    imgs = {g: (g,) for g in range(1, m + 1)}
    imgs[k] = (k + 1,)
    imgs[k + 1] = (-(k + 1), k, k + 1)
    return Auto(m, imgs)


@lru_cache(maxsize=None)
def _aij_tables(n: int):
    """A_{i,j} and inverses for the braid group on n+1 strands."""
    m = n + 1
    identity = _identity(m)
    a_pos: dict[tuple[int, int], Auto] = {}
    a_neg: dict[tuple[int, int], Auto] = {}
    for i in range(1, m):
        for j in range(i + 1, m + 1):
            a = identity
            for k in range(j - 1, i, -1):
                a = a.then(_sigma(m, k))
            core = a.then(_sigma(m, i)).then(_sigma(m, i))
            anti = a.then(_sigma_inv(m, i)).then(_sigma_inv(m, i))
            for k in range(i + 1, j):
                core = core.then(_sigma_inv(m, k))
                anti = anti.then(_sigma_inv(m, k))
            a_pos[(i, j)] = core
            a_neg[(i, j)] = anti
            assert core.then(anti) == identity, f"A_{i}_{j} inverse construction broken"
    return a_pos, a_neg


@lru_cache(maxsize=None)
def _letter_images(n: int) -> dict[int, dict[int, tuple[int, ...]]]:
    """For each signed layer letter, the images of the signed free generators."""
    a_pos, a_neg = _aij_tables(n)
    out: dict[int, dict[int, tuple[int, ...]]] = {}
    for g in range(1, 2 * n):
        if g == 1:
            key = (n, n + 1)
        elif g % 2:
            key = (g // 2, n + 1)
        else:
            key = (g // 2, n)
        for c, auto in ((g, a_pos[key]), (-g, a_neg[key])):
            imgs = dict(auto.images)
            imgs.update({-h: _inv(img) for h, img in auto.images.items()})
            out[c] = imgs
    return out


def _images(w: tuple[int, ...], n: int):
    """Yield (g, image of g) for the free generators g = 1..n+1 under the
    automorphism of the layer word w, applying w letter by letter to each
    generator on its own, so a caller can stop at the first mismatch."""
    table = _letter_images(n)
    for g in range(1, n + 2):
        img = [g]
        for c in w:
            sub = table[c]
            out: list[int] = []
            for a in img:
                for b in sub[a]:
                    if out and out[-1] == -b:
                        out.pop()
                    else:
                        out.append(b)
            img = out
        yield g, img


def artin_trivial(w: tuple[int, ...], n: int) -> bool:
    return all(img == [g] for g, img in _images(w, n))


def artin_equal(u: tuple[int, ...], v: tuple[int, ...], n: int) -> bool:
    return all(a == b for (_, a), (_, b) in zip(_images(u, n), _images(v, n)))

"""Fuzz the command line over a bounded argv grammar.

main is the one place that turns a failure into a message and an exit
code, so every run must end in an exit code from 0 to 3 (argparse's
SystemExit counts by its code), and every --json document it prints must
parse and carry schema 1.  `pytest --hypothesis-show-statistics` shows the
mix of exit codes.
"""

import contextlib
import io
import json
from functools import lru_cache

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hnnfree.words
from hnnfree.cli import main
from hnnfree.presentation import RANK_CAP

# presentation files by the token that stands for their path: the text,
# then the base and stable names it declares; "@missing" names no file
FILES = {
    "@file": ("base y1 y2 y3\nstable x1 x2\n"
              "rel x1 : y1 ^ y2 y3 = y1 ^ y3 y2\n"
              "rel x2 : y3 ^ y1 y1 = y3 ^ y2^-1 y1\n",
              ("y1", "y2", "y3"), ("x1", "x2")),
    # not confluent: the second association's lhs extends the first's
    "@nested": ("base y1 x1\nstable s\n"
                "rel s : y1 ^ x1^-1 y1^-1 = y1 ^ x1\n"
                "rel s : x1 ^ y1^-1 = x1 ^ y1 x1\n",
                ("y1", "x1"), ("s",)),
    "@own": ("base a b c\nstable p q\nrel p : a ^ b = a ^ c\n", ("a", "b", "c"), ("p", "q")),
    "@bad": ("base y1\nstable x1\nrel x1 : zz ^ y1 = zz ^ y1\n", ("y1",), ("x1",)),
}


def preset(kind: str, n: int):
    return (("--preset", kind, str(n)), tuple(f"y{i}" for i in range(1, n)),
            tuple(f"x{i}" for i in range(1, n)) + ("t",) * (kind == "p2"))


# a source is (its argv, base names, stable and outer names)
P2_SOURCES = st.builds(preset, st.just("p2"), st.integers(2, 4))
GOOD_SOURCES = st.one_of(
    st.builds(preset, st.sampled_from(("gn", "p2")), st.integers(2, 4)),
    st.sampled_from([(("--file", key), base, stable)
                     for key, (_, base, stable) in FILES.items()
                     if key != "@bad"]),
)
BAD_SOURCES = st.sampled_from([
    (("--preset", "gn", "1"), ("y1",), ("x1",)),
    (("--preset", "zz", "3"), ("y1",), ("x1",)),
    (("--preset", "p2", "x"), ("y1",), ("x1",)),
    (("--file", "@bad"), ("y1",), ("x1",)),
    (("--preset", "gn", str(RANK_CAP + 1)), ("y1",), ("x1",)),
    (("--preset", "p2", str(10 ** 12)), ("y1",), ("x1",)),
    (("--file", "@missing"), ("y1",), ("x1",)),
    ((), ("y1",), ("x1",)),
    (("--preset", "gn", "3", "--file", "@file"), ("y1",), ("x1",)),
])


def mostly(common, rare, odds: int = 19):
    """common, but one draw in odds + 1 from rare (one_of would draw each
    distinct strategy equally often)."""
    return st.sampled_from([common] * odds + [rare]).flatmap(lambda strategy: strategy)


# the exp_range and product caps while this module's tests run
EXP_RANGE_CAP = 3
PRODUCT_CAP = 2_000

EXPONENTS = st.sampled_from((1, 1, 1, -1, -1, 2, -2, 3, -3))
# an unknown name, or a braid name A{i}_{j} inside or outside the layer
STRANGE_NAMES = st.one_of(
    st.just("zz"),
    st.builds("A{}_{}".format, st.integers(1, 4), st.integers(2, 5)),
)


def words(names):
    """Words of 1 to 5 terms, or 1; about one name in 20 is strange."""
    name = mostly(st.sampled_from(names), STRANGE_NAMES)
    term = st.builds(lambda n, e: n if e == 1 else f"{n}^{e}", name, EXPONENTS)
    return st.one_of(st.just("1"), st.lists(term, min_size=1, max_size=5).map(" ".join))


def small(low: int, high: int):
    """An integer option in [low, high], rarely one below it."""
    return mostly(st.integers(low, high), st.just(low - 1))


def option(name: str, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def flag(name: str):
    return st.sampled_from(([], [name]))


def repeated(name: str, values, size: int):
    """The option given size times, or rarely one time fewer or more."""
    return mostly(st.just(size), st.sampled_from((size - 1, size + 1))).flatmap(
        lambda n: st.lists(values, min_size=n, max_size=n)).map(
        lambda vs: [a for v in vs for a in (name, v)])


def past_cap(low: int, high: int):
    """An integer option in [low, high], rarely one below it, and one draw
    in five anywhere past the lowered exp_range cap."""
    return mostly(small(low, high), st.integers(EXP_RANGE_CAP + 1, 10 ** 12), 4)


def bounds():
    """Bounds options; a walk with no --max-products, or one past the
    lowered product cap, stops at the cap."""
    budget = mostly(st.integers(0, 300), st.integers(PRODUCT_CAP - 1, 10 ** 12), 4)
    return (option("--syllables", small(1, 6)), option("--exp-range", past_cap(1, EXP_RANGE_CAP)),
            option("--max-products", budget))


def padded(u: str, x: str) -> str:
    """u conjugated by the letter x, as a word that is equal to u."""
    return f"{x} {x}^-1" if u == "1" else f"{x} {u} {x}^-1"


@st.composite
def specs(draw, base, stable, evidence: bool):
    """One to three --spec options, each generator word over the base names
    and the spec's own support, then --evidence options if asked for, an
    orbit word being one of the spec's generators."""
    argv, labels = [], []
    for i in range(draw(st.integers(1, 3))):
        label = draw(mostly(st.just("ABC"[i]), st.just("A")))
        support = draw(st.lists(st.sampled_from(stable), max_size=2, unique=True)
                       if stable else st.just([]))
        support += draw(mostly(st.just([]), st.just([base[0]])))
        gens = draw(st.lists(words(base + tuple(support)), min_size=1, max_size=2))
        argv += ["--spec", f"{label}:{','.join(support)}:{', '.join(gens)}"]
        labels.append((label, gens))
    for label, gens in draw(st.lists(st.sampled_from(labels), max_size=3 * evidence)):
        kind, value = draw(st.sampled_from([
            ("orbit", gens[0]), ("orbit", gens[-1]), ("orbit", gens[0]), ("declared", "ok"),
            ("probe", str(draw(past_cap(1, EXP_RANGE_CAP)))), ("psychic", "yes")]))
        argv += ["--evidence", f"{label}:{kind}:{value}"]
    return argv


# each command's arguments over a source's (base names, stable names), as
# a tuple of strategies of argv pieces
OPTIONS = {
    "nf": lambda base, stable: (
        flag("--trace"), option("--strategy", st.just("random")),
        option("--seed", st.integers(0, 9)), words(base + stable).map(lambda w: [w])),
    # the right word is the left one, the left one conjugated, or another
    "eq": lambda base, stable: (st.builds(
        lambda u, v, x, pick: [[u, u], [u, padded(u, x)], [u, v]][pick],
        words(base + stable), words(base + stable), st.sampled_from(base + stable),
        st.integers(0, 2)),),
    "rules": lambda base, stable: (),
    "confluence": lambda base, stable: (
        flag("--random"), option("--seed", st.integers(0, 9)),
        option("--trials", small(1, 5)), option("--max-len", small(1, 8))),
    "pingpong-certify": lambda base, stable: (specs(base, stable, evidence=True),),
    "pingpong-oracle": lambda base, stable: (specs(base, stable, evidence=False), *bounds()),
    "braid-verify": lambda base, stable: (),
    "braid-phi": lambda base, stable: (
        flag("--push"),
        option("--k", mostly(st.integers(-3, 3), st.integers(-10 ** 12, 10 ** 12), 3)),
        words(base + stable[:-1]).map(lambda w: [w])),
    "braid-check-free": lambda base, stable: (
        repeated("--w", words(base + stable), len(base)), flag("--strict")),
    "danilevich": lambda base, stable: (
        repeated("--h", words(base + stable[:-1]), 1), *bounds()),
}
BRAID_COMMANDS = ("braid-verify", "braid-phi", "braid-check-free", "danilevich")
# the commands of an HNN presentation, which refuse a p2 source
HNN_COMMANDS = ("nf", "rules", "confluence", "pingpong-certify")


@lru_cache(maxsize=None)
def arguments(command, base, stable):
    """The strategy of one command's arguments, maybe --json and rarely an
    option that argparse stops at, built once per source."""
    pieces = st.tuples(*OPTIONS[command](base, stable), flag("--json"),
                       mostly(st.just([]), st.sampled_from((["--bogus"], ["--help"]))))
    return pieces.map(lambda ps: [a for piece in ps for a in piece])


@st.composite
def argvs(draw):
    """A command, a source (for a braid command mostly a p2 one) and the
    command's arguments."""
    command = draw(st.sampled_from(tuple(OPTIONS)))
    sources = P2_SOURCES if command in BRAID_COMMANDS else GOOD_SOURCES
    source, base, stable = draw(mostly(mostly(sources, GOOD_SOURCES, 9), BAD_SOURCES, 9))
    return [command, *source, *draw(arguments(command, base, stable))]


@pytest.fixture(scope="module", autouse=True)
def low_caps():
    """A word cap far above every word the grammar spells, but one that a
    phi power of any --k reaches within a hundred images; an exp_range cap
    that the grammar's larger --exp-range and probe:N values pass; and a
    product cap that keeps every oracle walk short."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hnnfree.words, "WORD_CAP", 10_000)
        mp.setattr(hnnfree.words, "EXP_RANGE_CAP", EXP_RANGE_CAP)
        mp.setattr(hnnfree.words, "PRODUCT_CAP", PRODUCT_CAP)
        yield


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("sources")
    for key, (text, _, _) in FILES.items():
        (root / f"{key[1:]}.txt").write_text(text)
    return {key: str(root / f"{key[1:]}.txt") for key in (*FILES, "@missing")}


@settings(max_examples=300, database=None)
@given(argv=argvs())
def test_every_run_ends_in_an_exit_code(paths, argv):
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse
            code = e.code
        else:
            if "--json" in argv and out.getvalue():
                assert json.loads(out.getvalue())["schema"] == 1
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    if (argv[0] in HNN_COMMANDS and argv[1:3] == ["--preset", "p2"] and argv[3] in ("2", "3", "4")
            and not {"--help", "--bogus"} & set(argv)):
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: this command needs an HNN presentation")

#!/usr/bin/env python3
"""Fingerprint the CLI's output on a fixed corpus of commands.

Runs `hnnfree.cli.main` in-process on a fixed argv list: every subcommand in
text and --json, help, usage and parse errors, presentation files that use
their own generator names, the traced normal forms of x1^100 y2^100 and
of other words with long runs of one letter, and untraced ones.
Prints one sha256 per case, taken over its exit code, stdout and stderr,
and then a total over all cases.  Two trees give equal hashes exactly when
their CLI output agrees on the corpus:

    PYTHONPATH=src python3 scripts/cli_corpus.py
    PYTHONPATH=/path/to/other/src python3 scripts/cli_corpus.py

tests/cli_corpus.txt pins this script's output, and tests/test_scripts.py
compares it in full; after a deliberate change to the CLI's output, write
the new output there.

Files are written to a temporary directory that the run works in, so no
path of this machine reaches the output.  Help text is formatted for 80
columns; its layout also depends on the Python version.
"""

import contextlib
import hashlib
import io
import os
import shlex
import tempfile

from hnnfree.cli import main

# presentation files with one fault each, which names its line
FAULTS = {
    "preset-directive.txt": "preset gn 3\n",
    "no-stable.txt": "base a b\n",
    "bad-relation.txt": "base a b\nstable p\nrel p : a ^ 1\n",
    "bad-side.txt": "base a b\nstable p\nrel p : a = a ^ 1\n",
    "unknown-stable.txt": "base a b\nstable p\nrel zz : a ^ 1 = a ^ 1\n",
    "two-base-generators.txt": "base a b\nstable p\nrel p : a ^ 1 = b ^ 1\n",
    # the faults validate finds, each on the rel line that brings it
    "stable-conjugator.txt": "base a b\nstable p\nrel p : a ^ p = a ^ b\n",
    "unreduced-conjugator.txt": "base a b\nstable p\nrel p : a ^ b b^-1 = a ^ b\n",
    "conjugator-begins-with-y.txt": "base a b\nstable p q\nrel p : a ^ a = a ^ 1\n",
    "duplicate-association.txt":
        "base a b\nstable p\nrel p : a ^ b = a ^ b\nrel p : b ^ 1 = b ^ 1\nrel p : a ^ 1 = a ^ 1\n",
    "base-as-stable.txt": "base a b\nstable p\nrel a : b ^ 1 = b ^ 1\n",
    "stable-as-base.txt": "base y1\nstable x1 x2\nrel x1 : x2 ^ 1 = x2 ^ 1\n",
}

FILES = {
    "handwritten.txt": """\
base y1 y2 y3
stable x1 x2
rel x1 : y1 ^ y2 y3 = y1 ^ y3 y2
rel x1 : y2 ^ y3^-1 y1 = y2 ^ y1 y3
rel x2 : y3 ^ y1 y1 = y3 ^ y2^-1 y1
""",
    "nested.txt": """\
base y1 x1
stable s
rel s : y1 ^ x1^-1 y1^-1 = y1 ^ x1
rel s : x1 ^ y1^-1 = x1 ^ y1 x1
""",
    # the file's own names; w != v, so no direct-product projection
    "own.txt": "base a b c\nstable p q\nrel p : a ^ b = a ^ c\n",
    "own-trivial.txt": "base a b\nstable p q\nrel p : a ^ 1 = a ^ 1\n",
    "bad-line.txt": "base y1\nstable x1\nrel x1 : zz ^ y1 = zz ^ y1\n",
    "duplicate.txt": "base a a\nstable s\n",
    # kind 3 and 4 lhs of 2,002 letters
    "long-conjugator.txt": "base a b\nstable p\nrel p : a ^ b^2000 = a ^ b^2000\n",
    **FAULTS,
}

G3 = "--preset gn 3"
P2_2, P2_3 = "--preset p2 2", "--preset p2 3"
CERTIFY = f"pingpong-certify {G3} --spec A1:x1:x1 --spec 'A2:x2:y1 x2'"

# each case once in text and once with --json
COMMANDS = [
    f"nf {G3} 'x2 y2^-1 y1'",
    f"nf {G3} --trace 'x2 y2^-1 y1'",
    f"nf {G3} --trace 'x1^2 y2^2'",
    f"nf {G3} --trace 'x1 y2^12'",
    f"nf {G3} --trace 'x1^100 y2^100'",
    # batches of swaps on a run of x1 that does not start the word
    f"nf {G3} --trace 'y1^3 x1^12 y2^11 x2 y2^-4'",
    # inside the first batch nu_0 goes from 9 to 10; the last coordinate
    # goes from 10 to 9 in the third
    f"nf {G3} --trace 'y1^9 x1^4 y2^12'",
    "nf --preset gn 4 'x3 y3^-1 x1 y2 x2^-1 y1'",
    "nf --preset gn 6 'x1^200 y2^200'",
    # floor 2: each batch of swaps stops one letter short of the run
    "nf --preset gn 6 --trace 'x1^30 y2^30'",
    "nf --file handwritten.txt 'x1 y1 y2 y3 x1^-1 y2'",
    "nf --file handwritten.txt 'x1^12 y2^-1 y3^-1 y1^12'",
    "nf --file handwritten.txt --trace 'x1^12 y2^-1 y3^-1 y1^12'",
    "eq --file handwritten.txt 'x1^12 y2^-1 y3^-1 y1^12' "
    "'x1^11 y3^-1 y2^-1 y1^12 y2 y3 x1 y2^-1 y3^-1'",
    # unequal words whose images in F(X) x F(Y), or in F(X) and the
    # exponent sums where the rules keep no F(Y), tell them apart: the
    # last pair's y2 and y3 occur only inverted
    "eq --preset gn 4 'x1^40 y2^40 x3 y3^-1' 'y2^40 x1^40 x3 y3^-1 y1'",
    "eq --file handwritten.txt 'x1^12 y2^-1 y3^-1 y1^12' 'x1^12 y3^-1 y2^-1 y1^11'",
    "eq --file handwritten.txt 'x1 y2^-2 y3^-1' 'x1 y2^-1 y3^-2'",
    "nf --file nested.txt 's^12 x1^-1 y1^12'",
    "eq --file nested.txt 's^-12 y1 x1^12' 's^-11 x1^-1 y1^-1 x1^12 y1 x1 s^-1 y1'",
    "nf --file own.txt 'p a b p^-1 c'",
    f"eq {G3} 'x1 y2' 'y2 x1'",
    f"eq {G3} x1 x2",
    # the images agree and the normal forms differ, on confluent rules
    f"eq {G3} 'x1 y1' 'y1 x1'",
    "eq --file nested.txt 'y1 x1' 's x1^-1 y1^-1 x1 y1 x1 s^-1 y1'",
    f"rules {G3}",
    "rules --file own.txt",
    f"confluence {G3}",
    # 7,564 critical pairs, found through the table of lhs by first letter
    "confluence --preset gn 32",
    "confluence --file nested.txt",
    "confluence --file long-conjugator.txt",
    f"confluence {G3} --random --seed 5 --trials 40",
    f"confluence {G3} --random --seed 5 --trials 10 --max-len 6",
    # every sampled word agrees, but 9 of 26 critical pairs do not join
    "confluence --file nested.txt --random --trials 20 --max-len 4 --seed 0",
    f"{CERTIFY} --evidence A1:orbit:x1 --evidence 'A2:orbit:y1 x2'",
    f"pingpong-certify {G3} --spec A1:x1:x1",
    f"pingpong-certify {G3} --spec A1:x1:x1 --evidence A1:probe:4",
    # y2 y1 x2 holds an lhs, so the probe rewrites the products below it
    f"pingpong-certify {G3} --spec 'A:x1,x2:x1 y2 y1, x2' --evidence A:probe:4",
    # the probe reaches the product cap: every prefix holds no lhs, and its
    # subtrees repeat
    f"pingpong-certify {G3} --spec 'A1:x1:x1, y1 x1 y1^-1' --evidence A1:probe:30",
    f"pingpong-certify {G3} --spec A1:x1:x1 --spec A2:x1:x1 "
    "--evidence A1:declared:external --evidence A2:declared:external",
    "pingpong-certify --file own-trivial.txt --spec A:p:p --spec B:p:q",
    # the support holds the free reduction x1 of the generator
    f"pingpong-certify {G3} --spec 'A:x1:x1 x2 x2^-1' --spec B:x2:x2 "
    "--evidence A:orbit:x1 --evidence B:orbit:x2",
    # the orbits of x1 and x2 miss the generator y1 of each spec
    f"pingpong-certify {G3} --spec A:x1:y1 --spec B:x2:y1 "
    "--evidence A:orbit:x1 --evidence B:orbit:x2",
    f"pingpong-oracle {G3} --spec A1:x1:x1 --spec 'A2:x2:y1 x2' --syllables 4",
    f"pingpong-oracle {G3} --spec A1:x1:x1 --spec B1:x1:x1 --syllables 4",
    f"pingpong-oracle {G3} --spec A1:x1:x1 --spec 'A2:x2:y1 x2' --max-products 5",
    "pingpong-oracle --file own-trivial.txt --spec 'A:p:p b' --spec 'B:q:b^-1 p^-1' "
    "--syllables 3",
    # both generators add 1 to the x1 sum, so a factor of odd uses cannot
    # bring it back to zero; a single T slot cannot bring back the t sum
    f"pingpong-oracle {G3} --spec 'A:x1:x1, y1 x1 y1^-1' --spec B:x2:x2 --exp-range 3 "
    "--syllables 3",
    f"pingpong-oracle {P2_3} --spec W1:x1:x1 --spec W2:x2:x2 --spec T:t:t --syllables 4",
    f"pingpong-oracle {G3} --spec 'A:x1:x1, y1 x1 y1^-1' --spec B:x2:x2 --exp-range 3 "
    "--max-products 7",
    # a product with a trivial factor, (x1) (x1)^-1, is no witness
    f"pingpong-oracle {G3} --spec A:x1:x1,x1 --spec B:x2:x2",
    # y1 x1 y1^-1 x1^-1 has a normal form of its own, which on these
    # non-confluent rules proves nothing: the walk stops on it
    "pingpong-oracle --file nested.txt --spec A:s:y1 --spec B:s:x1",
    f"braid-verify {P2_2}",
    f"braid-verify {P2_3}",
    f"braid-phi {P2_2} x1",
    f"braid-phi {P2_2} --k -1 x1",
    f"braid-phi {P2_3} A1_4",
    f"braid-phi {P2_2} --push 'x1 t y1'",
    # two images of 500,001 letters, 1,000,001 held together: past the cap
    f"braid-phi {P2_2} --push 't^125000 x1 t^-125000 x1 t^125000 x1'",
    # phi fixes y1 x1, whatever the depth it is pushed from
    f"braid-phi {P2_2} --push 't^2000 y1 x1 t^-2000'",
    # a power in closed form: 3,999 letters
    f"braid-phi {P2_3} --k 1000 x1",
    # phi fixes y1 x1, so any power gives it back at once
    f"braid-phi {P2_2} --k 1000000000000 'y1 x1'",
    # pushed after free reduction: 500 images that cancel count no letters
    f"braid-phi {P2_2} --push 't^300 x1^500 x1^-500'",
    f"braid-check-free {P2_3} --w 'y1 x1' --w x2",
    f"braid-check-free {P2_3} --w x1 --w x2 --strict",
    # free, though a hypothesis fails: inconclusive, as no [w_i, t] = 1
    f"braid-check-free {P2_2} --w 'x1 t'",
    f"braid-check-free {P2_3} --w 'x1 x2' --w x2",
    f"danilevich {P2_2} --h x1",
    f"danilevich {P2_2} --h 'y1 x1'",
    f"danilevich {P2_2} --h x1 --max-products 3",
    f"danilevich {P2_2} --h x1 --h x1",
    f"danilevich {P2_2} --h x1 --syllables 4 --exp-range 1",
    f"eq {P2_2} 't^-1 y1 t' 'y1 x1 y1 x1^-1 y1^-1'",
    f"eq {P2_3} 'y1^-1 x2 x1^-1 y1 x1 x2^-1 x1^-1 y1^-1 x1 y1' 1",
    # the braid names of t and of y1
    f"eq {P2_3} 'A3_4 A1_3' 't y1'",
]

SUBCOMMANDS = ["nf", "eq", "rules", "confluence", "pingpong-certify", "pingpong-oracle",
               "braid-verify", "braid-phi", "braid-check-free", "danilevich"]

# help, usage and parse errors, and messages that name a file's generators
ERRORS = [
    "--help",
    *(f"{name} --help" for name in SUBCOMMANDS),
    "",
    "bogus",
    f"nf {G3}",
    "danilevich --bogus",
    f"nf {G3} --strategy sideways x1",
    f"nf {G3} 'y1 zz'",
    "nf x1",
    "nf --preset zz 3 x1",
    f"nf {G3} --file own.txt x1",
    "rules --file missing.txt",
    "rules --file bad-line.txt",
    "rules --file duplicate.txt",
    f"braid-verify {G3}",
    # under p2 the commands of an HNN presentation refuse before any word is read
    f"nf {P2_2} 't y1 t^-1'",
    f"rules {P2_3}",
    "confluence --preset p2 4 --random",
    f"braid-phi {P2_3} A1_2",
    # under p2 a parse error names the column and the term as typed
    f"eq {P2_3} 'A1_4   zz' 1",
    f"braid-phi {P2_3} 'A1_4^x'",
    f"pingpong-certify {G3} --spec A1:x1",
    f"pingpong-certify {G3} --spec A1:x1:x1 --evidence A1:psychic:yes",
    f"pingpong-certify {G3} --spec A:x1:x1 --evidence A:orbit:zz",
    f"pingpong-certify {P2_2} --spec A:x1:x1 --evidence A:orbit:t",
    "pingpong-certify --file own.txt --spec A:p:p --evidence A:orbit:p",
    f"pingpong-oracle {G3} --spec A:x1:x1 --spec A:x2:x2",
    f"pingpong-oracle {G3} --spec A:x1:x1 --syllables 0",
    f"pingpong-oracle {G3} --spec :x1:x1",
    f"pingpong-oracle {G3} --spec A:zz:x1",
    f"pingpong-oracle {G3} --spec A:y1:x1",
    f"pingpong-oracle {G3}",
    f"pingpong-certify {G3} --spec A1:x1:x1 --evidence A1:orbit",
    f"pingpong-certify {G3} --spec A1:x1:x1 --evidence B:declared:external",
    f"pingpong-certify {G3} --spec A1:x1:x1 --evidence A1:declared:a --evidence A1:declared:b",
    f"pingpong-certify {G3} --spec A1:x1:x1 --evidence A1:probe:0",
    f"braid-check-free {P2_2}",
    f"braid-check-free {P2_3} --w x1",
    f"braid-phi {P2_2} t",
    f"danilevich {P2_2} --h 'x1 t'",
    # word errors and caps
    f"nf {G3} ''",
    f"nf {G3} 'x1^0'",
    f"nf {G3} 'x1^1000001'",
    "nf --preset gn 33 x1",
    *(f"rules --file {name}" for name in FAULTS),
]

CASES = [*COMMANDS, *(f"{c} --json" for c in COMMANDS), *ERRORS]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: help, usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


def fingerprint(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def main_corpus() -> None:
    os.environ["COLUMNS"] = "80"
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for case in CASES:
                digest = fingerprint(*run(shlex.split(case)))
                total.update(digest.encode())
                print(f"{digest}  hnnfree {case}")
        finally:
            os.chdir(cwd)
    print(f"{total.hexdigest()}  total of {len(CASES)} cases")


if __name__ == "__main__":
    main_corpus()

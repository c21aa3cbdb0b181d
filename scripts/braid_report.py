#!/usr/bin/env python3
"""Two-route verification report for the pure-braid layer.

For each rank the script checks every relator of the two defining relation
families along both decision routes: the semidirect push (sound, and
complete only at rank 2) and the exact splitting (complete at every rank).
It then demonstrates the words that separate the routes, the rank-two
center, and the freeness certificates with their brute-force confirmation.
"""

import argparse
import time

from hnnfree.braid import (
    braid_freeness_check,
    braid_trivial,
    semidirect_nf,
    split_nf,
    verify_braid_relations,
    verify_extension,
)
from hnnfree.pingpong import Bounds, SubgroupSpec, free_product_oracle
from hnnfree.presentation import p2
from hnnfree.rewrite import RuleSystem
from hnnfree.words import OUTER, commutator, conjugate, format_word, free_reduce, stable_gen


def relation_section(max_n: int) -> None:
    print("relation families, push route vs splitting route")
    for n in range(2, max_n + 1):
        ext = p2(n)
        rr = verify_braid_relations(n)
        er = verify_extension(ext)
        pushed = sum(e.settled_by == "push" for e in rr.entries)
        print(f"  n={n}: {len(rr.entries)} relators, {pushed} settle by push, "
              f"{len(rr.entries) - pushed} need the splitting; "
              f"extension checks {'pass' if er.ok else 'FAIL'}")
        for e in rr.entries:
            if e.settled_by == "split":
                print(f"    {e.label()}: push remainder {e.pushed.render(ext.alphabet)}")


def separation_section() -> None:
    print("\nwords separating the two routes (rank 3)")
    ext = p2(3)
    flaw = free_reduce(commutator(ext.parse("x2"),
                                  conjugate(ext.parse("y1"), ext.parse("x1"))))
    print(f"  w = {format_word(flaw, ext.alphabet)}")
    print(f"  push:      {semidirect_nf(ext, flaw).render(ext.alphabet)}")
    print(f"  splitting: {split_nf(ext, flaw).render(ext.alphabet)}"
          f"  -> trivial: {braid_trivial(ext, flaw)}")


def center_section() -> None:
    print("\nrank-two center")
    ext = p2(2)
    z = ext.parse("y1 x1 t")
    for g in ("x1", "y1", "t"):
        comm = free_reduce(commutator(z, ext.parse(g)))
        print(f"  [y1 x1 t, {g}] -> splitting {split_nf(ext, comm).render(ext.alphabet)}")


def freeness_section(max_n: int, oracle_syllables: int) -> None:
    print("\nfreeness certificates with brute-force confirmation")
    for n in range(2, max_n + 1):
        ext = p2(n)
        basis = [ext.parse(f"x{i}") for i in range(1, n)]
        cert = braid_freeness_check(n, basis)
        print(f"  n={n} basis x_i: {cert.verdict}")
        direct = [ext.parse(f"y{i} x{i}") for i in range(1, n)]
        cert = braid_freeness_check(n, direct)
        first = next(c for c in cert.conditions if not c.ok)
        print(f"  n={n} family y_i x_i: {cert.verdict} ({first.witness})")

        specs = [SubgroupSpec(f"W{i}", (w,), frozenset({stable_gen(i)}))
                 for i, w in enumerate(basis, start=1)]
        specs.append(SubgroupSpec("T", ((OUTER,),), frozenset({OUTER})))
        t0 = time.monotonic()
        rep = free_product_oracle(specs, RuleSystem(ext.base),
                                  Bounds(syllables=oracle_syllables, exp_range=2),
                                  is_trivial=lambda w, e=ext: braid_trivial(e, w))
        print(f"    oracle on the basis instance: {rep.verdict}, "
              f"{rep.checked:,} products in {time.monotonic() - t0:.1f}s")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=4, help="largest rank to report")
    ap.add_argument("--oracle-syllables", type=int, default=4,
                    help="syllable bound of the confirmation oracle")
    args = ap.parse_args()
    relation_section(args.max_n)
    separation_section()
    center_section()
    freeness_section(args.max_n, args.oracle_syllables)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Re-measure the single-call baselines listed under ROADMAP open item 1.

Run from the repository root: python3 perfbench/baselines.py
Each row prints the median of a few calls on words from a fixed generator.
This is a one-off comparison with the ROADMAP figures, not the benchmark.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import reference as R  # noqa: E402
from hnnfree import RuleSystem, gn, nf_ints, normal_form, p2  # noqa: E402
from hnnfree.braid import semidirect_nf, split_nf  # noqa: E402


def timed(fn):
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


def main() -> None:
    rng = random.Random("baselines")
    g4 = gn(4)
    s4 = RuleSystem(g4)
    names4 = R.gn_names(4)
    for length in (50, 3200):
        words = [s4.encode(g4.parse(names4.format(R.random_word(rng, list(range(1, 7)), length))))
                 for _ in range(20)]
        ms = statistics.median(timed(lambda w=w: nf_ints(list(w), s4))[0] for w in words) * 1e3
        print(f"nf_ints gn(4) random length {length}: {ms:.2f} ms median of 20")

    g3 = gn(3)
    s3 = RuleSystem(g3)
    w = g3.parse("x1^200 y2^200")
    dt, _ = timed(lambda: nf_ints(s3.encode(w), s3))
    dt_trace, (_, trace) = timed(lambda: normal_form(w, s3))
    print(f"gn(3) x1^200 y2^200: {len(trace)} steps, nf_ints {dt:.3f} s, "
          f"traced normal_form {dt_trace:.3f} s")

    ext = p2(4)
    names = R.p2_names(4)
    for length, count in ((20, 9), (30, 5), (40, 3)):
        rows = []
        for _ in range(count):
            word = ext.parse(names.format(R.random_word(rng, list(range(1, 8)), length)))
            dt_split, sp = timed(lambda: split_nf(ext, word))
            dt_push, _ = timed(lambda: semidirect_nf(ext, word))
            rows.append((dt_split, len(sp.x_part), dt_push))
        rows.sort()
        split_s, x_len, push_s = rows[len(rows) // 2]
        print(f"p2(4) random length {length}: split_nf {split_s * 1e3:.1f} ms "
              f"(x_part {x_len} letters), semidirect_nf {push_s * 1e3:.2f} ms; "
              f"median word of {count}, split_nf range "
              f"{rows[0][0] * 1e3:.1f} to {rows[-1][0] * 1e3:.1f} ms")


if __name__ == "__main__":
    main()

"""The four workloads: set-up, seeded input generation and answer checks.

Every op is a zero-argument call into the package plus a check that judges
its answer against `reference`, never against another output of the
package.  Ops call the package through module attributes at call time, so
the traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys

import reference as R

# Copies of the presentations in scripts/confluence_report.py.
HANDWRITTEN = """\
base y1 y2 y3
stable x1 x2
rel x1 : y1 ^ y2 y3 = y1 ^ y3 y2
rel x1 : y2 ^ y3^-1 y1 = y2 ^ y1 y3
rel x2 : y3 ^ y1 y1 = y3 ^ y2^-1 y1
"""

NESTED = """\
base y1 x1
stable s
rel s : y1 ^ x1^-1 y1^-1 = y1 ^ x1
rel s : x1 ^ y1^-1 = x1 ^ y1 x1
"""

# Known wrong answers of the seed: op name -> why the expected answer holds.
# They stay in the mix and count as failed ops; `correct` turns false only
# for failures not listed here.
KNOWN_DEFECTS = {
    "cli:eq-nested-critical-peak": (
        "both words are the one-step reducts of one critical peak of the "
        "non-confluent NESTED system, so they are equal in the group"
    ),
}


class Op:
    __slots__ = ("name", "call", "check", "products")

    def __init__(self, name, call, check, products=None):
        self.name = name
        self.call = call
        self.check = check
        self.products = products


def fresh_import(*names):
    """Import hnnfree modules afresh, as a new process would."""
    for m in [m for m in sys.modules if m == "hnnfree" or m.startswith("hnnfree.")]:
        del sys.modules[m]
    return [importlib.import_module(n) for n in names]


def _lengths(count, lo, hi, log=True):
    """Stratum midpoints of [lo, hi], log-uniform or uniform.  The lengths
    are fixed and only the letters come from the seed, since an op's cost
    follows its length."""
    out = []
    for q in range(count):
        f = (q + 0.5) / count
        out.append(round(lo * (hi / lo) ** f) if log else round(lo + (hi - lo) * f))
    return out


def _add_letter(rng, w, names):
    """w with one extra letter: that generator's exponent sum changes by one."""
    g = rng.randint(1, len(names.names)) * rng.choice((1, -1))
    pos = rng.randrange(len(w) + 1)
    return w[:pos] + (g,) + w[pos:]


def _expect(value):
    return lambda r: None if r is value else f"expected {value}, got {r}"


def _word_invariants(names: R.Names, with_base_projection: bool):
    """Group invariants of a word: exponent sums, the free reduction of the
    stable letters alone and, when every conjugator pair has w = v, of the
    base letters alone."""

    def inv(w):
        out = (R.exp_sums(w, len(names.names)), R.project(w, lambda c: not names.is_base(c)))
        if with_base_projection:
            out += (R.project(w, names.is_base),)
        return out

    return inv


def _check_normal_form(names, invariants, source):
    """A normal form is freely reduced and keeps every invariant."""
    want = invariants(source)

    def check(out):
        if not R.is_reduced(out):
            return "normal form is not freely reduced"
        if invariants(out) != want:
            return "normal form changed a group invariant"
        return None

    return check


# ---------------------------------------------------------------------------
# wordproblem: library nf and equal on one warm RuleSystem per presentation
# ---------------------------------------------------------------------------

WP_NF, WP_EQ, WP_ADVERSARIAL_K = 12, 12, (50, 100, 150, 200)


def setup_wordproblem(root):
    hn, rw, words = fresh_import("hnnfree", "hnnfree.rewrite", "hnnfree.words")
    pres = {
        "gn3": hn.gn(3),
        "gn4": hn.gn(4),
        "gn6": hn.gn(6),
        "handwritten": hn.parse_presentation(HANDWRITTEN),
    }
    systems = {k: hn.RuleSystem(p) for k, p in pres.items()}
    return {"rw": rw, "words": words, "pres": pres, "systems": systems}


def build_wordproblem(ctx, rng):
    rw, words = ctx["rw"], ctx["words"]
    ops = []
    for key, p in ctx["pres"].items():
        system = ctx["systems"][key]
        if key == "handwritten":
            names, relators = R.parse_presentation_file(HANDWRITTEN)
        else:
            n = int(key[2:])
            names, relators = R.gn_names(n), R.gn_relators(n)
        invariants = _word_invariants(names, key != "handwritten")
        codes = list(range(1, len(names.names) + 1))

        def nf_op(name, w, p=p, names=names, system=system, invariants=invariants):
            check = _check_normal_form(names, invariants, w)
            word = p.parse(names.format(w))
            return Op(name, lambda: rw.nf(word, system),
                      lambda r: check(names.parse(words.format_word(r, p.alphabet))))

        for i, length in enumerate(_lengths(WP_NF, 50, 3200)):
            ops.append(nf_op(f"wordproblem:{key}:nf:{i}:len{length}", R.random_word(rng, codes, length)))
        for k in WP_ADVERSARIAL_K:
            ops.append(nf_op(f"wordproblem:{key}:nf-adversarial:x1^{k} y2^{k}",
                             names.parse(f"x1^{k} y2^{k}")))
        for i, length in enumerate(_lengths(WP_EQ, 50, 3200)):
            u = R.random_word(rng, codes, length)
            v = R.decorate(rng, u, relators, names, max(1, length // 100))
            expect = i % 2 == 0
            if not expect:
                v = _add_letter(rng, v, names)
                assert R.exp_sums(u, len(codes)) != R.exp_sums(v, len(codes))
            pu, pv = p.parse(names.format(u)), p.parse(names.format(v))
            ops.append(Op(
                f"wordproblem:{key}:equal-{str(expect).lower()}:{i}:len{length}",
                lambda pu=pu, pv=pv, system=system: rw.equal(pu, pv, system),
                _expect(expect),
            ))
    return ops


# ---------------------------------------------------------------------------
# oracle: the bounded freeness oracles on certified and refuted instances
# ---------------------------------------------------------------------------


def setup_oracle(root):
    hn, pp, braid = fresh_import("hnnfree", "hnnfree.pingpong", "hnnfree.braid")
    gn3 = hn.gn(3)
    ctx = {"hn": hn, "pp": pp, "braid": braid, "gn3": gn3, "sys3": hn.RuleSystem(gn3)}
    for n in (2, 3):
        ext = hn.p2(n)
        ctx[f"p2_{n}"] = ext
        ctx[f"sys_p2_{n}"] = hn.RuleSystem(ext.base)
        braid.braid_trivial(ext, ext.parse("1"))  # first BraidSplitting
    return ctx


def build_oracle(ctx, rng):
    hn, pp, braid = ctx["hn"], ctx["pp"], ctx["braid"]
    gn3, sys3 = ctx["gn3"], ctx["sys3"]
    ext2, ext3 = ctx["p2_2"], ctx["p2_3"]
    gn3_names = R.gn_names(3)
    gn3_relators = set()
    for r in R.gn_relators(3):
        gn3_relators |= R.cyclic_conjugates(r) | R.cyclic_conjugates(R.inverse(r))

    def spec(p, label, support, *gens):
        return pp.SubgroupSpec(label, tuple(p.parse(g) for g in gens),
                               frozenset(p.alphabet.gen(s) for s in support.split(",")))

    def verdict(expected, checked=None, witness=None):
        def check(rep):
            if rep.verdict != expected:
                return f"expected {expected}, got {rep.verdict}"
            if checked is not None and rep.checked != checked:
                return f"expected {checked} products checked, got {rep.checked}"
            if witness is not None:
                return witness(rep)
            return None
        return check

    def gn3_relator_witness(rep):
        w = R.reduce(gn3_names.parse(hn.format_word(rep.witness, gn3.alphabet)))
        return None if not w or w in gn3_relators else "witness is not a relator"

    def base_witness(rep):
        w = gn3_names.parse(hn.format_word(rep.witness, gn3.alphabet))
        return None if w and all(gn3_names.is_base(c) for c in w) else "witness is not a base word"

    braid2 = R.BraidReference(2)
    p2_2_names = R.p2_names(2)

    def trivial_braid_witness(rep):
        w = R.reduce(p2_2_names.parse(hn.format_word(rep.witness, ext2.alphabet)))
        return "witness is a nontrivial braid" if braid2.certified_nontrivial(w) else None

    def products(rep):
        return rep.checked

    ops = []

    def oracle(name, specs, system, syllables, check, ext=None):
        bounds = pp.Bounds(syllables=syllables)
        if ext is None:
            call = lambda: pp.free_product_oracle(specs, system, bounds)
        else:
            # the triviality test the CLI uses for the braid layer
            call = lambda: pp.free_product_oracle(
                specs, system, bounds, is_trivial=lambda w: braid.braid_trivial(ext, w))
        ops.append(Op("oracle:" + name, call, check, products))

    def probe(name, s, max_len, check):
        ops.append(Op("oracle:" + name, lambda: pp.bounded_intersection_probe(s, sys3, max_len),
                      check, products))

    def free_factor(name, ext, gens, syllables, check):
        hs = [ext.parse(g) for g in gens]
        bounds = pp.Bounds(syllables=syllables)
        ops.append(Op("oracle:" + name, lambda: braid.free_factor_probe(ext, hs, bounds),
                      check, products))

    # certified by orbit certificates (criterion 08): x1, y1 x2, x2
    a1, a2 = spec(gn3, "A1", "x1", "x1"), spec(gn3, "A2", "x2", "y1 x2")
    for syl in (4, 6):
        oracle(f"gn3 <x1>*<y1 x2> syllables={syl}", [a1, a2], sys3, syl,
               verdict("pass", R.alternating_products([4, 4], syl)))
    for syl in (4, 6):
        oracle(f"gn3 <x1>*<x2> syllables={syl}", [a1, spec(gn3, "A2", "x2", "x2")], sys3, syl,
               verdict("pass", R.alternating_products([4, 4], syl)))
    # refuted: x1 y2 and y2 x1 commute modulo the relator [x1, y2]
    oracle("gn3 <x1 y2>*<y2 x1> syllables=6",
           [spec(gn3, "A", "x1,x2", "x1 y2"), spec(gn3, "B", "x1,x2", "y2 x1")], sys3, 6,
           verdict("fail", 10, gn3_relator_witness))
    oracle("gn3 <x1>*<x1> syllables=4", [a1, spec(gn3, "B1", "x1", "x1")], sys3, 4,
           verdict("fail", None, gn3_relator_witness))
    # certified by the braid free-rank theorem (criterion 08 families)
    sys_ext3 = ctx["sys_p2_3"]
    for texts in (["x1", "x2"], ["x1 y2", "x2^2"], ["x2 x1 x2^-1", "x2"]):
        specs = [spec(ext3, f"W{i}", f"x{i}", w) for i, w in enumerate(texts, 1)]
        specs.append(spec(ext3, "T", "t", "t"))
        for syl in (4, 5):
            oracle(f"p2(3) <{', '.join(texts)}, t> syllables={syl}", specs, sys_ext3, syl,
                   verdict("pass", R.alternating_products([4, 4, 4], syl)), ext=ext3)
    # <x_i, phi(x_i)> lies in the orbit subgroup of x_i, certified to avoid the base
    probe("probe gn3 <x1, y1 x1 y1^-1> max_len=10", spec(gn3, "O", "x1", "x1", "y1 x1 y1^-1"), 10,
          verdict("pass", R.probe_products(2, 10)))
    probe("probe gn3 <x2, y2 x2 y2^-1> max_len=8", spec(gn3, "O", "x2", "x2", "y2 x2 y2^-1"), 8,
          verdict("pass", R.probe_products(2, 8)))
    probe("probe gn3 <y1 x2> max_len=6", spec(gn3, "A", "x2", "y1 x2"), 6,
          verdict("pass", R.probe_products(1, 6)))
    probe("probe gn3 <y1> max_len=4", spec(gn3, "B", "x1", "y1"), 4,
          verdict("fail", None, base_witness))
    # criterion 11 and the free rank of <x1, x2, t>
    free_factor("free_factor p2(3) <x1, x2> syllables=4", ext3, ["x1", "x2"], 4,
                verdict("pass", R.free_factor_products(2, 4, 2)))
    free_factor("free_factor p2(3) <x1> syllables=5", ext3, ["x1"], 5,
                verdict("pass", R.free_factor_products(1, 5, 2)))
    free_factor("free_factor p2(2) <x1> syllables=6", ext2, ["x1"], 6,
                verdict("pass", R.free_factor_products(1, 6, 2)))
    free_factor("free_factor p2(2) <y1 x1> syllables=6", ext2, ["y1 x1"], 6,
                verdict("fail", None, trivial_braid_witness))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# braid: braid_trivial, braid_equal and semidirect_nf on the braid layer
# ---------------------------------------------------------------------------

BRAID_PER_KIND = 10
# split_nf's cost is exponential and heavy-tailed in the word: on words
# drawn from five seeds, ops_per_s ranged from 14 to 184.  The words are
# therefore drawn from fixed generators, one per query, so runs and PRs
# compare; the seed orders the queries.


def setup_braid(root):
    hn, braid = fresh_import("hnnfree", "hnnfree.braid")
    ctx = {"hn": hn, "braid": braid}
    for n in (3, 4):
        ext = hn.p2(n)
        ctx[n] = ext
        one = ext.parse("1")
        braid.braid_trivial(ext, one)  # first BraidSplitting
        braid.semidirect_nf(ext, one)  # compiles the base RuleSystem
    return ctx


def build_braid(ctx, rng):
    hn, braid = ctx["hn"], ctx["braid"]
    ops = []
    for n in (3, 4):
        ext = ctx[n]
        ref = R.BraidReference(n)
        names = R.p2_names(n)
        relators = R.braid_relators(n)
        codes = list(range(1, len(names.names) + 1))
        n_codes = len(codes)
        lib = lambda w: ext.parse(names.format(w))

        def nontrivial_word(pool, length):
            while True:
                w = R.random_word(pool, codes, length)
                if ref.certified_nontrivial(w):
                    return w

        for i, length in enumerate(_lengths(BRAID_PER_KIND, 8, 32, log=False)):
            name = f"braid:p2({n}):trivial-false:{i}:len{length}"
            w = lib(nontrivial_word(random.Random(name), length))
            ops.append(Op(name, lambda w=w, ext=ext: braid.braid_trivial(ext, w), _expect(False)))
        for i in range(BRAID_PER_KIND):
            # one to three relators with cancelling pairs: 8 to about 32 letters
            name = f"braid:p2({n}):trivial-true:{i}"
            w = R.decorate(random.Random(name), (), relators, names, 1 + i % 3)
            assert not ref.moves(w)
            w = lib(w)
            ops.append(Op(f"{name}:len{len(w)}",
                          lambda w=w, ext=ext: braid.braid_trivial(ext, w), _expect(True)))
        for i, length in enumerate(_lengths(BRAID_PER_KIND, 4, 12, log=False)):
            same = i % 2 == 0
            name = f"braid:p2({n}):equal-{str(same).lower()}:{i}"
            pool = random.Random(name)
            u = R.random_word(pool, codes, length)
            v = R.decorate(pool, u, relators, names, 1)
            if not same:
                v = _add_letter(pool, v, names)
                assert R.exp_sums(u, n_codes) != R.exp_sums(v, n_codes)
            pu, pv = lib(u), lib(v)
            ops.append(Op(f"{name}:len{len(u) + len(v)}",
                          lambda pu=pu, pv=pv, ext=ext: braid.braid_equal(ext, pu, pv), _expect(same)))
        for i, length in enumerate(_lengths(BRAID_PER_KIND, 8, 32, log=False)):
            name = f"braid:p2({n}):semidirect_nf:{i}:len{length}"
            w = nontrivial_word(random.Random(name), length)
            ops.append(Op(name, lambda pw=lib(w), ext=ext: braid.semidirect_nf(ext, pw),
                          _semidirect_check(hn, ext, names, w)))
    rng.shuffle(ops)
    return ops


def _semidirect_check(hn, ext, names, w):
    """The pushed pair (g, k): k is the t-exponent sum, and g keeps the
    exponent sums and both projections of w without its t letters, since
    the conjugation maps descend to the identity on F(X) x F(Y).  w is a
    certified nontrivial braid, so (1, 0) would be a wrong answer."""
    rest = tuple(c for c in w if not names.is_outer(c))
    inv = _word_invariants(names, True)
    want = inv(rest)
    t_sum = R.exp_sums(w, len(names.names))[-1]

    def check(se):
        g = names.parse(hn.format_word(se.g, ext.alphabet))
        if se.k != t_sum:
            return f"t exponent {se.k}, expected {t_sum}"
        if inv(g) != want:
            return "pushed word changed a group invariant"
        if not g and se.k == 0:
            return "nontrivial braid pushed to the identity"
        return None

    return check


# ---------------------------------------------------------------------------
# cli: in-process hnnfree.cli.main over every subcommand
# ---------------------------------------------------------------------------

SETUP_IMPORT = "import sys; sys.path.insert(0, 'src'); import hnnfree.cli"


def setup_cli(root):
    """A fresh interpreter importing the CLI, which every invocation pays
    before its command runs, then the in-process import the ops use."""
    subprocess.run([sys.executable, "-c", SETUP_IMPORT], cwd=root, check=True)
    (cli,) = fresh_import("hnnfree.cli")
    files = os.path.join(root, ".perfbench")
    os.makedirs(files, exist_ok=True)
    paths = {}
    for name, text in (("handwritten", HANDWRITTEN), ("nested", NESTED)):
        paths[name] = os.path.join(files, f"{name}.txt")
        with open(paths[name], "w") as fh:
            fh.write(text)
    caches = [
        obj for mname, mod in list(sys.modules.items())
        if mname.startswith("hnnfree.")
        for obj in vars(mod).values() if hasattr(obj, "cache_clear")
    ]
    return {"cli": cli, "files": paths, "caches": caches}


def build_cli(ctx, rng):
    cli_mod, files, caches = ctx["cli"], ctx["files"], ctx["caches"]
    gn3, gn4, p2_3 = R.gn_names(3), R.gn_names(4), R.p2_names(3)
    hw_names, hw_relators = R.parse_presentation_file(HANDWRITTEN)
    ops = []

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_mod.main(argv)
        return code, out.getvalue(), err.getvalue()

    def command(name, argv, check):
        def judged(result):
            # a fresh process starts with empty caches; so does the next op
            for c in caches:
                c.cache_clear()
            code, out, err = result
            if err:
                return f"exit {code}, stderr: {err.strip()[:200]}"
            return check(code, out)
        ops.append(Op("cli:" + name, lambda: run(argv), judged))

    def exits(want, *needles):
        def check(code, out):
            if code != want:
                return f"exit {code}, expected {want}: {out.strip()[:200]}"
            for s in needles:
                if s not in out:
                    return f"output lacks {s!r}"
            return None
        return check

    def nf_check(names, w, with_base, trace=False, json_doc=False):
        check = _check_normal_form(names, _word_invariants(names, with_base), w)

        def judge(code, out):
            if code != 0:
                return f"exit {code}"
            if json_doc:
                doc = json.loads(out)
                if doc.get("schema") != 1:
                    return "json document lacks schema 1"
                text = doc["normal_form"]
            else:
                lines = out.strip().splitlines()
                text = lines[-1]
                if trace:
                    if not text.startswith("final: "):
                        return "trace lacks its final line"
                    text = text[len("final: "):]
            return check(names.parse(text))

        return judge

    def eq_check(expected):
        return exits(0 if expected else 1, "true" if expected else "false")

    gn3_codes, gn4_codes = list(range(1, 5)), list(range(1, 7))
    for preset, names, codes, length, flags in (
        (("gn", "3"), gn3, gn3_codes, 40, []),
        (("gn", "4"), gn4, gn4_codes, 200, []),
        (("gn", "3"), gn3, gn3_codes, 40, ["--trace"]),
        (("gn", "4"), gn4, gn4_codes, 100, ["--json"]),
    ):
        w = R.random_word(rng, codes, length)
        command(f"nf {' '.join(flags)} gn({preset[1]}) len{length}",
                ["nf", "--preset", *preset, *flags, names.format(w)],
                nf_check(names, w, True, trace="--trace" in flags, json_doc="--json" in flags))
    w = R.random_word(rng, list(range(1, 6)), 60)
    command("nf handwritten len60", ["nf", "--file", files["handwritten"], hw_names.format(w)],
            nf_check(hw_names, w, False))
    adversarial = gn3.parse("x1^100 y2^100")
    for flags in ([], ["--trace"]):
        command(f"nf {' '.join(flags)} gn(3) x1^100 y2^100",
                ["nf", "--preset", "gn", "3", *flags, "x1^100 y2^100"],
                nf_check(gn3, adversarial, True, trace=bool(flags)))

    for source, names, relators, codes in (
        (["--preset", "gn", "4"], gn4, R.gn_relators(4), gn4_codes),
        (["--file", files["handwritten"]], hw_names, hw_relators, list(range(1, 6))),
    ):
        label = source[-1] if source[0] == "--preset" else "handwritten"
        u = R.random_word(rng, codes, 60)
        v = R.decorate(rng, u, relators, names, 2)
        command(f"eq {label} equal", ["eq", *source, names.format(u), names.format(v)], eq_check(True))
        v = _add_letter(rng, v, names)
        command(f"eq {label} unequal", ["eq", *source, names.format(u), names.format(v)], eq_check(False))
    command("eq-nested-critical-peak",
            ["eq", "--file", files["nested"], "y1 x1", "s x1^-1 y1^-1 x1 y1 x1 s^-1 y1"],
            eq_check(True))

    # 2|Y| + 2|X| + 4 * (number of associations)
    command("rules gn(6)", ["rules", "--preset", "gn", "6"], exits(0, f"{10 + 10 + 4 * 20} rules"))
    command("rules handwritten", ["rules", "--file", files["handwritten"]], exits(0, "22 rules"))

    for label, source, code in (
        ("gn(3)", ["--preset", "gn", "3"], 0),
        ("gn(4)", ["--preset", "gn", "4"], 0),
        ("handwritten", ["--file", files["handwritten"]], 0),
        ("nested", ["--file", files["nested"]], 1),
    ):
        command(f"confluence {label}", ["confluence", *source],
                exits(code, "all joinable" if code == 0 else "non-joinable"))
    command("confluence --random gn(3)",
            ["confluence", "--random", "--preset", "gn", "3", "--trials", "20",
             "--seed", str(rng.randrange(10**6))],
            exits(0, "all agree"))

    certify = ["pingpong-certify", "--preset", "gn", "3", "--spec", "A1:x1:x1"]
    command("pingpong-certify orbit",
            [*certify, "--spec", "A2:x2:y1 x2", "--evidence", "A1:orbit:x1",
             "--evidence", "A2:orbit:y1 x2"],
            exits(0, "verdict: certified"))
    command("pingpong-certify orbit+probe",
            [*certify, "--spec", "B:x2:y1", "--evidence", "A1:orbit:x1", "--evidence", "B:probe:4"],
            exits(1, "verdict: refuted", "probe found witness y1"))
    command("pingpong-oracle pass",
            ["pingpong-oracle", "--preset", "gn", "3", "--spec", "A1:x1:x1",
             "--spec", "A2:x2:y1 x2", "--syllables", "4"],
            exits(0, f"pass  (products checked: {R.alternating_products([4, 4], 4)})"))
    command("pingpong-oracle fail",
            ["pingpong-oracle", "--preset", "gn", "3", "--spec", "A:x1,x2:x1 y2",
             "--spec", "B:x1,x2:y2 x1"],
            exits(1, "fail  (products checked: 10)", "witness: x1 y2 x1^-1 y2^-1"))

    command("braid-verify p2(3)", ["braid-verify", "--preset", "p2", "3"],
            exits(0, "overall: relations all trivial"))
    ref3 = R.BraidReference(3)
    for k in (2, -1):
        w = R.random_word(rng, gn3_codes, 8)
        want = p2_3.format(R.phi_power(3, w, k))
        command(f"braid-phi --k {k}", ["braid-phi", "--preset", "p2", "3", p2_3.format(w), "--k", str(k)],
                lambda code, out, want=want: None if code == 0 and out.strip() == want
                else f"exit {code}, image {out.strip()!r}, expected {want!r}")
    trivial = R.decorate(rng, (), R.braid_relators(3), p2_3, 2)
    nontrivial = R.random_word(rng, list(range(1, 6)), 10)
    while not ref3.certified_nontrivial(nontrivial):
        nontrivial = R.random_word(rng, list(range(1, 6)), 10)
    for label, w, want in (("trivial", trivial, "true"), ("nontrivial", nontrivial, "false")):
        command(f"braid-phi --push {label}", ["braid-phi", "--preset", "p2", "3", p2_3.format(w), "--push"],
                exits(0, f"trivial: {want}"))
    command("braid-check-free certified",
            ["braid-check-free", "--preset", "p2", "3", "--w", "x1", "--w", "x2"],
            exits(0, "verdict: certified"))
    command("braid-check-free refuted",
            ["braid-check-free", "--preset", "p2", "3", "--w", "y1 x1", "--w", "y2 x2"],
            exits(1, "verdict: refuted"))
    command("danilevich pass", ["danilevich", "--preset", "p2", "2", "--h", "x1"],
            exits(0, f"pass  (products checked: {R.free_factor_products(1, 6, 2)})"))
    command("danilevich fail", ["danilevich", "--preset", "p2", "2", "--h", "y1 x1"],
            exits(1, "fail"))
    rng.shuffle(ops)
    return ops


# name -> (setup, build, tail percentile cap, minimum measured cycles,
# warm-up cycle).  Only braid keeps state between ops, the semidirect_nf
# push cache, so only braid runs an untimed warm-up cycle.  The minimum
# cycle counts keep at least 10 samples beyond the tail percentile.
WORKLOADS = {
    "wordproblem": (setup_wordproblem, build_wordproblem, 95, 2, False),
    "oracle": (setup_oracle, build_oracle, 75, 2, False),
    "braid": (setup_braid, build_braid, 95, 3, True),
    "cli": (setup_cli, build_cli, 95, 7, False),
}

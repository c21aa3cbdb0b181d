"""Command-line front end: one binary, subcommands per engine operation.

Exit codes: 0 pass/true/certified, 1 fail/false/refuted, 2 usage or parse
error, 3 inconclusive (also a rewrite past the step cap or a braid splitting
past the x-part cap).  All commands take a presentation source (--preset
gn N, --preset p2 N, or --file PATH) and emit text or, with --json, a
structured document with a schema field.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .braid import (
    BraidVerification,
    XPartCapExceeded,
    braid_freeness_check,
    braid_trivial,
    free_factor_probe,
    phi_power,
    resolve_braid_names,
    semidirect_nf,
    split_nf,
    verify_braid_relations,
    verify_extension,
)
from .pingpong import (
    CERTIFIED,
    FAIL,
    INCONCLUSIVE,
    PASS,
    REFUTED,
    Bounds,
    SubgroupSpec,
    bounded_intersection_probe,
    free_product_certificate,
    free_product_oracle,
    orbit_evidence,
)
from .presentation import (
    HnnPresentation,
    PresentationSyntaxError,
    SemidirectExtension,
    compile_rules,
    gn,
    p2,
    parse_presentation,
)
from .rewrite import (
    RuleSystem,
    StepCapExceeded,
    check_local_confluence,
    equal,
    nf_steps,
    normal_form,
    random_confluence_probe,
)
from .words import (
    Word,
    WordSyntaxError,
    format_word,
    identity_map,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {CERTIFIED: EXIT_PASS, PASS: EXIT_PASS,
                 REFUTED: EXIT_FAIL, FAIL: EXIT_FAIL,
                 INCONCLUSIVE: EXIT_INCONCLUSIVE}


class CliError(Exception):
    """Usage-level failure; message goes to stderr, exit code 2."""


# ---------------------------------------------------------------------------
# Source loading and word parsing
# ---------------------------------------------------------------------------


def _load_source(args) -> HnnPresentation | SemidirectExtension:
    if args.preset and args.file:
        raise CliError("--preset and --file are mutually exclusive")
    if args.preset:
        kind, n_text = args.preset
        if kind not in ("gn", "p2") or not n_text.isdigit() or int(n_text) < 2:
            raise CliError("--preset expects gn N or p2 N with N >= 2")
        return gn(int(n_text)) if kind == "gn" else p2(int(n_text))
    if args.file:
        try:
            with open(args.file) as fh:
                return parse_presentation(fh.read())
        except OSError as e:
            raise CliError(str(e))
    raise CliError("a presentation source is required (--preset or --file)")


def _base(src) -> HnnPresentation:
    """The presented group: a p2 source's base, otherwise the source itself."""
    return src.base if isinstance(src, SemidirectExtension) else src


def _require_extension(src) -> SemidirectExtension:
    if not isinstance(src, SemidirectExtension):
        raise CliError("this command needs the braid layer; use --preset p2 N")
    return src


def _parse(text: str, src, p=None) -> Word:
    """Parse a word in p, by default the source itself; under a p2 source
    A{i}_{j} braid names are resolved first."""
    if isinstance(src, SemidirectExtension):
        try:
            text = resolve_braid_names(text, src.rank)
        except ValueError as e:
            raise CliError(str(e))
    return (p or src).parse(text)


def _at_least(low: int, **options) -> None:
    """Reject an integer option below `low` as a usage error."""
    for name, value in options.items():
        if value is not None and value < low:
            raise CliError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")


def _add_bounds(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--syllables", type=int, default=6)
    sub.add_argument("--exp-range", type=int, default=2)
    sub.add_argument("--max-products", type=int, default=None)


def _bounds(args) -> Bounds:
    _at_least(1, syllables=args.syllables, exp_range=args.exp_range)
    _at_least(0, max_products=args.max_products)
    return Bounds(args.syllables, args.exp_range, args.max_products)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _emit(args, text: str, doc: dict) -> None:
    if args.json:
        print(json.dumps({"schema": 1, "command": args.command, **doc}, indent=2, sort_keys=False))
    else:
        print(text)


def _report(args, rep, **fields) -> int:
    """Print a report as its text or its JSON document; exit by its verdict."""
    _emit(args, rep.render(), {**fields, **rep.doc()})
    return _VERDICT_EXIT[rep.verdict]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_nf(args, src) -> int:
    p = _base(src)
    system = RuleSystem(p)
    w = _parse(args.word, src)
    if args.trace or args.strategy != "leftmost":
        result, trace = normal_form(w, system, strategy=args.strategy, seed=args.seed)
        steps = len(trace)
    else:
        result, steps = nf_steps(w, system)
    text = trace.render(p.alphabet) if args.trace else format_word(result, p.alphabet)
    _emit(args, text, {
        "input": format_word(w, p.alphabet),
        "normal_form": format_word(result, p.alphabet),
        "steps": steps,
    })
    return EXIT_PASS


def _cmd_eq(args, src) -> int:
    p = _base(src)
    system = RuleSystem(p)
    u, v = _parse(args.left, src), _parse(args.right, src)
    same = equal(u, v, system)
    _emit(args, "true" if same else "false", {
        "left": format_word(u, p.alphabet),
        "right": format_word(v, p.alphabet),
        "equal": same,
    })
    return EXIT_PASS if same else EXIT_FAIL


def _cmd_rules(args, src) -> int:
    p = _base(src)
    rules = compile_rules(p)
    lines = [f"{len(rules)} rules"]
    docs = []
    for r in rules:
        lhs, rhs = format_word(r.lhs, p.alphabet), format_word(r.rhs, p.alphabet)
        lines.append(f"  kind {r.kind} #{r.rule_id}: {lhs} -> {rhs}")
        docs.append({"kind": r.kind, "id": r.rule_id, "lhs": lhs, "rhs": rhs})
    _emit(args, "\n".join(lines), {"count": len(rules), "rules": docs})
    return EXIT_PASS


def _cmd_confluence(args, src) -> int:
    _at_least(1, trials=args.trials, max_len=args.max_len)
    p = _base(src)
    system = RuleSystem(p)
    if args.random:
        rep = random_confluence_probe(system, seed=args.seed or 0,
                                      trials=args.trials, max_len=args.max_len)
        ok = rep.ok
        text = (f"random probe: {rep.trials} trials x {rep.strategies} strategies: "
                + ("all agree, nu decreasing" if ok else f"{len(rep.failures)} failures"))
        doc = {"mode": "random-probe", "ok": ok,
               "trials": rep.trials, "strategies": rep.strategies,
               "failures": len(rep.failures)}
    else:
        rep = check_local_confluence(system)
        ok = rep.ok
        text = (f"critical pairs: {rep.pairs_checked} checked: "
                + ("all joinable" if ok else f"{len(rep.failures)} non-joinable"))
        if not ok:
            for cp in rep.failures[:10]:
                text += f"\n  peak {format_word(cp.peak, p.alphabet)} has non-joinable reducts"
        doc = {"mode": "critical-pairs", "ok": ok,
               "pairs_checked": rep.pairs_checked, "failures": len(rep.failures)}
    _emit(args, text, doc)
    return EXIT_PASS if ok else EXIT_FAIL


def _parse_spec(text: str, src, p) -> SubgroupSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"--spec must read LABEL:SUPPORT:GENWORDS, got {text!r}")
    label, support_text, gens_text = (s.strip() for s in parts)
    if not label:
        raise CliError("--spec label must be nonempty")
    support = set()
    for name in filter(None, (s.strip() for s in support_text.split(","))):
        if name not in p.alphabet:
            raise CliError(f"unknown support letter {name!r} in spec {label!r}")
        support.add(p.alphabet.gen(name))
    gens = tuple(_parse(g, src, p) for g in filter(None, (s.strip() for s in gens_text.split(","))))
    try:
        return SubgroupSpec(label, gens, frozenset(support))
    except ValueError as e:
        raise CliError(str(e))


def _specs(args, src, p) -> dict[str, SubgroupSpec]:
    """The --spec options by label, read in p; labels must be distinct."""
    if not args.spec:
        raise CliError("at least one --spec is required")
    specs: dict[str, SubgroupSpec] = {}
    for text in args.spec:
        spec = _parse_spec(text, src, p)
        if spec.label in specs:
            raise CliError(f"--spec label {spec.label!r} is repeated")
        specs[spec.label] = spec
    return specs


def _cmd_pingpong_certify(args, src) -> int:
    # the theorem speaks of the presented group, whose letters exclude t
    p = _base(src)
    system = RuleSystem(p)
    by_label = _specs(args, src, p)
    evidence = {}
    for ev in args.evidence or []:
        parts = ev.split(":", 2)
        if len(parts) != 3:
            raise CliError(f"--evidence must read LABEL:KIND:VALUE, got {ev!r}")
        label, kind, value = (s.strip() for s in parts)
        if label not in by_label:
            raise CliError(f"evidence label {label!r} matches no --spec")
        if kind == "declared":
            evidence[label] = value
        elif kind == "orbit":
            m, m_inv = ((src.phi, src.phi_inv) if isinstance(src, SemidirectExtension)
                        else (identity_map(p.base_gens + p.stable_gens),) * 2)
            try:
                evidence[label] = orbit_evidence(by_label[label], _parse(value, src, p), p, m, m_inv)
            except ValueError as e:
                raise CliError(f"orbit evidence unavailable here: {e}")
        elif kind == "probe":
            if not value.isdigit() or int(value) < 1:
                raise CliError(f"probe evidence needs a length bound, got {value!r}")
            evidence[label] = bounded_intersection_probe(by_label[label], system, int(value))
        else:
            raise CliError(f"unknown evidence kind {kind!r} (orbit/declared/probe)")
    cert = free_product_certificate(list(by_label.values()), evidence, system, strict=not args.lax)
    return _report(args, cert)


def _cmd_pingpong_oracle(args, src) -> int:
    specs = list(_specs(args, src, src).values())
    is_trivial = partial(braid_trivial, src) if isinstance(src, SemidirectExtension) else None
    rep = free_product_oracle(specs, RuleSystem(_base(src)), _bounds(args), is_trivial)
    return _report(args, rep)


def _cmd_braid_verify(args, src) -> int:
    ext = _require_extension(src)
    rep = BraidVerification(verify_extension(ext), verify_braid_relations(ext.rank))
    return _report(args, rep)


def _cmd_braid_phi(args, src) -> int:
    ext = _require_extension(src)
    w = _parse(args.word, ext)
    alphabet = ext.alphabet
    if args.push:
        se = semidirect_nf(ext, w)
        sp = split_nf(ext, w)
        text = (f"semidirect: {se.render(alphabet)}\n"
                f"splitting:  {sp.render(alphabet)}\n"
                f"trivial: {'true' if sp.is_identity else 'false'}")
        doc = {"mode": "push",
               "input": format_word(w, alphabet),
               "semidirect": {"g": format_word(se.g, alphabet), "k": se.k},
               "splitting": {"y_part": format_word(sp.y_part, alphabet),
                             "x_part": format_word(sp.x_part, alphabet)},
               "trivial": sp.is_identity}
        _emit(args, text, doc)
        return EXIT_PASS
    try:
        img = phi_power(ext, w, args.k)
    except ValueError as e:
        raise CliError(str(e))
    _emit(args, format_word(img, alphabet), {
        "mode": "power", "k": args.k,
        "input": format_word(w, alphabet), "image": format_word(img, alphabet)})
    return EXIT_PASS


def _cmd_braid_check_free(args, src) -> int:
    ext = _require_extension(src)
    n = ext.rank
    if not args.w:
        raise CliError("at least one --w is required")
    words = [_parse(w, ext) for w in args.w]
    try:
        cert = braid_freeness_check(n, words, strict=args.strict)
    except ValueError as e:
        raise CliError(str(e))
    return _report(args, cert, n=n)


def _cmd_danilevich(args, src) -> int:
    ext = _require_extension(src)
    hgens = [_parse(w, ext) for w in (args.h or [])]
    try:
        rep = free_factor_probe(ext, hgens, _bounds(args))
    except ValueError as e:
        raise CliError(str(e))
    return _report(args, rep)


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnnfree",
        description="Normal forms and freeness certificates for multiple HNN "
                    "extensions of free groups, with a pure-braid layer.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        sp = subs.add_parser(name, help=summary)
        sp.add_argument("--preset", nargs=2, metavar=("KIND", "N"),
                        help="gn N or p2 N with N >= 2")
        sp.add_argument("--file", metavar="PATH", help="presentation file")
        sp.add_argument("--json", action="store_true", help="structured output")
        sp.set_defaults(func=func)
        return sp

    sp = command("nf", _cmd_nf, "normal form of a word")
    sp.add_argument("word")
    sp.add_argument("--trace", action="store_true", help="print the rewrite trace")
    sp.add_argument("--strategy", choices=("leftmost", "random"), default="leftmost")
    sp.add_argument("--seed", type=int, default=None)

    sp = command("eq", _cmd_eq, "decide equality of two words")
    sp.add_argument("left")
    sp.add_argument("right")

    command("rules", _cmd_rules, "list the compiled rewrite rules")

    sp = command("confluence", _cmd_confluence, "critical-pair check or random probe")
    sp.add_argument("--random", action="store_true", help="run the random probe instead")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--max-len", type=int, default=20)

    sp = command("pingpong-certify", _cmd_pingpong_certify, "freeness certificate for subgroups")
    sp.add_argument("--spec", action="append", metavar="LABEL:SUPPORT:GENWORDS",
                    help="subgroup spec; SUPPORT and GENWORDS comma-separated")
    sp.add_argument("--evidence", action="append", metavar="LABEL:KIND:VALUE",
                    help="base-intersection evidence: orbit:WORD, declared:TEXT, probe:MAXLEN")
    sp.add_argument("--lax", action="store_true",
                    help="accept declared support without the syntactic letter check")

    sp = command("pingpong-oracle", _cmd_pingpong_oracle, "brute-force free-product check")
    sp.add_argument("--spec", action="append", metavar="LABEL:SUPPORT:GENWORDS")
    _add_bounds(sp)

    command("braid-verify", _cmd_braid_verify, "verify the braid-layer relations and maps")

    sp = command("braid-phi", _cmd_braid_phi, "apply the outer conjugation map, or push a word")
    sp.add_argument("word")
    sp.add_argument("--k", type=int, default=1, help="power of the map (negative for inverse)")
    sp.add_argument("--push", action="store_true",
                    help="print the semidirect and splitting normal forms instead")

    sp = command("braid-check-free", _cmd_braid_check_free,
                 "freeness certificate for <w_1..w_{n-1}, t>")
    sp.add_argument("--w", action="append", metavar="WORD", help="repeat for each w_i")
    sp.add_argument("--strict", action="store_true",
                    help="require letters of w_i within {y_*} u {x_i}")

    sp = command("danilevich", _cmd_danilevich, "bounded probe that <H, t> = H * <t>")
    sp.add_argument("--h", action="append", metavar="WORD", help="repeat for each H generator")
    _add_bounds(sp)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_source(args))
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (WordSyntaxError, PresentationSyntaxError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as e:
        print(f"error: {e.args[0] if e.args else e}", file=sys.stderr)
        return EXIT_USAGE
    except (StepCapExceeded, XPartCapExceeded) as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())

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

from .braid import (
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
    orbit_intersection_certificate,
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
    parse_word,
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


def _add_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", nargs=2, metavar=("KIND", "N"),
                     help="gn N or p2 N with N >= 2")
    sub.add_argument("--file", metavar="PATH", help="presentation file")
    sub.add_argument("--json", action="store_true", help="structured output")


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


def _base_and_alphabet(src):
    if isinstance(src, SemidirectExtension):
        return src.base, src.alphabet
    return src, src.alphabet


def _require_extension(src) -> SemidirectExtension:
    if not isinstance(src, SemidirectExtension):
        raise CliError("this command needs the braid layer; use --preset p2 N")
    return src


def _parse(text: str, src) -> Word:
    """Parse a word; under a p2 source A{i}_{j} braid names are accepted."""
    if isinstance(src, SemidirectExtension):
        try:
            text = resolve_braid_names(text, src.rank)
        except ValueError as e:
            raise CliError(str(e))
    return parse_word(text, src.alphabet)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _emit(args, text: str, doc: dict) -> None:
    if args.json:
        print(json.dumps({"schema": 1, **doc}, indent=2, sort_keys=False))
    else:
        print(text)


def _cert_doc(cert) -> dict:
    return {
        "verdict": cert.verdict,
        "theorem": cert.theorem,
        "conditions": [
            {"name": c.name, "ok": c.ok, "witness": c.witness}
            for c in cert.conditions
        ],
        "bounds": None,
    }


def _oracle_doc(rep, alphabet) -> dict:
    return {
        "verdict": rep.verdict,
        "checked": rep.checked,
        "witness": format_word(rep.witness, alphabet) if rep.witness is not None else None,
        "witness_factors": list(rep.witness_factors) if rep.witness_factors else None,
        "note": rep.note,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_nf(args) -> int:
    src = _load_source(args)
    p, alphabet = _base_and_alphabet(src)
    system = RuleSystem(p)
    w = _parse(args.word, src)
    if args.trace or args.strategy != "leftmost":
        result, trace = normal_form(w, system, strategy=args.strategy, seed=args.seed)
        steps = len(trace)
    else:
        result, steps = nf_steps(w, system)
    text = trace.render(alphabet) if args.trace else format_word(result, alphabet)
    _emit(args, text, {
        "command": "nf",
        "input": format_word(w, alphabet),
        "normal_form": format_word(result, alphabet),
        "steps": steps,
    })
    return EXIT_PASS


def _cmd_eq(args) -> int:
    src = _load_source(args)
    p, alphabet = _base_and_alphabet(src)
    system = RuleSystem(p)
    u, v = _parse(args.left, src), _parse(args.right, src)
    same = equal(u, v, system)
    _emit(args, "true" if same else "false", {
        "command": "eq",
        "left": format_word(u, alphabet),
        "right": format_word(v, alphabet),
        "equal": same,
    })
    return EXIT_PASS if same else EXIT_FAIL


def _cmd_rules(args) -> int:
    src = _load_source(args)
    p, alphabet = _base_and_alphabet(src)
    rules = compile_rules(p)
    lines = [f"{len(rules)} rules"]
    docs = []
    for r in rules:
        lhs, rhs = format_word(r.lhs, alphabet), format_word(r.rhs, alphabet)
        lines.append(f"  kind {r.kind} #{r.rule_id}: {lhs} -> {rhs}")
        docs.append({"kind": r.kind, "id": r.rule_id, "lhs": lhs, "rhs": rhs})
    _emit(args, "\n".join(lines), {"command": "rules", "count": len(rules), "rules": docs})
    return EXIT_PASS


def _cmd_confluence(args) -> int:
    src = _load_source(args)
    p, alphabet = _base_and_alphabet(src)
    system = RuleSystem(p)
    if args.random:
        rep = random_confluence_probe(system, seed=args.seed or 0,
                                      trials=args.trials, max_len=args.max_len)
        ok = rep.ok
        text = (f"random probe: {rep.trials} trials x {rep.strategies} strategies: "
                + ("all agree, nu decreasing" if ok else f"{len(rep.failures)} failures"))
        doc = {"command": "confluence", "mode": "random-probe", "ok": ok,
               "trials": rep.trials, "strategies": rep.strategies,
               "failures": len(rep.failures)}
    else:
        rep = check_local_confluence(system)
        ok = rep.ok
        text = (f"critical pairs: {rep.pairs_checked} checked: "
                + ("all joinable" if ok else f"{len(rep.failures)} non-joinable"))
        if not ok:
            for cp in rep.failures[:10]:
                text += f"\n  peak {format_word(cp.peak, alphabet)} has non-joinable reducts"
        doc = {"command": "confluence", "mode": "critical-pairs", "ok": ok,
               "pairs_checked": rep.pairs_checked, "failures": len(rep.failures)}
    _emit(args, text, doc)
    return EXIT_PASS if ok else EXIT_FAIL


def _parse_spec(text: str, src, alphabet) -> SubgroupSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"--spec must read LABEL:SUPPORT:GENWORDS, got {text!r}")
    label, support_text, gens_text = (s.strip() for s in parts)
    if not label:
        raise CliError("--spec label must be nonempty")
    support = set()
    for name in filter(None, (s.strip() for s in support_text.split(","))):
        if name not in alphabet:
            raise CliError(f"unknown support letter {name!r} in spec {label!r}")
        support.add(alphabet.gen(name))
    gens = tuple(
        _parse(g, src) for g in filter(None, (s.strip() for s in gens_text.split(",")))
    )
    try:
        return SubgroupSpec(label, gens, frozenset(support))
    except ValueError as e:
        raise CliError(str(e))


def _cmd_pingpong_certify(args) -> int:
    src = _load_source(args)
    p, alphabet = _base_and_alphabet(src)
    system = RuleSystem(p)
    if not args.spec:
        raise CliError("at least one --spec is required")
    specs = [_parse_spec(s, src, alphabet) for s in args.spec]
    by_label = {s.label: s for s in specs}
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
            m = src.phi if isinstance(src, SemidirectExtension) else identity_map(
                p.base_gens + p.stable_gens)
            try:
                evidence[label] = orbit_intersection_certificate(m, _parse(value, src), p)
            except ValueError as e:
                raise CliError(f"orbit evidence unavailable here: {e}")
        elif kind == "probe":
            if not value.isdigit():
                raise CliError(f"probe evidence needs a length bound, got {value!r}")
            evidence[label] = bounded_intersection_probe(by_label[label], system, int(value))
        else:
            raise CliError(f"unknown evidence kind {kind!r} (orbit/declared/probe)")
    cert = free_product_certificate(specs, evidence, system, strict=not args.lax,
                                    alphabet=alphabet)
    _emit(args, cert.render(), {"command": "pingpong-certify", **_cert_doc(cert)})
    return _VERDICT_EXIT[cert.verdict]


def _cmd_pingpong_oracle(args) -> int:
    src = _load_source(args)
    p, alphabet = _base_and_alphabet(src)
    system = RuleSystem(p)
    if not args.spec:
        raise CliError("at least one --spec is required")
    specs = [_parse_spec(s, src, alphabet) for s in args.spec]
    bounds = Bounds(syllables=args.syllables, exp_range=args.exp_range,
                    max_products=args.max_products)
    is_trivial = None
    if isinstance(src, SemidirectExtension):
        is_trivial = lambda w: braid_trivial(src, w)
    rep = free_product_oracle(specs, system, bounds, is_trivial=is_trivial, alphabet=alphabet)
    _emit(args, rep.render(alphabet),
          {"command": "pingpong-oracle", **_oracle_doc(rep, alphabet)})
    return _VERDICT_EXIT[rep.verdict]


def _cmd_braid_verify(args) -> int:
    ext = _require_extension(_load_source(args))
    n = ext.rank
    er = verify_extension(ext)
    rr = verify_braid_relations(n)
    text = er.render() + "\n" + rr.render(ext.alphabet)
    text += f"\noverall: relations {'all trivial' if rr.ok else 'FAIL'}"
    if not er.ok:
        text += " (conjugation maps do not descend to the base quotient; see failures above)"
    doc = {
        "command": "braid-verify",
        "n": n,
        "extension": {
            "ok": er.ok,
            "checks": [{"name": c.name, "ok": c.ok, "witness": c.witness}
                       for c in er.checks],
        },
        "relations": {
            "ok": rr.ok,
            "all_settled_by_push": rr.all_push,
            "entries": [
                {"family": e.family, "i": e.i, "j": e.j,
                 "settled_by": e.settled_by, "trivial": e.trivial,
                 "push_remainder": format_word(e.pushed.g, ext.alphabet),
                 "push_t_exponent": e.pushed.k}
                for e in rr.entries
            ],
        },
        "verdict": PASS if rr.ok else FAIL,
    }
    _emit(args, text, doc)
    return EXIT_PASS if rr.ok else EXIT_FAIL


def _cmd_braid_phi(args) -> int:
    ext = _require_extension(_load_source(args))
    w = _parse(args.word, ext)
    alphabet = ext.alphabet
    if args.push:
        se = semidirect_nf(ext, w)
        sp = split_nf(ext, w)
        text = (f"semidirect: {se.render(alphabet)}\n"
                f"splitting:  {sp.render(alphabet)}\n"
                f"trivial: {'true' if sp.is_identity else 'false'}")
        doc = {"command": "braid-phi", "mode": "push",
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
        "command": "braid-phi", "mode": "power", "k": args.k,
        "input": format_word(w, alphabet), "image": format_word(img, alphabet)})
    return EXIT_PASS


def _cmd_braid_check_free(args) -> int:
    ext = _require_extension(_load_source(args))
    n = ext.rank
    if not args.w:
        raise CliError("at least one --w is required")
    words = [_parse(w, ext) for w in args.w]
    try:
        cert = braid_freeness_check(n, words, strict=args.strict)
    except ValueError as e:
        raise CliError(str(e))
    _emit(args, cert.render(), {"command": "braid-check-free", "n": n, **_cert_doc(cert)})
    return _VERDICT_EXIT[cert.verdict]


def _cmd_danilevich(args) -> int:
    ext = _require_extension(_load_source(args))
    hgens = [_parse(w, ext) for w in (args.h or [])]
    bounds = Bounds(syllables=args.syllables, exp_range=args.exp_range,
                    max_products=args.max_products)
    try:
        rep = free_factor_probe(ext, hgens, bounds)
    except ValueError as e:
        raise CliError(str(e))
    _emit(args, rep.render(ext.alphabet),
          {"command": "danilevich", **_oracle_doc(rep, ext.alphabet)})
    return _VERDICT_EXIT[rep.verdict]


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

    sp = subs.add_parser("nf", help="normal form of a word")
    _add_source(sp)
    sp.add_argument("word")
    sp.add_argument("--trace", action="store_true", help="print the rewrite trace")
    sp.add_argument("--strategy", choices=("leftmost", "random"), default="leftmost")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=_cmd_nf)

    sp = subs.add_parser("eq", help="decide equality of two words")
    _add_source(sp)
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(func=_cmd_eq)

    sp = subs.add_parser("rules", help="list the compiled rewrite rules")
    _add_source(sp)
    sp.set_defaults(func=_cmd_rules)

    sp = subs.add_parser("confluence", help="critical-pair check or random probe")
    _add_source(sp)
    sp.add_argument("--random", action="store_true", help="run the random probe instead")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--max-len", type=int, default=20)
    sp.set_defaults(func=_cmd_confluence)

    sp = subs.add_parser("pingpong-certify", help="freeness certificate for subgroups")
    _add_source(sp)
    sp.add_argument("--spec", action="append", metavar="LABEL:SUPPORT:GENWORDS",
                    help="subgroup spec; SUPPORT and GENWORDS comma-separated")
    sp.add_argument("--evidence", action="append", metavar="LABEL:KIND:VALUE",
                    help="base-intersection evidence: orbit:WORD, declared:TEXT, probe:MAXLEN")
    sp.add_argument("--lax", action="store_true",
                    help="accept declared support without the syntactic letter check")
    sp.set_defaults(func=_cmd_pingpong_certify)

    sp = subs.add_parser("pingpong-oracle", help="brute-force free-product check")
    _add_source(sp)
    sp.add_argument("--spec", action="append", metavar="LABEL:SUPPORT:GENWORDS")
    sp.add_argument("--syllables", type=int, default=6)
    sp.add_argument("--exp-range", type=int, default=2)
    sp.add_argument("--max-products", type=int, default=None)
    sp.set_defaults(func=_cmd_pingpong_oracle)

    sp = subs.add_parser("braid-verify", help="verify the braid-layer relations and maps")
    _add_source(sp)
    sp.set_defaults(func=_cmd_braid_verify)

    sp = subs.add_parser("braid-phi", help="apply the outer conjugation map, or push a word")
    _add_source(sp)
    sp.add_argument("word")
    sp.add_argument("--k", type=int, default=1, help="power of the map (negative for inverse)")
    sp.add_argument("--push", action="store_true",
                    help="print the semidirect and splitting normal forms instead")
    sp.set_defaults(func=_cmd_braid_phi)

    sp = subs.add_parser("braid-check-free", help="freeness certificate for <w_1..w_{n-1}, t>")
    _add_source(sp)
    sp.add_argument("--w", action="append", metavar="WORD", help="repeat for each w_i")
    sp.add_argument("--strict", action="store_true",
                    help="require letters of w_i within {y_*} u {x_i}")
    sp.set_defaults(func=_cmd_braid_check_free)

    sp = subs.add_parser("danilevich", help="bounded probe that <H, t> = H * <t>")
    _add_source(sp)
    sp.add_argument("--h", action="append", metavar="WORD", help="repeat for each H generator")
    sp.add_argument("--syllables", type=int, default=6)
    sp.add_argument("--exp-range", type=int, default=2)
    sp.add_argument("--max-products", type=int, default=None)
    sp.set_defaults(func=_cmd_danilevich)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except WordSyntaxError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except PresentationSyntaxError as e:
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

"""Command-line front end: one binary, subcommands per engine operation.

Exit codes come from pingpong.Verdict: 0 pass/true/certified, 1
fail/false/refuted, 3 inconclusive (also any Inconclusive); 2 is a usage or
parse error.  The library and the handlers raise; main alone turns failures
into messages and exit codes.  All commands take a presentation source
(--preset gn N, --preset p2 N, or --file PATH) and emit text or, with
--json, a document with a schema field.  Each command answers in the one
group its source presents: under p2, eq, pingpong-oracle and the braid
commands decide in the braid layer, and nf, rules, confluence and
pingpong-certify, which speak of an HNN presentation, refuse (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .braid import (
    BraidVerification,
    Group,
    braid_freeness_check,
    free_factor_probe,
    phi_power,
    semidirect_nf,
    split_nf,
    verify_braid_relations,
    verify_extension,
)
from .pingpong import (
    Bounds,
    SubgroupSpec,
    Verdict,
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
    check_local_confluence,
    nf_steps,
    normal_form,
    random_confluence_probe,
)
from .words import (
    Inconclusive,
    WordSyntaxError,
    format_word,
    is_base,
)

EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# Source loading and word parsing
# ---------------------------------------------------------------------------


def _load_source(args) -> HnnPresentation | SemidirectExtension:
    if args.preset and args.file:
        raise ValueError("--preset and --file are mutually exclusive")
    if args.preset:
        kind, n_text = args.preset
        if kind not in ("gn", "p2") or not n_text.isdigit() or int(n_text) < 2:
            raise ValueError("--preset expects gn N or p2 N with N >= 2")
        return gn(int(n_text)) if kind == "gn" else p2(int(n_text))
    if args.file:
        try:
            with open(args.file) as fh:
                return parse_presentation(fh.read())
        except OSError as e:
            raise ValueError(str(e))
    raise ValueError("a presentation source is required (--preset or --file)")


def _require_extension(group: Group) -> SemidirectExtension:
    if group.braid is None:
        raise ValueError("this command needs the braid layer; use --preset p2 N")
    return group.braid


def _require_hnn(group: Group) -> HnnPresentation:
    if group.braid is not None:
        raise ValueError("this command needs an HNN presentation, not the braid layer; "
                         "use --preset gn N")
    return group.source


def _at_least(low: int, **options) -> None:
    """Reject an integer option below `low` as a usage error."""
    for name, value in options.items():
        if value is not None and value < low:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")


def _bounds(args) -> Bounds:
    _at_least(1, syllables=args.syllables, exp_range=args.exp_range)
    _at_least(0, max_products=args.max_products)
    return Bounds(args.syllables, args.exp_range, args.max_products)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _emit(args, text: str | None, doc: dict) -> None:
    try:
        if args.json:
            print(json.dumps({"schema": 1, "command": args.command, **doc}, indent=2, sort_keys=False))
        else:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: the rest of the output, and the flush at
        # exit, go to devnull, and the command keeps its exit code
        sys.stdout = open(os.devnull, "w")


def _report(args, rep, **fields) -> int:
    """Print a report as its text or its JSON document; exit by its verdict."""
    _emit(args, rep.render(), {**fields, **rep.doc()})
    return rep.verdict.exit


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

# name -> (handler, help line, the arguments of its own): the one list of
# subcommands, in the order --help shows them
_COMMANDS: dict[str, tuple] = {}


def _arg(*names: str, **options) -> tuple:
    """One add_argument call, stored until a subparser is built."""
    return names, options


def _command(name: str, summary: str, *arguments: tuple):
    """Register the decorated handler as subcommand `name`."""
    def register(func):
        _COMMANDS[name] = (func, summary, arguments)
        return func
    return register


_BOUNDS = (
    _arg("--syllables", type=int, default=Bounds.syllables),
    _arg("--exp-range", type=int, default=Bounds.exp_range),
    _arg("--max-products", type=int),
)


@_command("nf", "normal form of a word",
          _arg("word"),
          _arg("--trace", action="store_true", help="print the rewrite trace"),
          _arg("--strategy", choices=("leftmost", "random"), default="leftmost"),
          _arg("--seed", type=int))
def _cmd_nf(args, group) -> int:
    p, system = _require_hnn(group), group.system
    w = group.parse(args.word)
    # a leftmost trace is built only for the text that prints it
    if args.strategy != "leftmost" or (args.trace and not args.json):
        result, trace = normal_form(w, system, strategy=args.strategy, seed=args.seed)
        steps = len(trace)
    else:
        result, steps = nf_steps(w, system)
    text = None if args.json else (
        trace.render() if args.trace else format_word(result, p.alphabet))
    _emit(args, text, {
        "input": format_word(w, p.alphabet),
        "normal_form": format_word(result, p.alphabet),
        "steps": steps,
    })
    return Verdict.PASS.exit


@_command("eq", "decide equality of two words", _arg("left"), _arg("right"))
def _cmd_eq(args, group) -> int:
    u, v = group.parse(args.left), group.parse(args.right)
    same = group.equal(u, v)
    _emit(args, "true" if same else "false", {
        "left": format_word(u, group.alphabet),
        "right": format_word(v, group.alphabet),
        "equal": same,
    })
    return (Verdict.PASS if same else Verdict.FAIL).exit


@_command("rules", "list the compiled rewrite rules")
def _cmd_rules(args, group) -> int:
    p = _require_hnn(group)
    rules = compile_rules(p)
    lines = [f"{len(rules)} rules"]
    docs = []
    for r in rules:
        lhs, rhs = format_word(r.lhs, p.alphabet), format_word(r.rhs, p.alphabet)
        lines.append(f"  kind {r.kind} #{r.rule_id}: {lhs} -> {rhs}")
        docs.append({"kind": r.kind, "id": r.rule_id, "lhs": lhs, "rhs": rhs})
    _emit(args, "\n".join(lines), {"count": len(rules), "rules": docs})
    return Verdict.PASS.exit


@_command("confluence", "critical-pair check or random probe",
          _arg("--random", action="store_true", help="run the random probe instead"),
          _arg("--seed", type=int, default=0),
          _arg("--trials", type=int, default=200),
          _arg("--max-len", type=int, default=20))
def _cmd_confluence(args, group) -> int:
    p, system = _require_hnn(group), group.system
    _at_least(1, trials=args.trials, max_len=args.max_len)
    pairs = check_local_confluence(system)
    pairs_text = (f"critical pairs: {pairs.pairs_checked} checked: "
                  + ("all joinable" if pairs.ok else f"{len(pairs.failures)} non-joinable"))
    if args.random:
        rep = random_confluence_probe(system, seed=args.seed,
                                      trials=args.trials, max_len=args.max_len)
        # agreement on a sample passes only a system whose pairs all join
        ok = rep.ok and pairs.ok
        text = (f"random probe: {rep.trials} trials x {rep.strategies} strategies: "
                + ("all agree, nu decreasing" if rep.ok else f"{len(rep.failures)} failures"))
        doc = {"mode": "random-probe", "ok": ok,
               "trials": rep.trials, "strategies": rep.strategies,
               "failures": len(rep.failures)}
        if not pairs.ok:
            text += "\n" + pairs_text
            doc["non_joinable"] = len(pairs.failures)
    else:
        ok = pairs.ok
        text = pairs_text
        for cp in pairs.failures[:10]:
            text += f"\n  peak {format_word(cp.peak, p.alphabet)} has non-joinable reducts"
        doc = {"mode": "critical-pairs", "ok": ok,
               "pairs_checked": pairs.pairs_checked, "failures": len(pairs.failures)}
    _emit(args, text, doc)
    return (Verdict.PASS if ok else Verdict.FAIL).exit


def _parse_spec(text: str, group) -> SubgroupSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--spec must read LABEL:SUPPORT:GENWORDS, got {text!r}")
    label, support_text, gens_text = (s.strip() for s in parts)
    if not label:
        raise ValueError("--spec label must be nonempty")
    support = set()
    for name in filter(None, (s.strip() for s in support_text.split(","))):
        if name not in group.alphabet:
            raise ValueError(f"unknown support letter {name!r} in spec {label!r}")
        g = group.alphabet.gen(name)
        if is_base(g):
            raise ValueError(f"support must consist of stable letters, got {name}")
        support.add(g)
    gens = tuple(group.parse(g) for g in filter(None, (s.strip() for s in gens_text.split(","))))
    return SubgroupSpec(label, gens, frozenset(support))


def _specs(args, group) -> dict[str, SubgroupSpec]:
    """The --spec options by label; labels must be distinct."""
    if not args.spec:
        raise ValueError("at least one --spec is required")
    specs: dict[str, SubgroupSpec] = {}
    for text in args.spec:
        spec = _parse_spec(text, group)
        if spec.label in specs:
            raise ValueError(f"--spec label {spec.label!r} is repeated")
        specs[spec.label] = spec
    return specs


@_command("pingpong-certify", "freeness certificate for subgroups",
          _arg("--spec", action="append", metavar="LABEL:SUPPORT:GENWORDS",
               help="subgroup spec; SUPPORT and GENWORDS comma-separated"),
          _arg("--evidence", action="append", metavar="LABEL:KIND:VALUE",
               help="base-intersection evidence: orbit:WORD, declared:TEXT, probe:MAXLEN"))
def _cmd_pingpong_certify(args, group) -> int:
    p = _require_hnn(group)
    by_label = _specs(args, group)
    evidence = {}
    for ev in args.evidence or []:
        parts = ev.split(":", 2)
        if len(parts) != 3:
            raise ValueError(f"--evidence must read LABEL:KIND:VALUE, got {ev!r}")
        label, kind, value = (s.strip() for s in parts)
        if label not in by_label:
            raise ValueError(f"evidence label {label!r} matches no --spec")
        if label in evidence:
            raise ValueError(f"--evidence label {label!r} is repeated")
        if kind == "declared":
            evidence[label] = value
        elif kind == "orbit":
            w = group.parse(value)
            try:
                evidence[label] = orbit_evidence(by_label[label], w, p)
            except ValueError as e:
                raise ValueError(f"orbit evidence unavailable here: {e}")
        elif kind == "probe":
            if not value.isdigit() or int(value) < 1:
                raise ValueError(f"probe evidence needs a length bound, got {value!r}")
            evidence[label] = bounded_intersection_probe(by_label[label], group.system, int(value))
        else:
            raise ValueError(f"unknown evidence kind {kind!r} (orbit/declared/probe)")
    cert = free_product_certificate(list(by_label.values()), evidence, p)
    return _report(args, cert)


@_command("pingpong-oracle", "brute-force free-product check",
          _arg("--spec", action="append", metavar="LABEL:SUPPORT:GENWORDS"), *_BOUNDS)
def _cmd_pingpong_oracle(args, group) -> int:
    specs = list(_specs(args, group).values())
    return _report(args, free_product_oracle(specs, group.system, _bounds(args), group.is_trivial))


@_command("braid-verify", "verify the braid-layer relations and maps")
def _cmd_braid_verify(args, group) -> int:
    ext = _require_extension(group)
    rep = BraidVerification(verify_extension(ext), verify_braid_relations(ext.rank))
    return _report(args, rep)


@_command("braid-phi", "apply the outer conjugation map, or push a word",
          _arg("word"),
          _arg("--k", type=int, default=1, help="power of the map (negative for inverse)"),
          _arg("--push", action="store_true",
               help="print the semidirect and splitting normal forms instead"))
def _cmd_braid_phi(args, group) -> int:
    ext = _require_extension(group)
    w = group.parse(args.word)
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
        return Verdict.PASS.exit
    img = phi_power(ext, w, args.k)
    _emit(args, format_word(img, alphabet), {
        "mode": "power", "k": args.k,
        "input": format_word(w, alphabet), "image": format_word(img, alphabet)})
    return Verdict.PASS.exit


@_command("braid-check-free", "freeness certificate for <w_1..w_{n-1}, t>",
          _arg("--w", action="append", metavar="WORD", help="repeat for each w_i"),
          _arg("--strict", action="store_true",
               help="require letters of w_i within {y_*} u {x_i}"))
def _cmd_braid_check_free(args, group) -> int:
    ext = _require_extension(group)
    n = ext.rank
    if not args.w:
        raise ValueError("at least one --w is required")
    words = [group.parse(w) for w in args.w]
    cert = braid_freeness_check(n, words, strict=args.strict)
    return _report(args, cert, n=n)


@_command("danilevich", "bounded probe that <H, t> = H * <t>",
          _arg("--h", action="append", metavar="WORD", help="repeat for each H generator"),
          *_BOUNDS)
def _cmd_danilevich(args, group) -> int:
    ext = _require_extension(group)
    hgens = [group.parse(w) for w in (args.h or [])]
    return _report(args, free_factor_probe(ext, hgens, _bounds(args)))


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _parser(names) -> argparse.ArgumentParser:
    """The hnnfree parser with the subcommands in names."""
    parser = argparse.ArgumentParser(
        prog="hnnfree",
        description="Normal forms and freeness certificates for multiple HNN "
                    "extensions of free groups, with a pure-braid layer.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in names:
        func, summary, arguments = _COMMANDS[name]
        sp = subs.add_parser(name, help=summary)
        sp.add_argument("--preset", nargs=2, metavar=("KIND", "N"),
                        help="gn N or p2 N with N >= 2")
        sp.add_argument("--file", metavar="PATH", help="presentation file")
        sp.add_argument("--json", action="store_true", help="structured output")
        for arg_names, options in arguments:
            sp.add_argument(*arg_names, **options)
        sp.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _parser(_COMMANDS)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # building every subparser costs several parses, so a command that is
    # named first gets only its own; anything left over goes to the full
    # parser, whose usage line lists every command
    named = argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS
    args, rest = _parser(named).parse_known_args(argv)
    if rest:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args, Group(_load_source(args)))
    except (WordSyntaxError, PresentationSyntaxError) as e:  # ValueErrors: first
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except Inconclusive as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return Verdict.INCONCLUSIVE.exit


if __name__ == "__main__":
    sys.exit(main())

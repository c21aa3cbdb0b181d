"""Per-layer tracing from outside the package.

The package imports names directly (`from .rewrite import nf`), so a public
function is wrapped in every hnnfree module that holds it, and a method in
its class.  Three kinds of wrapper:

- span: timed, and recorded as a span (name, start, end, parent, op id);
- timer: timed but not recorded, for functions called per product;
- count: counted, not timed, for the innermost loops such as match_at.

A wrapper only records while an op is running, so input generation and
answer checks stay out of the figures.  Self time is a call's duration
minus the time of the timed calls nested in it.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

# (layer metric prefix, defining module, attribute, wrapper kind)
TARGETS = [
    ("words.parse_word", "hnnfree.words", "parse_word", "span"),
    ("words.format_word", "hnnfree.words", "format_word", "span"),
    ("words.free_reduce", "hnnfree.words", "free_reduce", "timer"),
    ("words.exp_sum", "hnnfree.words", "exp_sum", "timer"),
    ("words.map_apply", "hnnfree.words", "GeneratorMap.apply", "timer"),
    ("presentation.compile", "hnnfree.presentation", "compile_rules", "span"),
    ("rewrite.nf", "hnnfree.rewrite", "nf", "span"),
    ("rewrite.nf", "hnnfree.rewrite", "nf_ints", "span"),
    ("rewrite.normal_form", "hnnfree.rewrite", "normal_form", "span"),
    ("rewrite.confluence", "hnnfree.rewrite", "check_local_confluence", "span"),
    ("rewrite.confluence", "hnnfree.rewrite", "random_confluence_probe", "span"),
    ("rewrite.match_at", "hnnfree.rewrite", "RuleSystem.match_at", "count"),
    ("pingpong.oracle", "hnnfree.pingpong", "free_product_oracle", "span"),
    ("pingpong.oracle", "hnnfree.pingpong", "bounded_intersection_probe", "span"),
    ("braid.split", "hnnfree.braid", "BraidSplitting.nf", "span"),
    ("braid.act", "hnnfree.braid", "BraidSplitting.act", "count"),
    ("braid.semidirect_nf", "hnnfree.braid", "semidirect_nf", "span"),
    ("braid.verify", "hnnfree.braid", "verify_extension", "span"),
    ("braid.verify", "hnnfree.braid", "verify_braid_relations", "span"),
    ("braid.free_factor_probe", "hnnfree.braid", "free_factor_probe", "span"),
    ("cli.main", "hnnfree.cli", "main", "span"),
]

ORACLE_SPANS = ("pingpong.oracle", "braid.free_factor_probe")

# per_layer metrics: name -> (unit, better); every traced run reports all
PER_LAYER = {
    "rewrite.nf.calls": ("count", "lower"),
    "rewrite.nf.self_s": ("s", "lower"),
    "rewrite.match_at.calls": ("count", "lower"),
    "rewrite.steps": ("count", "lower"),
    "rewrite.match_hit_ratio": ("ratio", "higher"),
    "rewrite.normal_form.self_s": ("s", "lower"),
    "rewrite.confluence.self_s": ("s", "lower"),
    "rewrite.critical_pairs": ("count", "lower"),
    "presentation.compile.calls": ("count", "lower"),
    "presentation.compile.self_s": ("s", "lower"),
    "presentation.rules": ("count", "lower"),
    "words.parse_word.self_s": ("s", "lower"),
    "words.format_word.self_s": ("s", "lower"),
    "words.free_reduce.calls": ("count", "lower"),
    "words.free_reduce.self_s": ("s", "lower"),
    "words.exp_sum.calls": ("count", "lower"),
    "words.exp_sum.self_s": ("s", "lower"),
    "words.map_apply.self_s": ("s", "lower"),
    "pingpong.oracle.self_s": ("s", "lower"),
    "pingpong.products": ("count", "lower"),
    "pingpong.is_trivial.calls": ("count", "lower"),
    "pingpong.screen_ratio": ("ratio", "lower"),
    "braid.split.calls": ("count", "lower"),
    "braid.split.self_s": ("s", "lower"),
    "braid.x_part_peak": ("count", "lower"),
    "braid.x_part_letters": ("count", "lower"),
    "braid.semidirect_nf.self_s": ("s", "lower"),
    "braid.verify.self_s": ("s", "lower"),
    "braid.free_factor_probe.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.commands": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.base_cycle_s": ("s", "lower"),
}


def _on_result(tr: "Tracer", name: str, parent: str, result) -> None:
    c = tr.counts
    if name == "presentation.compile":
        c["presentation.rules"] += len(result)
    elif name == "rewrite.confluence":
        c["rewrite.critical_pairs"] += getattr(result, "pairs_checked", 0)
    elif name in ORACLE_SPANS:
        c["pingpong.products"] += result.checked
    elif name == "braid.split":
        n = len(result.x_part)
        c["braid.x_part_letters"] += n
        tr.peaks["braid.x_part_peak"] = max(tr.peaks["braid.x_part_peak"], n)
    elif name == "cli.main":
        c["cli.commands"] += 1
    if parent in ORACLE_SPANS and name in ("rewrite.nf", "braid.split"):
        c["pingpong.is_trivial.calls"] += 1


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[list] = []  # frames: [child_ns, span_id, name]
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.op_id = 0
        self._next_id = 0
        self._patched: list[tuple] = []  # (owner, key, original, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn, record: bool):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            parent = tr.stack[-1]
            tr._next_id += 1
            frame = [0, tr._next_id, name]
            tr.stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tr.stack.pop()
                parent[0] += t1 - t0
                tr.self_ns[name] += t1 - t0 - frame[0]
                if parent[2] != name:
                    tr.calls[name] += 1
                if record:
                    tr.spans.append((frame[1], parent[1], tr.op_id, name, t0, t1))
            _on_result(tr, name, parent[2], result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tr = self

        if name == "rewrite.match_at":
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tr.active:
                    tr.counts["rewrite.match_at.calls"] += 1
                    if result is not None:
                        tr.counts["rewrite.steps"] += 1
                return result
        else:  # braid.act: the intermediate x/t word of the splitting
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tr.active and len(result) > tr.peaks["braid.x_part_peak"]:
                    tr.peaks["braid.x_part_peak"] = len(result)
                return result

        return wrapper

    def install(self) -> None:
        """Wrap every target where its callers look it up."""
        if not self._patched:
            self._patched = list(self._plan())
        for owner, key, _, wrapped in self._patched:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig, _ in self._patched:
            setattr(owner, key, orig)

    def _plan(self):
        for name, modname, attr, kind in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:  # not imported by this workload
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
            else:
                orig = getattr(mod, attr)
            if kind == "count":
                wrapped = self._counted(name, orig)
            else:
                wrapped = self._timed(name, orig, record=kind == "span")
            if "." in attr:
                yield owner, meth, orig, wrapped
                continue
            for mname, m in list(sys.modules.items()):
                if mname == "hnnfree" or mname.startswith("hnnfree."):
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            yield m, key, orig, wrapped

    # -- ops ---------------------------------------------------------------

    def begin_op(self) -> list:
        self.op_id += 1
        self._next_id += 1
        frame = [0, self._next_id, "op"]
        self.stack = [frame]
        self.active = True
        return frame

    def end_op(self, frame: list, name: str, t0: int, t1: int) -> None:
        self.active = False
        self.spans.append((frame[1], None, self.op_id, "op:" + name, t0, t1))

    def snapshot(self) -> dict:
        snap = {f"{k}.calls": v for k, v in self.calls.items()}
        snap.update({f"{k}.self_ns": v for k, v in self.self_ns.items()})
        snap.update(self.counts)
        return snap

    def reset_peaks(self) -> dict:
        peaks = dict(self.peaks)
        self.peaks.clear()
        return peaks

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")


def exact_counts(delta: dict, peaks: dict) -> dict:
    """The per-cycle figures that must repeat exactly for the same code."""
    out = {k: v for k, v in delta.items() if not k.endswith(".self_ns")}
    out.update(peaks)
    return out


def layer_metrics(cycles: list[tuple[dict, dict]], scales: list[float],
                  base_cycle_s: float, traced_cycle_s: float) -> dict:
    """Per-cycle layer figures: counts from one cycle (they repeat exactly),
    self times scaled like the end-to-end times and averaged over the
    traced cycles."""
    delta, peaks = cycles[-1]
    n = len(cycles)

    def self_s(prefix):
        return sum(d.get(f"{prefix}.self_ns", 0) * s for (d, _), s in zip(cycles, scales)) / n / 1e9

    def count(key):
        return delta.get(key, 0)

    m = {
        "rewrite.nf.calls": count("rewrite.nf.calls"),
        "rewrite.nf.self_s": self_s("rewrite.nf"),
        "rewrite.match_at.calls": count("rewrite.match_at.calls"),
        "rewrite.steps": count("rewrite.steps"),
        "rewrite.normal_form.self_s": self_s("rewrite.normal_form"),
        "rewrite.confluence.self_s": self_s("rewrite.confluence"),
        "rewrite.critical_pairs": count("rewrite.critical_pairs"),
        "presentation.compile.calls": count("presentation.compile.calls"),
        "presentation.compile.self_s": self_s("presentation.compile"),
        "presentation.rules": count("presentation.rules"),
        "words.parse_word.self_s": self_s("words.parse_word"),
        "words.format_word.self_s": self_s("words.format_word"),
        "words.free_reduce.calls": count("words.free_reduce.calls"),
        "words.free_reduce.self_s": self_s("words.free_reduce"),
        "words.exp_sum.calls": count("words.exp_sum.calls"),
        "words.exp_sum.self_s": self_s("words.exp_sum"),
        "words.map_apply.self_s": self_s("words.map_apply"),
        "pingpong.oracle.self_s": self_s("pingpong.oracle"),
        "pingpong.products": count("pingpong.products"),
        "pingpong.is_trivial.calls": count("pingpong.is_trivial.calls"),
        "braid.split.calls": count("braid.split.calls"),
        "braid.split.self_s": self_s("braid.split"),
        "braid.x_part_peak": peaks.get("braid.x_part_peak", 0),
        "braid.x_part_letters": count("braid.x_part_letters"),
        "braid.semidirect_nf.self_s": self_s("braid.semidirect_nf"),
        "braid.verify.self_s": self_s("braid.verify"),
        "braid.free_factor_probe.self_s": self_s("braid.free_factor_probe"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.commands": count("cli.commands"),
        "trace.overhead_ratio": traced_cycle_s / base_cycle_s - 1,
        "trace.base_cycle_s": base_cycle_s,
    }
    calls = m["rewrite.match_at.calls"]
    m["rewrite.match_hit_ratio"] = m["rewrite.steps"] / calls if calls else 0.0
    products = m["pingpong.products"]
    m["pingpong.screen_ratio"] = m["pingpong.is_trivial.calls"] / products if products else 0.0
    return {k: m[k] for k in PER_LAYER}

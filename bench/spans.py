"""Spans around the public functions of each gbdepth layer, installed from
outside the program, and the per-layer metrics derived from them.

A wrapper replaces every module binding of a wrapped function, because
modules import each other's functions by name: `family` and `cli` hold
their own references to `buchberger` and `invariant_report`, so patching
`gbdepth.groebner` alone would miss their calls.

`rings` and `orders` are arithmetic called from every layer and are not
wrapped; their time counts as the self time of whichever layer calls them.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time

MODULES = ("cli", "errors", "family", "groebner", "invariants", "linalg",
           "orders", "parsing", "rings", "taylor")


def _rank_entries(args, kwargs, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows and rows[0] else 0


# (layer, module, function, group, measure). A group collects the spans a
# metric is made from; measure(args, kwargs, result) gives a count recorded
# with the span. format_mono lives in rings but is the monomial printer
# that `parsing` re-exports and `cli` imports from there.
WRAPPED = (
    ("cli", "cli", "main", "cli", None),
    ("parsing", "parsing", "parse_polynomial", "parse", None),
    ("parsing", "parsing", "parse_ideal_text", "parse", None),
    ("parsing", "parsing", "parse_inline_ideal", "parse", None),
    ("parsing", "parsing", "parse_monomial_list", "parse", None),
    ("parsing", "parsing", "parse_order", "parse", None),
    ("parsing", "parsing", "parse_lattice_text", "parse", None),
    ("parsing", "parsing", "format_order", "format", None),
    ("parsing", "parsing", "format_polynomial", "format", None),
    ("parsing", "parsing", "format_ideal", "format", None),
    ("parsing", "rings", "format_mono", "format", None),
    ("family", "family", "build_family", "family", None),
    ("family", "family", "claimed_basis", "family", None),
    ("family", "family", "expected_initial", "family", None),
    ("family", "family", "verify_one", "family", None),
    ("family", "family", "verify_depth_range", "family", None),
    ("family", "family", "join_meet_ideal", "family", None),
    ("family", "family", "explore_orders", "explore",
     lambda a, k, res: (res.samples, len(res.records))),
    ("groebner", "groebner", "buchberger", "buchberger",
     lambda a, k, res: len(res)),
    ("groebner", "groebner", "verify_gb", "verify_gb", None),
    ("groebner", "groebner", "normal_form", "normal_form", None),
    ("groebner", "groebner", "s_polynomial", "s_polynomial", None),
    ("groebner", "groebner", "initial_ideal", "groebner", None),
    ("groebner", "groebner", "ideal_member", "groebner", None),
    ("invariants", "invariants", "invariant_report", "report", None),
    ("invariants", "invariants", "betti_table", "betti", None),
    ("invariants", "invariants", "support_components", "components",
     lambda a, k, res: len(res)),
    ("invariants", "invariants", "kunneth_convolution", "kunneth",
     lambda a, k, res: len(res.entries)),
    ("invariants", "invariants", "hilbert_numerator", "hilbert", None),
    ("invariants", "invariants", "krull_dimension", "krull", None),
    ("invariants", "invariants", "lcm_lattice", "lcm_lattice",
     lambda a, k, res: len(res)),
    ("invariants", "invariants", "upper_koszul_complex", "koszul",
     lambda a, k, res: len(res.faces)),
    ("invariants", "invariants", "reduced_homology_dims", "homology",
     lambda a, k, res: int(not any(res))),
    ("invariants", "invariants", "h_polynomial", "invariants", None),
    ("invariants", "invariants", "reg_via_h_polynomial", "invariants", None),
    ("linalg", "linalg", "matrix_rank", "rank", _rank_entries),
)

# Every per-layer metric, in the order they are reported, with its unit.
METRICS = (
    ("cli.self_s", "s"),
    ("parsing.parse_s", "s"),
    ("parsing.format_s", "s"),
    ("family.self_s", "s"),
    ("family.samples", "count"),
    ("family.distinct_initials", "count"),
    ("family.distinct_per_sample", "ratio"),
    ("groebner.buchberger_s", "s"),
    ("groebner.buchberger_self_s", "s"),
    ("groebner.buchberger_calls", "count"),
    ("groebner.spolys", "count"),
    ("groebner.basis_elements", "count"),
    ("groebner.basis_per_spoly", "ratio"),
    ("groebner.verify_gb_s", "s"),
    ("groebner.spolys_check", "count"),
    ("groebner.normal_form_s", "s"),
    ("groebner.normal_forms", "count"),
    ("invariants.report_s", "s"),
    ("invariants.betti_s", "s"),
    ("invariants.kunneth_s", "s"),
    ("invariants.kunneth_entries", "count"),
    ("invariants.components", "count"),
    ("invariants.hilbert_s", "s"),
    ("invariants.krull_s", "s"),
    ("invariants.lcm_lattice_s", "s"),
    ("invariants.lattice_size", "count"),
    ("invariants.koszul_s", "s"),
    ("invariants.koszul_complexes", "count"),
    ("invariants.koszul_faces", "count"),
    ("invariants.koszul_acyclic_share", "ratio"),
    ("invariants.homology_self_s", "s"),
    ("linalg.rank_s", "s"),
    ("linalg.rank_calls", "count"),
    ("linalg.rank_entries", "count"),
    ("trace.overhead_s", "s"),
)
UNITS = dict(METRICS)

# span fields
NAME, GROUP, TOP, START, END, PARENT, VALUE = range(7)


class Tracer:
    """Records one span per call of a wrapped function: its name, group,
    whether it is the outermost span of its group, start, end, the index
    of the enclosing span, and the measured count. Spans stay in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = {}  # group -> number of open spans of that group
        self._saved = []  # (module, attribute, original)

    def _wrap(self, name, group, measure, fn):
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            depth = open_.get(group, 0)
            span = [name, group, depth == 0, 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            open_[group] = depth + 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_[group] = depth
                stack.pop()
            if measure is not None:
                span[VALUE] = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace every binding of every wrapped function in the gbdepth
        package and its modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("gbdepth")]
        modules += [importlib.import_module(f"gbdepth.{m}") for m in MODULES]
        for layer, home, func, group, measure in WRAPPED:
            fn = getattr(importlib.import_module(f"gbdepth.{home}"), func)
            wrapper = self._wrap(f"{layer}.{func}", group, measure, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one round's spans (without trace.overhead_s).

    A group's time is the summed duration of its outermost spans, so a
    recursive call is not counted twice. A self time is a span's duration
    minus the durations of its direct child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    time_in = {}
    self_in = {}
    calls = {}
    value = {}
    for i, s in enumerate(spans):
        group = s[GROUP]
        dur = s[END] - s[START]
        if s[TOP]:
            time_in[group] = time_in.get(group, 0.0) + dur
        self_in[group] = self_in.get(group, 0.0) + dur - child[i]
        calls[group] = calls.get(group, 0) + 1
        if s[VALUE] is not None and group != "explore":
            value[group] = value.get(group, 0) + s[VALUE]
    layer_self = {}
    for s, c in zip(spans, child):
        layer = s[NAME].split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s[END] - s[START] - c
    spolys = spolys_check = 0
    for s in spans:
        if s[GROUP] != "s_polynomial":
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][GROUP] not in ("buchberger", "verify_gb"):
            p = spans[p][PARENT]
        if p >= 0 and spans[p][GROUP] == "verify_gb":
            spolys_check += 1
        else:
            spolys += 1
    samples = sum(s[VALUE][0] for s in spans if s[GROUP] == "explore")
    distinct = sum(s[VALUE][1] for s in spans if s[GROUP] == "explore")
    basis = value.get("buchberger", 0)
    complexes = calls.get("homology", 0)
    t = time_in.get
    return {
        "cli.self_s": layer_self.get("cli", 0.0),
        "parsing.parse_s": t("parse", 0.0),
        "parsing.format_s": t("format", 0.0),
        "family.self_s": layer_self.get("family", 0.0),
        "family.samples": samples,
        "family.distinct_initials": distinct,
        "family.distinct_per_sample": _ratio(distinct, samples),
        "groebner.buchberger_s": t("buchberger", 0.0),
        "groebner.buchberger_self_s": self_in.get("buchberger", 0.0),
        "groebner.buchberger_calls": calls.get("buchberger", 0),
        "groebner.spolys": spolys,
        "groebner.basis_elements": basis,
        "groebner.basis_per_spoly": _ratio(basis, spolys),
        "groebner.verify_gb_s": t("verify_gb", 0.0),
        "groebner.spolys_check": spolys_check,
        "groebner.normal_form_s": t("normal_form", 0.0),
        "groebner.normal_forms": calls.get("normal_form", 0),
        "invariants.report_s": t("report", 0.0),
        "invariants.betti_s": t("betti", 0.0),
        "invariants.kunneth_s": t("kunneth", 0.0),
        "invariants.kunneth_entries": value.get("kunneth", 0),
        "invariants.components": value.get("components", 0),
        "invariants.hilbert_s": t("hilbert", 0.0),
        "invariants.krull_s": t("krull", 0.0),
        "invariants.lcm_lattice_s": t("lcm_lattice", 0.0),
        "invariants.lattice_size": value.get("lcm_lattice", 0),
        "invariants.koszul_s": t("koszul", 0.0),
        "invariants.koszul_complexes": calls.get("koszul", 0),
        "invariants.koszul_faces": value.get("koszul", 0),
        "invariants.koszul_acyclic_share": _ratio(value.get("homology", 0), complexes),
        "invariants.homology_self_s": self_in.get("homology", 0.0),
        "linalg.rank_s": t("rank", 0.0),
        "linalg.rank_calls": calls.get("rank", 0),
        "linalg.rank_entries": value.get("rank", 0),
    }


def median_metrics(rounds) -> dict:
    """Median of each metric over the traced rounds; counts are the same in
    every round of a deterministic workload, so their median is that count."""
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


def write_spans(spans, path) -> None:
    """One JSON array per line: name, start, end, parent index, count."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], s[VALUE]]))
            fh.write("\n")

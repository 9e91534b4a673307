"""Command line interface.

Subcommands: gb, initial, invariants, verify, explore, hibi. Exit codes:
0 success (for verify: all checks passed), 1 verification failed, 2 bad
input (parse/order/lattice errors, missing files), 3 budget exceeded,
4 internal invariant violation or internal error.

Structured output (--format structured) is a single JSON object with
sorted keys and deterministic list orders, so identical invocations are
byte-identical. The schema is documented in the README.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (BudgetExceededError, GBDepthError, InternalInvariantError,
                     LatticeError, OrderError, ParseError)
from .family import (DistributiveLattice, build_family, explore_orders,
                     join_meet_ideal, verify_depth_range, verify_one)
from .groebner import DEFAULT_PAIR_BUDGET, buchberger, initial_ideal
from .invariants import (DEFAULT_LATTICE_BUDGET, invariant_report,
                         poly_format)
from .orders import LexOrder, WeightOrder, block_weight_order
from .parsing import (format_mono, format_order, format_polynomial,
                      parse_ideal_text, parse_inline_ideal,
                      parse_lattice_text, parse_monomial_list, parse_order)
from .rings import MonomialIdeal

PAIR_BUDGET_ENV = "GBDEPTH_BUDGET_PAIRS"
LATTICE_BUDGET_ENV = "GBDEPTH_BUDGET_LATTICE"


class InputError(GBDepthError):
    """Bad command-line usage that argparse cannot express."""


def _env_int(name, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"environment variable {name} must be an integer, got {raw!r}")


def _budgets(args):
    pairs = args.budget_pairs if args.budget_pairs is not None \
        else _env_int(PAIR_BUDGET_ENV, DEFAULT_PAIR_BUDGET)
    lattice = args.budget_lattice if args.budget_lattice is not None \
        else _env_int(LATTICE_BUDGET_ENV, DEFAULT_LATTICE_BUDGET)
    if pairs < 1 or lattice < 1:
        raise InputError("budgets must be positive")
    return pairs, lattice


def _read_file_or_none(value, kind):
    """Contents of the file an --ideal value names, or None for inline text;
    a value that looks like a path but names no file is an error."""
    path = Path(value)
    if path.is_file():
        return path.read_text()
    if value.endswith((".ideal", ".lattice", ".txt")) or os.sep in value:
        raise InputError(f"{kind} file not found: {value}")
    return None


def _load_ideal(args):
    """Resolve --d (family instance) or --ideal (file path, else inline
    text with ';' separators, which needs --n)."""
    if getattr(args, "d", None) is not None:
        return build_family(args.d).ideal
    if getattr(args, "ideal", None) is None:
        raise InputError("need --d or --ideal")
    text = _read_file_or_none(args.ideal, "ideal")
    if text is not None:
        return parse_ideal_text(text)
    if getattr(args, "n", None) is None:
        raise InputError("inline --ideal text needs --n")
    return parse_inline_ideal(args.ideal, args.n)


def _resolve_order(args, n):
    if getattr(args, "order", None) is not None:
        return parse_order(args.order, n)
    if getattr(args, "d", None) is not None:
        return block_weight_order(args.d, getattr(args, "r", 0) or 0)
    return parse_order("lex", n)


def _emit(args, lines, payload) -> None:
    if args.format == "structured":
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gb(args) -> int:
    pairs, _ = _budgets(args)
    ideal = _load_ideal(args)
    order = _resolve_order(args, ideal.ring.n)
    gb = buchberger(ideal, order, pairs)
    elements = [format_polynomial(g, gb.order) for g in gb.elements]
    lines = [f"order: {format_order(gb.order)}", f"size: {len(gb)}"] + elements
    payload = {"command": "gb", "n": ideal.ring.n,
               "order": format_order(gb.order), "gb_size": len(gb),
               "elements": elements}
    _emit(args, lines, payload)
    return 0


def cmd_initial(args) -> int:
    pairs, _ = _budgets(args)
    ideal = _load_ideal(args)
    order = _resolve_order(args, ideal.ring.n)
    gb = buchberger(ideal, order, pairs)
    init = initial_ideal(gb)
    gens = [format_mono(m) for m in init.gens]
    lines = [f"order: {format_order(gb.order)}", f"generators: {len(gens)}"] + gens
    payload = {"command": "initial", "n": ideal.ring.n,
               "order": format_order(gb.order), "gb_size": len(gb),
               "generators": gens}
    _emit(args, lines, payload)
    return 0


def _report_lines(rep) -> list:
    lines = [
        f"n: {rep.n}",
        f"dim: {rep.dim}",
        f"depth: {rep.depth}",
        f"pd: {rep.pd}",
        f"reg: {rep.reg}",
        f"cohen_macaulay: {'yes' if rep.cohen_macaulay else 'no'}",
        f"hilbert_numerator: {poly_format(rep.hilbert_numerator)}",
        "betti table:",
    ]
    lines.extend("  " + row for row in rep.betti.render().splitlines())
    return lines


def _report_payload(rep) -> dict:
    return {
        "n": rep.n, "dim": rep.dim, "depth": rep.depth, "pd": rep.pd,
        "reg": rep.reg, "cohen_macaulay": rep.cohen_macaulay,
        "hilbert_numerator": list(rep.hilbert_numerator),
        "betti": [[i, format_mono(a), v] for i, a, v in rep.betti.graded_rows()],
    }


def cmd_invariants(args) -> int:
    pairs, lattice = _budgets(args)
    if args.monomial is not None:
        if args.n is None:
            raise InputError("--monomial needs --n")
        J = MonomialIdeal(args.n, parse_monomial_list(args.monomial, args.n))
    else:
        ideal = _load_ideal(args)
        order = _resolve_order(args, ideal.ring.n)
        J = initial_ideal(buchberger(ideal, order, pairs))
    rep = invariant_report(J, lattice_budget=lattice)
    payload = {"command": "invariants"}
    payload.update(_report_payload(rep))
    _emit(args, _report_lines(rep), payload)
    return 0


def _verify_report_payload(rep) -> dict:
    return {
        "r": rep.r, "order": rep.order_text, "gb_size": rep.gb_size,
        "depth": rep.depth, "dim": rep.dim, "reg": rep.reg, "pd": rep.pd,
        "claimed_confirmed": rep.claimed_confirmed,
        "basis_equals_claimed": rep.basis_equals_claimed,
        "initial_matches": rep.initial_matches,
        "initial": [format_mono(m) for m in rep.initial.gens],
        "hilbert_numerator": list(rep.hilbert_numerator),
        "direct_agrees": rep.direct_agrees,
        "failures": [f"{f.kind}: {f.detail}" for f in rep.claimed_failures],
        "pass": rep.passed,
    }


def cmd_verify(args) -> int:
    if args.d is None:
        raise InputError("verify needs --d")
    pairs, lattice = _budgets(args)
    if args.r is not None:
        rep = verify_one(args.d, args.r, misprinted=args.paper_literal,
                         pair_budget=pairs, lattice_budget=lattice)
        ok = rep.passed
        lines = [_verify_row(rep)]
        for f in rep.claimed_failures:
            lines.append(f"  failure {f.kind}: {f.detail}")
        lines.append("PASS" if ok else "FAIL")
        payload = {"command": "verify", "d": args.d,
                   "paper_literal": args.paper_literal,
                   "reports": [_verify_report_payload(rep)], "pass": ok}
        _emit(args, lines, payload)
        return 0 if ok else 1
    result = verify_depth_range(args.d, misprinted=args.paper_literal,
                                pair_budget=pairs, lattice_budget=lattice,
                                jobs=args.jobs)
    lines = [f"d={args.d} paper_literal={'yes' if args.paper_literal else 'no'}"]
    for rep in result.reports:
        lines.append(_verify_row(rep))
        for f in rep.claimed_failures:
            lines.append(f"  failure {f.kind}: {f.detail}")
    lines.append(
        f"reg_original: {result.reg_original} (expected {result.d}; "
        f"CM certificate {'ok' if result.cm_certificate_ok else 'FAILED'})")
    lines.append("notes:")
    lines.extend(f"  - {note}" for note in result.notes)
    lines.append("PASS" if result.all_pass else "FAIL")
    payload = {
        "command": "verify", "d": args.d, "paper_literal": args.paper_literal,
        "reports": [_verify_report_payload(rep) for rep in result.reports],
        "reg_original": result.reg_original,
        "cm_certificate_ok": result.cm_certificate_ok,
        "notes": list(result.notes), "pass": result.all_pass,
    }
    _emit(args, lines, payload)
    return 0 if result.all_pass else 1


def _verify_row(rep) -> str:
    flags = []
    if not rep.claimed_confirmed:
        flags.append("claimed-set-REFUTED")
    if not rep.basis_equals_claimed:
        flags.append("basis-differs")
    if not rep.initial_matches:
        flags.append("initial-differs")
    if rep.direct_agrees is False:
        flags.append("direct-route-disagrees")
    tail = (" " + " ".join(flags)) if flags else ""
    return (f"r={rep.r}: depth={rep.depth} dim={rep.dim} reg={rep.reg} "
            f"gb_size={rep.gb_size} {'pass' if rep.passed else 'FAIL'}{tail}")


def cmd_explore(args) -> int:
    pairs, lattice = _budgets(args)
    ideal = _load_ideal(args)
    result = explore_orders(ideal, samples=args.samples,
                            weight_bound=args.weight_bound, seed=args.seed,
                            pair_budget=pairs, lattice_budget=lattice,
                            jobs=args.jobs)
    lines = [f"n={result.n} samples={result.samples} seed={args.seed} "
             f"weight_bound={args.weight_bound}"]
    for rec in result.records:
        lines.append(
            f"sample={rec.sample_index} weights={','.join(map(str, rec.weights))} "
            f"depth={rec.depth} reg={rec.reg} dim={rec.dim} gb_size={rec.gb_size}")
    lines.append("depth_values: " + ",".join(map(str, result.depth_values)))
    lines.append(f"distinct_initials: {len(result.records)} skipped: {len(result.skipped)}")
    payload = {
        "command": "explore", "n": result.n, "samples": result.samples,
        "seed": args.seed, "weight_bound": args.weight_bound,
        "depth_values": list(result.depth_values),
        "records": [{
            "sample": rec.sample_index, "weights": list(rec.weights),
            "order": rec.order_text, "gb_size": rec.gb_size,
            "initial": [format_mono(m) for m in rec.initial.gens],
            "depth": rec.depth, "reg": rec.reg, "dim": rec.dim,
        } for rec in result.records],
        "skipped": [{"sample": i, "weights": list(w), "budget": kind}
                    for i, w, kind in result.skipped],
    }
    _emit(args, lines, payload)
    return 0


def cmd_hibi(args) -> int:
    pairs, lattice_budget = _budgets(args)
    if args.ideal is None:
        raise InputError("hibi needs --ideal pointing at a lattice file "
                         "(or inline text with ';' line separators)")
    text = _read_file_or_none(args.ideal, "lattice")
    if text is None:
        text = args.ideal.replace(";", "\n")
    elements, covers = parse_lattice_text(text)
    D = DistributiveLattice.from_covers(elements, covers)
    ideal = join_meet_ideal(D)
    n = ideal.ring.n
    order = parse_order(args.order, n) if args.order is not None \
        else WeightOrder((1,) * n, LexOrder(tuple(range(n))))
    gb = buchberger(ideal, order, pairs)
    init = initial_ideal(gb)
    rep = invariant_report(init, lattice_budget=lattice_budget)
    pairs_count = len(D.incomparable_pairs())
    legend = {f"x{i + 1}": lab for i, lab in enumerate(D.elements)}
    lines = [
        f"lattice elements: {len(D.elements)}",
        f"incomparable pairs: {pairs_count}",
        "legend: " + " ".join(f"{k}={v}" for k, v in legend.items()),
        f"order: {format_order(order)}",
        f"gb_size: {len(gb)}",
        f"dim: {rep.dim}  depth: {rep.depth}  reg: {rep.reg}  "
        f"cohen_macaulay: {'yes' if rep.cohen_macaulay else 'no'}",
    ]
    payload = {
        "command": "hibi", "n": n, "elements": list(D.elements),
        "legend": legend, "incomparable_pairs": pairs_count,
        "order": format_order(order), "gb_size": len(gb),
        "initial": [format_mono(m) for m in init.gens],
        "dim": rep.dim, "depth": rep.depth, "reg": rep.reg, "pd": rep.pd,
        "cohen_macaulay": rep.cohen_macaulay,
    }
    if args.samples > 0:
        result = explore_orders(ideal, samples=args.samples,
                                weight_bound=args.weight_bound, seed=args.seed,
                                pair_budget=pairs, lattice_budget=lattice_budget,
                                jobs=args.jobs)
        lines.append(f"depth_values ({args.samples} samples): "
                     + ",".join(map(str, result.depth_values)))
        lines.append(f"max_depth_reaches_dim: "
                     f"{'yes' if rep.dim in result.depth_values else 'no'}")
        payload["samples"] = args.samples
        payload["depth_values"] = list(result.depth_values)
        payload["max_depth_reaches_dim"] = rep.dim in result.depth_values
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, monomial=False, sampling=False, literal=False,
                jobs=False):
    sub.add_argument("--d", type=int, default=None,
                     help="block count of the built-in family")
    sub.add_argument("--r", type=int, default=None,
                     help="depth index (selects the weight order for --d)")
    sub.add_argument("--order", type=str, default=None,
                     help="order spec: lex | lex:x3>x1>x2 | weight:1,2,2;tie=lex")
    sub.add_argument("--ideal", type=str, default=None,
                     help="ideal file path, or inline ';'-separated text (needs --n)")
    sub.add_argument("--n", type=int, default=None,
                     help="variable count for inline input")
    sub.add_argument("--format", choices=("table", "structured"),
                     default="table", help="output format")
    sub.add_argument("--budget-pairs", type=int, default=None,
                     help=f"S-pair reduction budget (default {DEFAULT_PAIR_BUDGET}, "
                          f"env {PAIR_BUDGET_ENV})")
    sub.add_argument("--budget-lattice", type=int, default=None,
                     help=f"lcm-lattice size budget (default {DEFAULT_LATTICE_BUDGET}, "
                          f"env {LATTICE_BUDGET_ENV})")
    if monomial:
        sub.add_argument("--monomial", type=str, default=None,
                         help="comma-separated monomial generators (needs --n)")
    if sampling:
        sub.add_argument("--seed", type=int, default=0, help="sampling seed")
        sub.add_argument("--weight-bound", type=int, default=5,
                         help="weights sampled uniformly from 1..bound")
    if literal:
        sub.add_argument("--paper-literal", action="store_true",
                         help="verify the uncorrected claimed basis instead")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbdepth",
        description="Groebner bases under weight orders and invariants of "
                    "the resulting monomial degenerations")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gb", help="reduced Groebner basis")
    _add_common(sub)
    sub.set_defaults(func=cmd_gb)

    sub = subs.add_parser("initial", help="initial ideal under an order")
    _add_common(sub)
    sub.set_defaults(func=cmd_initial)

    sub = subs.add_parser("invariants",
                          help="dim/depth/reg/Betti/Hilbert of a monomial quotient")
    _add_common(sub, monomial=True)
    sub.set_defaults(func=cmd_invariants)

    sub = subs.add_parser("verify",
                          help="check the claimed bases and the depth sweep 0..d")
    _add_common(sub, literal=True, jobs=True)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("explore", help="random weight-order exploration")
    _add_common(sub, sampling=True, jobs=True)
    sub.add_argument("--samples", type=int, default=200, help="sample count")
    sub.set_defaults(func=cmd_explore)

    sub = subs.add_parser("hibi",
                          help="join-meet ideal of a distributive lattice")
    _add_common(sub, sampling=True, jobs=True)
    sub.add_argument("--samples", type=int, default=25,
                     help="weight samples for the depth spectrum (0 disables)")
    sub.set_defaults(func=cmd_hibi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OrderError, LatticeError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except (RecursionError, AssertionError, MemoryError) as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

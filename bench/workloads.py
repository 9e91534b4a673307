"""The benchmark's workloads: the CLI commands of one round, the inputs they
read, and checks of their outputs against facts derived apart from gbdepth.

No check compares with a stored copy of gbdepth's output. The facts:

* d-block family (`verify`, `initial`). The closed-form initial ideal: a
  weighted block (a, b, c) gives {bc, b^2, c^2}, an unweighted one
  {a^2, ab, ac, b^3}; so the reduced basis has 4d - r elements. Each block
  is a twisted cubic, so S/I has Hilbert series (1+2t)^d / (1-t)^d and
  K-polynomial (1+2t)^d (1-t)^(2d), which every initial ideal keeps. The
  `verify` sweep must also give depth r, dim d, reg 2d - r and
  reg_original d.
* 2-minors of a generic 3x3 matrix (the join-meet ideal of the 3x3 grid
  lattice). The ideal is unimodular toric, so every initial ideal is
  squarefree (Sturmfels, Groebner Bases and Convex Polytopes, ch. 8), and
  squarefree initial ideals keep depth and regularity (Conca & Varbaro,
  Invent. Math. 2020): dim 5, depth 5, reg 2 throughout. S/I is the Segre
  ring of P^2 x P^2, whose degree-k part has dimension C(k+2, 2)^2.
* `explore --d 2`: by upper semicontinuity every initial ideal has depth
  <= 2 and reg >= 2, the values of the Cohen-Macaulay ideal itself; dim 2
  and the Hilbert function are those of the family.

Standard monomials (those outside the initial ideal) are counted by brute
force in every degree up to `degree`, which checks that the printed
generators really are an initial ideal of the input.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, input directory) -> argv lists of one round; writes any input file
    prepare: Callable[[int, Path], list]
    # (argv lists, parsed outputs, None where nothing was printed) -> problems
    check: Callable[[list, list], list]


# ---------------------------------------------------------------------------
# facts computed apart from the program


def parse_mono(text: str, n: int) -> tuple:
    """'x1^2*x3' -> exponent vector of length n."""
    exps = [0] * n
    if text != "1":
        for factor in text.split("*"):
            var, _, power = factor.partition("^")
            exps[int(var[1:]) - 1] += int(power or 1)
    return tuple(exps)


def standard_counts(n: int, gens, degree: int) -> list:
    """Number of monomials of each degree 0..degree in n variables that no
    generator divides, by enumeration."""
    supports = [[(v, e) for v, e in enumerate(g) if e] for g in gens]
    counts = []
    for k in range(degree + 1):
        count = 0
        for combo in itertools.combinations_with_replacement(range(n), k):
            m = [0] * n
            for v in combo:
                m[v] += 1
            if not any(all(m[v] >= e for v, e in s) for s in supports):
                count += 1
        counts.append(count)
    return counts


def poly_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def family_k_polynomial(d: int) -> list:
    """(1+2t)^d (1-t)^(2d), ascending coefficients."""
    out = [1]
    for _ in range(d):
        out = poly_mul(out, [1, 2])
    for _ in range(2 * d):
        out = poly_mul(out, [1, -1])
    return out


def family_hilbert(d: int, degree: int) -> list:
    """Coefficients 0..degree of (1+2t)^d / (1-t)^d."""
    return [sum(math.comb(d, j) * 2**j * math.comb(k - j + d - 1, d - 1)
                for j in range(min(d, k) + 1))
            for k in range(degree + 1)]


def family_initial(d: int, r: int) -> set:
    """Closed-form initial ideal of the depth-r order, as exponent vectors."""
    n = 3 * d
    out = set()
    for i in range(d):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        weighted = ((b, c), (b, b), (c, c))
        unweighted = ((a, a), (a, b), (a, c), (b, b, b))
        for factors in (weighted if i < r else unweighted):
            m = [0] * n
            for v in factors:
                m[v] += 1
            out.add(tuple(m))
    return out


def family_order(d: int, r: int) -> str:
    weights = [1, 2, 2] * r + [1, 1, 1] * (d - r)
    return "weight:" + ",".join(map(str, weights)) + ";tie=lex"


def grid_minors_text() -> str:
    """The nine 2-minors of the generic 3x3 matrix (x_ij), entry (i, j) is
    variable x(3i+j+1): x1 x2 x3 / x4 x5 x6 / x7 x8 x9."""
    def x(i, j):
        return f"x{3 * i + j + 1}"

    lines = ["# 2-minors of a generic 3x3 matrix: x1 x2 x3 / x4 x5 x6 / x7 x8 x9",
             "vars: 9"]
    for i, k in itertools.combinations(range(3), 2):
        for j, l in itertools.combinations(range(3), 2):
            lines.append(f"{x(i, j)}*{x(k, l)} - {x(i, l)}*{x(k, j)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checks of the program's outputs


def _expect(problems, ok, message):
    if not ok:
        problems.append(message)


def _check_family_initial(problems, where, d, r, gens, degree):
    n = 3 * d
    monos = [parse_mono(g, n) for g in gens]
    _expect(problems, len(monos) == len(set(monos)) and set(monos) == family_initial(d, r),
            f"{where}: initial ideal {gens} is not the closed form")
    counts = standard_counts(n, monos, degree)
    _expect(problems, counts == family_hilbert(d, degree),
            f"{where}: standard monomial counts {counts} != {family_hilbert(d, degree)}")


def check_verify(d, degree, commands, outputs) -> list:
    problems = []
    for out in outputs:
        if out is None:
            continue
        reports = out["reports"]
        _expect(problems, [rep["r"] for rep in reports] == list(range(d + 1)),
                f"levels {[rep['r'] for rep in reports]} are not 0..{d}")
        for rep in reports:
            r = rep["r"]
            where = f"verify d={d} r={r}"
            _expect(problems, rep["order"] == family_order(d, r), f"{where}: order {rep['order']}")
            _expect(problems, rep["gb_size"] == 4 * d - r, f"{where}: gb_size {rep['gb_size']}")
            _expect(problems, (rep["depth"], rep["dim"], rep["reg"]) == (r, d, 2 * d - r),
                    f"{where}: depth/dim/reg {rep['depth']}/{rep['dim']}/{rep['reg']}")
            _expect(problems, rep["hilbert_numerator"] == family_k_polynomial(d),
                    f"{where}: Hilbert numerator {rep['hilbert_numerator']}")
            _expect(problems, rep["pass"] and not rep["failures"], f"{where}: not passed")
            _check_family_initial(problems, where, d, r, rep["initial"], degree)
        _expect(problems, out["reg_original"] == d, f"reg_original {out['reg_original']}")
        _expect(problems, out["cm_certificate_ok"] and out["pass"], "verify did not pass")
    return problems


def check_initial(d, degree, commands, outputs) -> list:
    problems = []
    for argv, out in zip(commands, outputs):
        if out is None:
            continue
        r = int(argv[argv.index("--r") + 1])
        where = f"initial d={d} r={r}"
        _expect(problems, out["n"] == 3 * d, f"{where}: n {out['n']}")
        _expect(problems, out["order"] == family_order(d, r), f"{where}: order {out['order']}")
        _expect(problems, out["gb_size"] == 4 * d - r, f"{where}: gb_size {out['gb_size']}")
        _check_family_initial(problems, where, d, r, out["generators"], degree)
    return problems


def _check_explore(problems, out, n, samples, degree, hilbert, record_ok):
    _expect(problems, out["n"] == n and out["samples"] == samples,
            f"explore: n {out['n']}, samples {out['samples']}")
    _expect(problems, not out["skipped"], f"explore: skipped samples {out['skipped']}")
    records = out["records"]
    _expect(problems, records, "explore: no records")
    seen = set()
    for rec in records:
        where = f"explore sample {rec['sample']}"
        monos = frozenset(parse_mono(g, n) for g in rec["initial"])
        _expect(problems, monos not in seen, f"{where}: repeats an earlier initial ideal")
        seen.add(monos)
        _expect(problems, rec["gb_size"] == len(monos),
                f"{where}: gb_size {rec['gb_size']} != {len(monos)} generators")
        _expect(problems, record_ok(rec, monos),
                f"{where}: dim/depth/reg {rec['dim']}/{rec['depth']}/{rec['reg']}, "
                f"initial {rec['initial']}")
        counts = standard_counts(n, monos, degree)
        _expect(problems, counts == hilbert,
                f"{where}: standard monomial counts {counts} != {hilbert}")
    _expect(problems, out["depth_values"] == sorted({rec["depth"] for rec in records}),
            f"explore: depth_values {out['depth_values']}")


def check_explore_grid(samples, degree, commands, outputs) -> list:
    problems = []
    hilbert = [math.comb(k + 2, 2) ** 2 for k in range(degree + 1)]

    def record_ok(rec, monos):
        squarefree = all(e <= 1 for m in monos for e in m)
        return squarefree and (rec["dim"], rec["depth"], rec["reg"]) == (5, 5, 2)

    for out in outputs:
        if out is not None:
            _check_explore(problems, out, 9, samples, degree, hilbert, record_ok)
    return problems


def check_explore_family(d, samples, degree, commands, outputs) -> list:
    problems = []

    def record_ok(rec, monos):
        return rec["dim"] == d and rec["depth"] <= d and rec["reg"] >= d

    for out in outputs:
        if out is not None:
            _check_explore(problems, out, 3 * d, samples, degree,
                           family_hilbert(d, degree), record_ok)
    return problems


# ---------------------------------------------------------------------------
# workloads; the builders take sizes so that the quick test can run them small

COMMON = ("--format", "structured")


def verify_workload(d: int, degree: int = 4) -> Workload:
    def prepare(seed, inputs):
        return [["verify", "--d", str(d), "--jobs", "1", *COMMON]]

    return Workload(f"verify-d{d}", prepare, lambda c, o: check_verify(d, degree, c, o))


def initial_workload(d: int, degree: int = 3) -> Workload:
    def prepare(seed, inputs):
        return [["initial", "--d", str(d), "--r", str(r), *COMMON]
                for r in range(d + 1)]

    return Workload(f"initial-d{d}", prepare, lambda c, o: check_initial(d, degree, c, o))


def explore_grid_workload(samples: int, degree: int = 4) -> Workload:
    def prepare(seed, inputs):
        path = Path(inputs) / "grid3x3.ideal"
        path.write_text(grid_minors_text())
        return [["explore", "--ideal", str(path), "--samples", str(samples),
                 "--seed", str(seed), "--jobs", "1", *COMMON]]

    return Workload("explore-grid3x3", prepare, lambda c, o: check_explore_grid(samples, degree, c, o))


def explore_family_workload(d: int, samples: int, degree: int = 4) -> Workload:
    def prepare(seed, inputs):
        return [["explore", "--d", str(d), "--samples", str(samples),
                 "--seed", str(seed), "--jobs", "1", *COMMON]]

    return Workload(f"explore-d{d}", prepare, lambda c, o: check_explore_family(d, samples, degree, c, o))


WORKLOADS = {w.name: w for w in (
    verify_workload(5),
    initial_workload(7),
    explore_grid_workload(400),
    explore_family_workload(2, 1000),
)}


def parse_outputs(outputs) -> list:
    """The JSON object each command printed, whatever its exit code (`verify`
    prints its whole payload and then exits 1 when its own check fails);
    None for a command that printed none."""
    parsed = []
    for text in outputs:
        try:
            obj = json.loads(text)
        except ValueError:
            obj = None
        parsed.append(obj if isinstance(obj, dict) else None)
    return parsed


def check_outputs(workload, commands, outputs) -> list:
    """Problems with a round's parsed outputs. A command that printed nothing
    to check is a problem in itself, so a run whose commands all fail is
    never correct."""
    problems = [f"{' '.join(argv)}: printed no JSON object to check"
                for argv, out in zip(commands, outputs) if out is None]
    try:
        return problems + workload.check(commands, outputs)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return problems + [f"an output does not have the expected form: {exc!r}"]

"""Runs two sets of benchmark runs of the same code and reports, for every
end-to-end metric on every workload, whether they agree within the bounds
in BENCHMARK.json.

    python3 bench/compare.py                     # 2 sets x 10 runs, all workloads
    python3 bench/compare.py --runs 5 --workloads explore-grid3x3

The two sets are interleaved so that a slow phase of the machine falls on
both alike: run i of every workload is made once for each set, back to
back, with the same seed i + 1, and the set that goes first alternates
with i. A set's spread for a metric is the distance between the first
and third quartile of its values, as a share of their median. The sets
agree when every spread is within the metric's bound, the two medians
differ by no more than the bound in either direction, and the share of
failed operations is the same in both. Every run's result is also
written to bench/out/compare.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    results = {f"{s}/{w}": [] for s in (1, 2) for w in workloads}
    for i in range(args.runs):
        seed = i + 1
        for w in workloads:
            for s in ((1, 2) if i % 2 == 0 else (2, 1)):
                res = run_once(w, seed, args.seconds)
                results[f"{s}/{w}"].append(res)
                shown = " ".join(f"{k}={m['value']:.4f}" for k, m in res["metrics"].items())
                print(f"set {s} {w} seed {seed}: {shown} attempted={res['attempted']} "
                      f"failed={res['failed']} correct={str(res['correct']).lower()}",
                      flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "compare.json").write_text(json.dumps(results, indent=1))

    agree = True
    print(f"\n{'workload':<16} {'metric':<13} {'median1':>10} {'spread1':>8} "
          f"{'median2':>10} {'spread2':>8} {'change':>7} {'bound':>6}  verdict")
    for w in workloads:
        sets = [results[f"{s}/{w}"] for s in (1, 2)]
        correct = all(r["correct"] for runs in sets for r in runs)
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            change = (medians[1] - medians[0]) / medians[0]
            ok = all(sp <= bound for sp in spreads) and abs(change) <= bound
            agree = agree and ok
            print(f"{w:<16} {name:<13} {medians[0]:>10.4f} {spreads[0]:>8.3f} "
                  f"{medians[1]:>10.4f} {spreads[1]:>8.3f} {change:>7.3f} {bound:>6}  "
                  f"{'ok' if ok else 'DISAGREE'}")
        same_share = shares[0] == shares[1]
        agree = agree and same_share and correct
        print(f"{w:<16} failed share {shares[0]:.4f} / {shares[1]:.4f}"
              f"{'' if same_share else '  DIFFERS'}; correct={str(correct).lower()}")
    print("\nsets agree within bounds" if agree else "\nsets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())

"""gbdepth benchmark: runs one workload (or all) through the gbdepth CLI and
prints its metrics; the last line of standard output is one JSON object.

    python3 bench/run.py --workload explore-d2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

With --trace 0 it prints the end-to-end metrics:

* wall_s: median wall time of one round of the workload's commands;
* setup_s: median time from spawning a fresh interpreter until the CLI
  is imported and ready, over eight spawns before the workload (after one
  warm-up) and eight after it;
* peak_rss_mib: peak resident memory of the workload process.

Both times are scaled to a reference speed of the machine (see
worker.py); the unscaled medians go to standard error.

With --trace 1 it prints the per-layer metrics of `spans.py` instead.
`attempted` counts CLI commands run, `failed` those that exited non-zero
or raised. `correct` is true when every command printed a JSON object,
every such object passed the checks in `workloads.py` (whatever the
command's exit code) and every round printed the same output. Exit code 0
means a result was printed; it says nothing of `correct`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_SPAWNS = 8  # timed spawns on each side of the workload
SETUP_SLICES = 10  # reference slices timed between two spawns
DEFAULT_SEED = 1

sys.path.insert(0, str(HERE))
from spans import UNITS  # noqa: E402
from worker import REFERENCE_SLICE_S, reference_slice  # noqa: E402
from workloads import WORKLOADS, check_outputs, parse_outputs  # noqa: E402


def python(*args) -> list:
    # -I: no PYTHONPATH, no user site; the worker finds gbdepth by itself
    return [sys.executable, "-I", str(WORKER), *args]


def setup_times(spawns, warm_up) -> list:
    """(scaled, unscaled) seconds from spawning the worker until it prints
    'ready', one pair per spawn, after `warm_up` untimed spawns that fill
    the bytecode caches. A spawn is scaled like a round (see worker.py), by
    the reference slices timed just before and just after it."""
    times = []
    before = [reference_slice() for _ in range(SETUP_SLICES)]
    for i in range(spawns + warm_up):
        start = time.perf_counter()
        with subprocess.Popen(python("--ready"), stdout=subprocess.PIPE,
                              cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"worker did not start (exit code {code})")
        after = [reference_slice() for _ in range(SETUP_SLICES)]
        if i >= warm_up:
            scale = REFERENCE_SLICE_S / statistics.median(before + after)
            times.append((elapsed * scale, elapsed))
        before = after
    return times


def run_worker(commands, seconds, trace, workdir, spans_path) -> dict:
    job = {"commands": commands, "seconds": seconds, "trace": trace,
           "result": str(workdir / "result.json"), "spans": str(spans_path)}
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job))
    # the worker starts no round after `seconds`; the last one may overrun
    timeout = 4 * seconds + 60
    try:
        proc = subprocess.run(python("--job", str(job_path)), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload process still running after {timeout:g} s") from None
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads((workdir / "result.json").read_text())


def run_workload(name, seed, seconds, trace) -> dict:
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        commands = workload.prepare(seed, workdir)
        # half the spawns before the workload and half after it, so that
        # one short slow spell of the machine cannot move all of them
        setup = [] if trace else setup_times(SETUP_SPAWNS, warm_up=1)
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        res = run_worker(commands, seconds, trace, workdir, spans_path)
        if not trace:
            setup += setup_times(SETUP_SPAWNS, warm_up=0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = check_outputs(workload, commands, parse_outputs(res["outputs"]))
    if not res["consistent"]:
        problems.append("rounds printed different outputs")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["rounds_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(t for t, _ in setup), "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_kib"] / 1024, "unit": "MiB"},
        }
        print(f"{name}: {len(res['rounds_s'])} rounds, unscaled wall_s "
              f"{statistics.median(res['unscaled_rounds_s']):.4f} s, unscaled setup_s "
              f"{statistics.median(u for _, u in setup):.4f} s, reference slice "
              f"{statistics.median(res['slice_s']) * 1e3:.3f} ms", file=sys.stderr)
    return {"correct": not problems, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gbdepth" / "cli.py").is_file():
        print(f"error: no gbdepth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = {}
    for name in WORKLOADS:
        res = results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        shown = " ".join(f"{k}={m['value']:.4f} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name}: {shown} attempted={res['attempted']} failed={res['failed']} "
              f"correct={str(res['correct']).lower()}", flush=True)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The workload process: imports the gbdepth CLI from the checkout's `src`
and runs rounds of CLI commands through `gbdepth.cli.main`, in this one
process, until the time is up.

    python3 -I bench/worker.py --ready          # import the CLI, print 'ready'
    python3 -I bench/worker.py --job JOB.json   # run a job, write its result

A job is a JSON object: `commands` (argv lists making one round),
`seconds`, `trace` (0 or 1), `result` (path of the result file) and
`spans` (path the last traced round's spans are written to).

With trace 0 no round is traced. With trace 1 untraced and traced rounds
alternate, and the difference of their median times is the tracing
overhead.

The speed a shared virtual machine gives one process can drift by 20% or
more within seconds, and a slow spell slows other Python code nearly
alike. So with trace 0, while a round runs, a timer interrupts it every
`PERIOD_S` of wall time and times one slice of a fixed reference
computation that runs none of gbdepth's code. The round's own time (its
wall time less the slices) is scaled by `REFERENCE_SLICE_S` over the
median slice time, which gives it in seconds of a machine on which a slice
takes `REFERENCE_SLICE_S`. The unscaled times and the slice times are kept
too.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PERIOD_S = 0.1
# median time of one reference slice on a 2-CPU Xeon 2.0 GHz virtual
# machine with Python 3.11.7, the machine of the figures in README.md
REFERENCE_SLICE_S = 0.004
_BASE = {(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): Fraction(-3),
         (0, 0, 1, 1): Fraction(2, 7), (0, 0, 0, 0): Fraction(1)}


def _poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def reference_slice() -> float:
    """Seconds taken by a fixed computation in the style of gbdepth's
    arithmetic (products of sparse polynomials over Q, with exponent tuples
    as keys). It calls none of gbdepth's code, so a change to gbdepth cannot
    move it; a change in the machine's speed moves both alike. It makes no
    reference cycles, so the cyclic garbage collector is held off while it
    runs: a collection then would scan gbdepth's heap and charge its size
    to the slice."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            q = _BASE
            for _ in range(4):
                q = _poly_mul(q, _BASE)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedSampler:
    """While active, times one reference slice every PERIOD_S of wall
    time, from a SIGALRM handler in the main thread."""

    def __init__(self):
        self.slices = []

    def _tick(self, signum, frame):
        self.slices.append(reference_slice())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def import_cli():
    """Import gbdepth from this checkout, never from anywhere else."""
    if not (SRC / "gbdepth" / "cli.py").is_file():
        raise SystemExit(f"gbdepth sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gbdepth.cli

    if Path(gbdepth.cli.__file__).resolve().parent != SRC / "gbdepth":
        raise SystemExit(f"imported gbdepth from {gbdepth.cli.__file__}, not {SRC}")
    gbdepth.cli.build_parser()
    return gbdepth.cli


def run_round(cli, commands, sample=False):
    """Run each command once; returns (seconds, exit codes, outputs, slice
    times). With `sample`, a SpeedSampler runs throughout and the seconds
    exclude its slices. An exception leaving main() is a failed operation
    with exit code None."""
    codes, outputs = [], []
    sampler = SpeedSampler()
    with sampler if sample else contextlib.nullcontext():
        start = time.perf_counter()
        for argv in commands:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(argv))
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                print(f"{argv[0]}: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = None
            codes.append(code)
            outputs.append(buf.getvalue())
    # after the timer stopped, so that every slice falls inside `elapsed`
    elapsed = time.perf_counter() - start
    return elapsed - sum(sampler.slices), codes, outputs, sampler.slices


def run_job(job) -> dict:
    cli = import_cli()
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(HERE))
        from spans import Tracer, layer_metrics, median_metrics, write_spans

        tracer = Tracer()
    untraced, traced, layer_rounds, unscaled, slice_medians = [], [], [], [], []
    first = None
    consistent = True
    attempted = failed = 0
    spans = []
    deadline = time.perf_counter() + job["seconds"]
    while True:
        trace_this = tracer is not None and len(traced) < len(untraced)
        if trace_this:
            with tracer:
                wall, codes, outputs, _ = run_round(cli, job["commands"])
            spans = tracer.take()
            layer_rounds.append(layer_metrics(spans))
            traced.append(wall)
        elif tracer is not None:
            # untraced rounds of a traced run are not sampled either, so the
            # two kinds differ by the tracing alone
            wall, codes, outputs, _ = run_round(cli, job["commands"])
            untraced.append(wall)
        else:
            wall, codes, outputs, slices = run_round(cli, job["commands"], sample=True)
            if not slices:
                raise SystemExit(f"a round took less than {PERIOD_S} s; no speed sample")
            slice_medians.append(statistics.median(slices))
            untraced.append(wall * REFERENCE_SLICE_S / slice_medians[-1])
            unscaled.append(wall)
        attempted += len(codes)
        failed += sum(code != 0 for code in codes)
        if first is None:
            first = (codes, outputs)
        elif (codes, outputs) != first:
            consistent = False
        done = time.perf_counter() >= deadline
        if done and (tracer is None or traced):
            break
    result = {
        "rounds_s": untraced,
        "unscaled_rounds_s": unscaled,
        "slice_s": slice_medians,
        "attempted": attempted,
        "failed": failed,
        "outputs": first[1],
        "consistent": consistent,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layers = median_metrics(layer_rounds)
        layers["trace.overhead_s"] = (statistics.median(traced)
                                      - statistics.median(untraced))
        result["layers"] = layers
        result["traced_rounds_s"] = traced
        write_spans(spans, job["spans"])
    return result


def main(argv) -> int:
    if argv == ["--ready"]:
        import_cli()
        print("ready", flush=True)
        return 0
    if len(argv) != 2 or argv[0] != "--job":
        print("usage: worker.py --ready | --job JOB.json", file=sys.stderr)
        return 2
    job = json.loads(Path(argv[1]).read_text())
    result = run_job(job)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Quick test of the benchmark itself, at the smallest sizes. It is not part
of the package's test suite (pyproject.toml collects only tests/):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from spans import METRICS, Tracer  # noqa: E402
from workloads import (check_outputs, explore_family_workload,  # noqa: E402
                       explore_grid_workload, family_hilbert, family_initial,
                       initial_workload, parse_outputs, standard_counts,
                       verify_workload)

SMALL = (verify_workload(2), initial_workload(2),
         explore_grid_workload(6), explore_family_workload(1, 20))


def run_small(workload, tmp_path, seed=3):
    commands = workload.prepare(seed, tmp_path)
    _, codes, outputs, _ = worker.run_round(worker.import_cli(), commands)
    return commands, codes, outputs


def test_closed_forms_agree():
    for d in (1, 2):
        for r in range(d + 1):
            assert standard_counts(3 * d, family_initial(d, r), 4) == family_hilbert(d, 4)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_small_workload_passes_checks(workload, tmp_path):
    commands, codes, outputs = run_small(workload, tmp_path)
    assert codes == [0] * len(commands)
    assert check_outputs(workload, commands, parse_outputs(outputs)) == []


def test_checks_reject_a_wrong_depth(tmp_path):
    workload = verify_workload(2)
    commands, codes, outputs = run_small(workload, tmp_path)
    out = parse_outputs(outputs)
    out[0]["reports"][1]["depth"] += 1
    assert check_outputs(workload, commands, out)


def test_payload_of_a_failed_verify_is_checked(tmp_path):
    # verify prints its whole payload and exits 1 when its own check fails;
    # a wrong depth in that payload must still make the run incorrect
    workload = verify_workload(2)
    commands, codes, outputs = run_small(workload, tmp_path)
    payload = json.loads(outputs[0])
    payload["reports"][1]["depth"] += 1
    payload["reports"][1]["pass"] = payload["pass"] = False
    problems = check_outputs(workload, commands, parse_outputs([json.dumps(payload)]))
    assert any("depth/dim/reg" in p for p in problems)


def test_command_without_output_is_incorrect(tmp_path):
    workload = initial_workload(2)
    commands, codes, outputs = run_small(workload, tmp_path)
    outputs[1] = "Traceback (most recent call last):\n"
    problems = check_outputs(workload, commands, parse_outputs(outputs))
    assert problems == [f"{' '.join(commands[1])}: printed no JSON object to check"]
    assert check_outputs(workload, commands, parse_outputs(["{}"] * len(commands)))


def test_checks_reject_a_non_squarefree_initial(tmp_path):
    workload = explore_grid_workload(6)
    commands, codes, outputs = run_small(workload, tmp_path)
    out = parse_outputs(outputs)
    out[0]["records"][0]["initial"][0] = "x1^2"
    assert check_outputs(workload, commands, out)


def test_trace_counts_repeat_and_bindings_restore(tmp_path):
    from spans import layer_metrics

    cli = worker.import_cli()
    import gbdepth.family
    import gbdepth.groebner

    original = gbdepth.groebner.buchberger
    rounds = []
    for workload in (verify_workload(2), explore_family_workload(1, 20)):
        commands = workload.prepare(3, tmp_path)
        for _ in range(2):
            tracer = Tracer()
            with tracer:
                assert gbdepth.family.buchberger is not original
                worker.run_round(cli, commands)
            rounds.append(layer_metrics(tracer.take()))
    assert gbdepth.family.buchberger is original and cli.buchberger is original
    counts = [name for name, unit in METRICS if unit == "count"]
    assert set(rounds[0]) == {name for name, _ in METRICS} - {"trace.overhead_s"}
    for first, second in (rounds[0:2], rounds[2:4]):
        assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    verify, explore = rounds[0], rounds[2]
    assert verify["groebner.spolys_check"] > 0 and verify["invariants.components"] > 0
    assert explore["family.samples"] == 20 and explore["groebner.buchberger_calls"] == 20


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "explore-d2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_speed_sampler_takes_slices_and_restores_the_handler():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with worker.SpeedSampler() as sampler:
        end = time.perf_counter() + 5 * worker.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.slices) >= 3 and all(s > 0 for s in sampler.slices)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

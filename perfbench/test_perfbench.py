"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def minimal(name, work_dir):
    """Each workload at its smallest size."""
    return {
        "plan": lambda: workloads.Plan(5),
        "cold-start": lambda: workloads.ColdStart(5, max_outer=1),
        "sweep": lambda: workloads.Sweep(5, episodes=1),
        "run-audit": lambda: workloads.RunAudit(5, str(work_dir), samples=100),
    }[name]()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_passes_and_tracing_keeps_digest(name, tmp_path):
    workload = minimal(name, tmp_path)
    inp = workload.make_input(0)
    ok, digest, _ = workload.check(inp, workload.run(inp))
    assert ok

    tracer = tracing.Tracer()
    inp = workload.make_input(0)
    with tracer.recording(0):
        traced_ok, traced_digest, _ = workload.check(inp, workload.run(inp))
    assert traced_ok
    assert traced_digest == digest
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.per_layer_units()) - set(tracing.OVERHEAD_UNITS)
    for name in tracing.SPAN_NAMES:
        assert metrics[f"{name}.s"] >= metrics[f"{name}.self_s"] >= 0.0


def _bindings():
    return {(id(owner), attr): tracing._raw(owner, attr)
            for sites in tracing.TARGETS.values() for owner, attr in sites}


def test_tracer_restores_every_wrapped_attribute():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.recording(0):
            during = _bindings()
            raise RuntimeError("op failed")
    after = _bindings()
    assert all(during[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)
    assert isinstance(tracing._raw(tracing.EpisodeLog, "load_csv"), classmethod)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.recording(0):
        outer = tracer._open(0)
        inner = tracer._open(1)
        tracer._close(inner)
        tracer._close(outer)
    a = tracer.arrays()
    assert list(a["parent"]) == [-1, 0]
    m = tracer.metrics()
    name_1, name_2 = tracing.SPAN_NAMES[0], tracing.SPAN_NAMES[1]
    inner_s = a["end"][1] - a["start"][1]
    assert m[f"{name_1}.self_s"] == pytest.approx(m[f"{name_1}.s"] - inner_s)
    assert m[f"{name_2}.self_s"] == pytest.approx(m[f"{name_2}.s"])


def test_sampler_times_kernel_during_op_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = reference.Sampler(interval_s=0.01)
    with sampler:
        t_end = perf_counter() + 0.2
        while perf_counter() < t_end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert sampler.spent_s == pytest.approx(sum(sampler.samples))
    assert min(sampler.samples) <= sampler.ref_s() <= max(sampler.samples)


def test_sampler_skips_a_signal_that_arrives_mid_sample():
    sampler = reference.Sampler()
    sampler._busy = True
    sampler._sample()
    assert sampler.samples == [] and sampler.spent_s == 0.0
    sampler._busy = False
    sampler._sample()
    assert len(sampler.samples) == 1 and not sampler._busy


def test_scenario_seed_takes_any_integer():
    assert workloads.scenario_seed(-1, 0) == workloads.scenario_seed(2**64 - 1, 0)
    assert workloads.scenario_seed(7, 3) != workloads.scenario_seed(7, 4)


def test_setup_probe_is_tried_once_more(monkeypatch):
    results = iter([subprocess.CompletedProcess([], -9, "", "killed\n"),
                    subprocess.CompletedProcess([], 0, "[0.5, 0.0008]\n", "")])
    monkeypatch.setattr(run.subprocess, "run", lambda *a, **k: next(results))
    args = run.parse_args(["--workload", "plan", "--seed", "1", "--seconds", "0", "--trace", "0"])
    assert run.probe_setup(args) == pytest.approx((0.5, 0.5 * run.REF_NOMINAL_S / 0.0008))
    failing = subprocess.CompletedProcess([], 1, "", "")
    monkeypatch.setattr(run.subprocess, "run", lambda *a, **k: failing)
    with pytest.raises(RuntimeError):
        run.probe_setup(args)


def test_tail_needs_ten_ops_beyond():
    assert run.tail([1.0] * 19) is None
    pct, value = run.tail([float(k) for k in range(30)])
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert sum(1 for k in range(30) if k > value) == 10


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "run-audit", "--seed", "2",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = tracing.per_layer_units() if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""funnelnav benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload {plan,cold-start,sweep,run-audit} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; funnelnav is imported from ./src. The client
issues the next op only after the previous one returns (no threads, no
pool). It cycles through the workload's fixed inputs, each at least once,
for about --seconds.

--trace 0 reports the end-to-end metrics with tracing off. --trace 1 runs
each input once untraced and once traced and reports the per-layer split
plus the tracing overhead. Every op's outputs are checked, and any failure
makes the exit code 1. The last stdout line is the JSON result; the lines
before it print each metric with its unit and the host facts. A fuller
record, and the spans of a traced run, go to perfbench/out/.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("plan", "cold-start", "sweep", "run-audit")
SETUP_PROBES = 5
# The reference kernel's time at which setup_s is stated: about its time on
# the host described in DESIGN.md when that host is not slowed by others.
REF_NOMINAL_S = 0.0004

# name -> (unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = {
    "op_ref_mean": ("ref", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", type=float, default=None, metavar="T0",
                   help="internal: set up the workload's first op, print the set-up "
                        "time since perf_counter() read T0 and the kernel's time, exit")
    return p.parse_args(argv)


def import_program():
    """Put ./src on the path; refuse to run without the program's sources."""
    if not (ROOT / "src" / "funnelnav" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no funnelnav sources under {ROOT / 'src'}; "
                         "run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_facts() -> dict:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
    }


def probe_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh process: (wall seconds, seconds at the nominal host speed).

    The probe reports the wall time from its spawn to its first input being
    ready (perf_counter is one system-wide monotonic clock) and the
    reference kernel's time sampled meanwhile. The second value scales the
    wall time to a host on which the kernel takes REF_NOMINAL_S, which
    cancels the host's drift.
    """
    # A probe stopped from outside (say, by a full host's out-of-memory
    # killer) gets one more try; a set-up that fails by itself fails again.
    for _ in range(2):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
               "--setup-probe", repr(perf_counter())]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            wall_s, ref_s = json.loads(proc.stdout.splitlines()[-1])
            return wall_s, wall_s * REF_NOMINAL_S / ref_s
        sys.stderr.write(proc.stderr)
        print(f"perfbench: set-up probe exited with code {proc.returncode}", file=sys.stderr)
    raise RuntimeError("set-up probe failed twice")


def run_op(workload, inp, sampler=None):
    """One timed op and its untimed check: (seconds, ok, digest, ticks)."""
    t0 = perf_counter()
    try:
        with sampler or contextlib.nullcontext():
            out = workload.run(inp)
        seconds = perf_counter() - t0
        ok, digest, ticks = workload.check(inp, out)
    except Exception:  # an op failure is counted, and the run goes on
        seconds = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return seconds, False, None, 0
    return seconds, ok, digest, ticks


def tail(times: list[float]):
    """Highest percentile with at least 10 ops beyond it: (percentile, value), or None under 20 ops."""
    n = len(times)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def until_done(workload, args, ops, t_begin) -> bool:
    """Run every input once, then go on while the next op should end within --seconds."""
    if len(ops) < workload.inputs:
        return True
    typical = statistics.median(op[0] for op in ops)
    return perf_counter() - t_begin + typical < args.seconds


def per_input_mean(values: dict[int, list[float]]) -> float:
    """Mean over inputs of each input's mean, so repeats do not weight an input more."""
    return statistics.mean(statistics.mean(v) for v in values.values())


def measure(workload, first, args) -> dict:
    """Untraced run: the workload's inputs in turn until --seconds have passed.

    The reference kernel is sampled while each op runs (see reference.py);
    an op's wall time, less the samples' time, divided by the kernel's time
    at the op's mean speed gives the op's normalized time. The setup probes
    are spread over the run, so one burst of load from elsewhere cannot slow
    all of them. A repeated input must give the digest it gave before, or
    its op fails.
    """
    import reference
    sampler = reference.Sampler()
    ops, setup = [], []
    failed = 0
    normalized, digests = {}, {}
    t_begin = perf_counter()
    while until_done(workload, args, ops, t_begin):
        if len(setup) < SETUP_PROBES and (
                perf_counter() - t_begin >= args.seconds * len(setup) / SETUP_PROBES):
            setup.append(probe_setup(args))
        i = len(ops) % workload.inputs
        seconds, ok, digest, ticks = run_op(workload, first if not ops else workload.make_input(i),
                                            sampler)
        seconds -= sampler.spent_s
        if ok and digests.setdefault(i, digest) != digest:
            print(f"perfbench: input {i} repeated with another digest", file=sys.stderr)
            ok = False
        failed += not ok
        ops.append((seconds, ticks, digest))
        normalized.setdefault(i, []).append(seconds / sampler.ref_s())
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(args))
    return {"ops": ops, "failed": failed, "setup": setup, "op_ref": normalized,
            "op_ref_mean": per_input_mean(normalized)}


def measure_traced(workload, first, args) -> dict:
    """Traced run: each input once untraced and once traced, alternating which goes first."""
    import tracing
    tracer = tracing.Tracer()
    ops, untraced, overhead = [], [], []
    failed = 0
    t_begin = perf_counter()
    i = 0
    while i == 0 or perf_counter() - t_begin < args.seconds:
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            inp = first if i == 0 and not pair else workload.make_input(i % workload.inputs)
            with tracer.recording(i) if traced else contextlib.nullcontext():
                pair[traced] = run_op(workload, inp)
        (u_s, u_ok, u_digest, u_ticks), (t_s, t_ok, t_digest, t_ticks) = pair[False], pair[True]
        if t_ok and t_digest != u_digest:
            print(f"perfbench: traced op of pair {i} gave another digest", file=sys.stderr)
            t_ok = False
        failed += (not u_ok) + (not t_ok)
        ops += [(u_s, u_ticks, u_digest), (t_s, t_ticks, t_digest)]
        untraced.append(u_s)
        overhead.append(t_s - u_s)
        i += 1
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = statistics.median(overhead)
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / statistics.median(untraced)
    tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    return {"ops": ops, "failed": failed, "metrics": metrics,
            "units": tracing.per_layer_units()}


def setup_probe(args) -> int:
    """Set up the workload's first input in this fresh process.

    Prints the seconds since the parent read `--setup-probe`, less the
    samples' time, and the kernel's time sampled during the set-up.
    """
    import reference
    with reference.Sampler(interval_s=0.01) as sampler:
        workloads = import_program()
        workloads.make(args.workload, args.seed, str(OUT_DIR)).make_input(0)
    wall_s = perf_counter() - args.setup_probe - sampler.spent_s
    print(json.dumps([wall_s, sampler.ref_s()]))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        return setup_probe(args)
    workloads = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, str(OUT_DIR))
    first = workload.make_input(0)
    host = host_facts()

    result = measure_traced(workload, first, args) if args.trace else measure(workload, first, args)
    times = [op[0] for op in result["ops"]]
    ticks = sum(op[1] for op in result["ops"])
    attempted, failed = len(times), result["failed"]
    info = {"attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
            "op_s": times, "digests": [op[2] for op in result["ops"]]}
    lines = [f"# funnelnav perfbench: workload {args.workload}, seed {args.seed}, "
             f"trace {args.trace}: {attempted} ops, {failed} failed"]
    if args.trace:
        metrics, units = result["metrics"], result["units"]
    else:
        info["setup_probe_wall_s"] = [probe[0] for probe in result["setup"]]
        info["setup_probe_s"] = [probe[1] for probe in result["setup"]]
        info["op_ref_by_input"] = result["op_ref"]
        info["op_s_p50"] = statistics.median(times)
        lines.append(f"op_s_p50 = {info['op_s_p50']:.6g} s (wall time, not normalized)")
        metrics = {
            "setup_s": statistics.median(probe[1] for probe in result["setup"]),
            "op_ref_mean": result["op_ref_mean"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: spec[0] for name, spec in END_TO_END.items()}
        t = tail(times)
        if t is not None:
            info["op_s_tail"] = {"percentile": t[0], "value": t[1], "n": attempted}
            lines.append(f"op_s_tail = {t[1]:.6g} s (p{t[0]:.4g}, n={attempted})")
        else:
            lines.append(f"op_s_tail: omitted, {attempted} ops < 20")
        if ticks:
            info["ticks_per_s"] = ticks / sum(times)
            lines.append(f"ticks_per_s = {info['ticks_per_s']:.6g} 1/s")
    lines.append(f"fail_frac = {info['fail_frac']:.6g} ({failed}/{attempted})")
    lines += [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines.append("host: " + json.dumps(host, sort_keys=True))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "info": info,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

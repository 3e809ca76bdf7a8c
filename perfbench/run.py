"""convexkit benchmark: seeded exact-geometry workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-3d --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

Each workload is a closed loop: one caller on one thread issues the next
task when the previous one has returned.  Set-up builds a fixed, seeded
list of tasks; the timed loop runs whole passes over it until the time is
up.  Host-speed probes (hostspeed.py) run between tasks, and every time
is reported at the reference host speed, so a slow spell of a shared host
does not read as a slower program; the notes give the figures as measured.
Latencies and throughput use every task run of the loop, unfiltered.
``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs one untraced pass (``cli-mix``: half the time, for the
``cli.*`` latencies), then replays one pass and the small ``Coverage``
pass with span wrappers installed (see tracer.py) and reports the
per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import MIN_PROBES, NEIGHBOURS, REFERENCE_S, Speedometer
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_PROBES = 9  # setup_s is the median of this many fresh processes
PROBE_EVERY_S = 0.02  # host-speed probes between tasks, at most this often
PROBE_TIMEOUT_S = 120


class SetupError(RuntimeError):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Put the checkout's own source tree first on the path and import it."""
    if not (SRC / "convexkit" / "__init__.py").is_file():
        raise SetupError(f"no convexkit source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import convexkit

    if Path(convexkit.__file__).resolve().parent != SRC / "convexkit":
        raise SetupError(f"imported convexkit from {convexkit.__file__}, not {SRC}")


def revision():
    """The checkout's git revision, or None outside a git repository."""
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------


def probe_setup(workload, seed):
    """One fresh interpreter's set-up: (seconds as measured, its mean probe time).

    The set-up process probes the host speed itself, on the CPU it runs
    on, which need not be the one this process probes; the time its
    probes took is left out of the set-up time.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    word, *figures = line.split()
    if word != "ready" or len(figures) != 2 or code != 0:
        raise SetupError(f"set-up probe for {workload} failed (exit {code})")
    probe_s, probing_s = map(float, figures)
    return elapsed - probing_s, probe_s


def measure_setup(workload, seed):
    """Medians over fresh processes of the set-up time, as measured and normalized."""
    probes = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    return (
        statistics.median(seconds for seconds, _ in probes),
        statistics.median(seconds * REFERENCE_S / probe_s for seconds, probe_s in probes),
    )


def report_setup(args):
    """The set-up process: build the workload's tasks between host-speed probes."""
    speed = Speedometer()
    start = time.perf_counter()
    speed.sample(NEIGHBOURS)
    probing_s = time.perf_counter() - start
    import_program()
    from workloads import WORKLOADS

    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[args.workload](args.seed, str(workdir))
        start = time.perf_counter()
        speed.sample(NEIGHBOURS)
        probing_s += time.perf_counter() - start
        print(f"ready {statistics.fmean(speed.took)!r} {probing_s!r}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# ---------------------------------------------------------------------------
# timed phases
# ---------------------------------------------------------------------------


class Phase:
    """Every task run of one timed loop: (task index, start, seconds)."""

    def __init__(self, n_tasks):
        self.n_tasks = n_tasks
        self.runs = []
        self.failed = 0
        self.errors = []
        self.wall = 0.0
        self.passes = 0

    @property
    def attempted(self):
        return len(self.runs)

    def normalized(self, speed):
        """Each task's run times at the reference host speed."""
        out = [[] for _ in range(self.n_tasks)]
        for k, start, seconds in self.runs:
            out[k].append(speed.normalize(start, seconds))
        return out


def run_phase(workload, seconds, tracer=None, coverage=False, speed=None):
    """Run passes over ``workload.tasks`` until ``seconds`` have passed.

    The first pass always completes; later passes stop at the deadline.
    The traced phase runs exactly one pass.  A task that raises counts as
    failed in that pass; the loop never skips one.  Traced coverage tasks
    get negative task ids, so layer figures can tell them from the
    workload's own.  With a ``speed`` meter, host-speed probes run before
    and after the loop and between tasks every ``PROBE_EVERY_S``.
    """
    n = len(workload.tasks)
    phase = Phase(n)
    if speed is not None:
        speed.sample(MIN_PROBES)
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start
    runs = 0
    while runs < n or (tracer is None and time.perf_counter() < deadline):
        if speed is not None and time.perf_counter() >= next_probe:
            speed.sample()
            next_probe = time.perf_counter() + PROBE_EVERY_S
        k = runs % n
        task = workload.tasks[k]
        label = workload.label(task)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                workload.run(task)
            else:
                tracer.run_task(-1 - k if coverage else k, label, workload.run, task)
        except Exception as exc:  # the task boundary: count it and go on
            phase.failed += 1
            phase.errors.append(f"task {k} ({label}): {type(exc).__name__}: {exc}")
        phase.runs.append((k, t0, time.perf_counter() - t0))
        runs += 1
    phase.passes = runs // n
    phase.wall = time.perf_counter() - start
    if speed is not None:
        speed.sample(MIN_PROBES)
    return phase


def end_to_end(phase, setup_raw_s, setup_s, speed):
    samples = sorted(t for per_task in phase.normalized(speed) for t in per_task)
    n = len(samples)
    # Tail: the highest percentile that still leaves ten samples beyond it.
    tail_index = n - 11 if n > 10 else n - 1
    completed = phase.attempted - phase.failed
    probe_s = statistics.median(speed.took)
    metrics = {
        "setup_s": setup_s,
        "tasks_per_s": completed / sum(samples),
        "task_p50_ms": 1000 * statistics.median(samples),
        "task_tail_ms": 1000 * samples[tail_index],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = sorted(seconds for _, _, seconds in phase.runs)
    notes = [
        f"{phase.attempted} runs of {phase.n_tasks} tasks ({phase.passes} full passes) in "
        f"{phase.wall:.2f} s; times are at the reference host speed",
        f"task_tail_ms is p{100 * (tail_index + 1) / n:.1f} of {n} samples "
        f"({n - 1 - tail_index} beyond it)",
        f"host-speed probe: median {1000 * probe_s:.4f} ms over {len(speed.took)} probes, "
        f"reference {1000 * REFERENCE_S:.4f} ms",
        f"as measured: setup_s {setup_raw_s:.4f}, tasks_per_s {completed / phase.wall:.4f}, "
        f"task_p50_ms {1000 * statistics.median(raw):.4f}, "
        f"task_tail_ms {1000 * raw[tail_index]:.4f}",
    ]
    return metrics, notes


def per_layer(workload, untraced, traced, coverage, coverage_untraced, tracer, speed, names):
    metrics, baselines, own_combine_share = layer_metrics(tracer.spans)
    # Both sides at the reference speed: traced pass / mean untraced pass.
    untraced_s = sum(map(sum, untraced.normalized(speed)))
    untraced_pass_s = untraced_s * len(workload.tasks) / untraced.attempted
    metrics["trace.overhead_ratio"] = sum(map(sum, traced.normalized(speed))) / untraced_pass_s
    # cli.* latencies: the workload's own untraced runs where it has CLI
    # tasks (cli-mix), else the untraced coverage pass.
    by_label = {}
    for source, phase in ((workload, untraced), (coverage, coverage_untraced)):
        own = {}
        for task, times in zip(source.tasks, phase.normalized(speed)):
            own.setdefault(source.label(task), []).extend(times)
        for label, samples in own.items():
            by_label.setdefault(label, samples)
    for name in names:
        if name.startswith("cli.") and name.endswith(".p50_ms"):
            samples = by_label[name[len("cli."):-len(".p50_ms")]]
            metrics[name] = 1000 * statistics.median(samples)
    notes = [
        f"baseline {key}: median {row['median_ms']:.3f} ms per call over "
        f"{row['calls']} calls (median size {row['median_size']})"
        for key, row in baselines.items()
    ]
    notes.append(f"volumes.combine share of the workload's own task time: {own_combine_share:.4f}")
    return metrics, notes


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_all(args, spec):
    """Run every workload in its own process and print one combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{w['name']}.{name}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec)
    if sys.flags.optimize:
        print("run without -O: the program's assertions are part of the checks", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    if args.setup_only:
        return report_setup(args)
    import_program()
    from workloads import WORKLOADS, Coverage

    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        speed = Speedometer()
        if args.trace == 0:
            setup_raw_s, setup_s = measure_setup(args.workload, args.seed)
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        if args.trace == 0:
            phase = run_phase(workload, args.seconds, speed=speed)
            metrics, notes = end_to_end(phase, setup_raw_s, setup_s, speed)
            phases = [phase]
            declared = spec["end_to_end"]
        else:
            coverage = Coverage(args.seed, str(workdir))
            untraced = run_phase(
                workload, args.seconds / 2 if args.workload == "cli-mix" else 0, speed=speed
            )
            coverage_untraced = run_phase(coverage, 0, speed=speed)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, 0, tracer=tracer, speed=speed)
                coverage_traced = run_phase(
                    coverage, 0, tracer=tracer, coverage=True, speed=speed
                )
            finally:
                tracer.uninstall()
            declared = spec["per_layer"]
            names = [m["name"] for m in declared]
            metrics, notes = per_layer(
                workload, untraced, traced, coverage, coverage_untraced, tracer, speed, names
            )
            tracer.write(RUN_DIR / f"spans-{args.workload}.jsonl.gz")
            phases = [untraced, coverage_untraced, traced, coverage_traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatch = set(metrics) ^ {m["name"] for m in declared}
    if mismatch:
        raise SetupError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": sys.version.split()[0],
           "nproc": len(os.sched_getaffinity(0)), "revision": revision()}
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for p in phases:
        for error in p.errors[:20]:
            print(f"# FAILED {error}")
    print(f"# failed_ratio {failed / attempted} ({failed} of {attempted} tasks)")
    for note in notes:
        print(f"# {note}")
    for m in declared:
        print(f"{m['name']} {metrics[m['name']]} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

"""Benchmark of the delius pipeline, run through its own command line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The seed fixes the generated inputs.
Each repetition runs the workload's ``delius`` commands in fresh
processes, one at a time (a closed loop with one client: a process
starts when the previous one exits), with BLAS single-threaded.
Repetitions continue until ``--seconds`` is used up (at least three),
and every end-to-end metric is the median over them.  Every repetition
is checked: exit codes, expected artifacts, a finite silhouette, the
accuracy floor, a joint loss that training lowered, and artifact
digests identical to the first repetition's.  Stage times (pretrain,
cluster, eval, project, baseline) come from spans around the few stage
entry points and are printed as medians too.

Times are CPU times in reference seconds: ``cpu_s`` is the user and
system time of the workload's processes, and ``setup_s`` sums, over the
processes, the CPU time each used before its first stage call
(interpreter start, imports, argument parsing, input reads, network
build).  On a shared host the time a process waits for a core makes
wall times jump: one 10-seed sweep of ``stage-chain`` gave a wall-time
spread of 0.32 and a CPU-time spread of 0.10.  ``wall_s`` and
``setup_wall_s`` are printed, not reported.  CPU time itself swings by
1.6-2x for stretches of 0.2-2 s with other tenants' load on the core
behind a virtual CPU (see ``calibrate.py``), so the run keeps itself and its children on one CPU and times the fixed
computation of ``calibrate.py`` on it before and after every
repetition.  A repetition's CPU times are scaled by
``REFERENCE_S / (mean of the two calibrations)``: seconds on the
reference host when quiet.  On a busy stretch of the host, 26
repetitions of ``paper-deep`` had a spread of raw CPU time of 0.13 and
of scaled CPU time of 0.04; on a quiet stretch both read 0.04-0.07 over
runs of three repetitions.  The raw CPU seconds are printed as
``cpu_raw_s`` and ``setup_raw_s``, the calibration as ``calibration_s``.

The digests are also
compared with those the seed code left for the same seed, recorded in
``baseline.json``; a difference is printed, not failed, since a change
may alter the numbers on purpose.

With ``--trace 1`` the run alternates untraced and traced repetitions
(at least two pairs), in which spans are recorded around every function
of every layer (see ``tracer.py``), and reports the per-layer metrics
instead: medians over the traced repetitions, stage times from the
untraced ones, and ``trace.overhead_s``, the time the traced processes
spent patching and in the wrappers' own bookkeeping.  The median of the
traced minus the untraced wall time of each pair is printed as well
(``trace.wall_delta_s``); on a host whose speed drifts it shows the
drift more than the tracing.  Every repetition must leave
byte-identical artifacts, and every count must have been measured.
Every per-layer metric BENCHMARK.json lists is reported on every
workload: 0 if the workload never calls the function, and null if the
function no longer exists.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric with its unit, the environment and the digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy

import spans as spanlib
from calibrate import REFERENCE_S
from tracer import STAGES, counted_by
from workloads import ACC_FLOOR, WORKLOADS, Workload, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
WORK = os.path.join(ROOT, ".perfbench_work")
BASELINE = os.path.join(HERE, "baseline.json")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3  # untraced repetitions; traced runs make at least MIN_PAIRS pairs
MIN_PAIRS = 2
LAST_START_S = 120.0  # no repetition starts later than this into a run
DEADLINE_S = 160.0  # a process still running this far into a run is killed
ADAM_BYTES_PER_ELEMENT = 7 * 8  # reads p, g, m, v and writes p, m, v, all f64


@dataclass
class Invocation:
    code: int
    spawned: float
    exited: float
    cpu_s: float
    maxrss_mb: float
    record: dict | None  # what tracer.py wrote, None if it wrote nothing


@dataclass
class Rep:
    mode: str  # "stages" (untraced) or "layers" (traced)
    invocations: list[Invocation] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    calibration_s: float | None = None  # mean CPU seconds of the calibrations around it

    def check(self, what: str, ok: bool) -> bool:
        self.checks.append((what, ok))
        return ok

    @property
    def wall_s(self) -> float:
        return self.invocations[-1].exited - self.invocations[0].spawned


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def invoke(argv, mode, cwd, log_path, spans_path, timeout) -> Invocation:
    """Run one delius command under tracer.py; rusage comes from that child alone."""
    if os.path.exists(spans_path):
        os.remove(spans_path)
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, TRACER, mode, spans_path, *argv],
            cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = None
    if os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            record = json.load(fh)
    return Invocation(
        code=proc.returncode,
        spawned=spawned,
        exited=exited,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        record=record,
    )


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the one the
    calibrations time; a host without affinity control runs unpinned."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def calibration() -> float:
    """CPU seconds of ``calibrate.py``'s fixed computation, run now."""
    out = subprocess.run([sys.executable, CALIBRATE], env=child_env(), capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout.split()[-1])


def digests(directory: str) -> dict[str, str]:
    """SHA-256 of every numeric artifact; manifests carry wall times and are left out."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith("manifest.json"):
            continue
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_rep(workload: Workload, inputs, seed, directory, mode, deadline) -> Rep:
    os.makedirs(directory)
    rep = Rep(mode)
    commands = workload.commands(*inputs, seed)
    for i, argv in enumerate(commands):
        timeout = max(1.0, deadline - time.monotonic())
        inv = invoke(argv, mode, directory, f"{directory}.{i}.log", f"{directory}.{i}.spans.json", timeout)
        rep.invocations.append(inv)
        if not rep.check(f"exit code of `delius {argv[0]}`", inv.code == 0):
            for later in commands[i + 1 :]:  # they need this command's outputs
                rep.check(f"exit code of `delius {later[0]}` (not run)", False)
            return rep
    present = set(os.listdir(directory))
    rep.check("expected artifacts present", all(a in present for a in workload.artifacts))
    rep.digests = digests(directory)
    try:
        with open(os.path.join(directory, "report.json"), encoding="utf-8") as fh:
            rep.report = json.load(fh)
    except (OSError, ValueError):
        rep.report = {}
    sc = rep.report.get("sc")
    rep.check("report.json parses with a finite sc", isinstance(sc, float) and math.isfinite(sc))
    acc = rep.report.get("acc_style")
    rep.check(f"acc_style >= {ACC_FLOOR}", isinstance(acc, float) and acc >= ACC_FLOOR)
    kl = kl_history(os.path.join(directory, workload.history))
    rep.check("training lowered the joint loss (kl_full, last refresh below the first)",
              len(kl) >= 2 and kl[-1] < kl[0])
    for name in unmeasured(rep.invocations):
        rep.check(f"counts measured for {name}", False)
    return rep


def unmeasured(invocations: list[Invocation]) -> list[str]:
    """Functions whose counts could not be taken (their signature changed)."""
    return sorted({key.removesuffix(".measure_failed") for inv in invocations
                   for span in (inv.record or {}).get("spans", ())
                   for key in span["counts"] if key.endswith(".measure_failed")})


def kl_history(path: str) -> list[float]:
    """``kl_full`` of each refresh in the joint loop's history file."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        return [float(row[2]) for row in rows]
    except (OSError, ValueError, IndexError):
        return []


def tally(reps: list[Rep]) -> tuple[int, int]:
    """Invocations and output checks attempted, and how many of them failed."""
    checks = [ok for rep in reps for _, ok in rep.checks]
    return len(checks), checks.count(False)


def end_to_end(rep: Rep) -> dict[str, float]:
    """The end-to-end metrics of one repetition, and the wall times behind them."""
    setup_cpu = setup_wall = 0.0
    for inv in rep.invocations:
        first = spanlib.first_stage(inv.record["spans"], STAGES) if inv.record else None
        if first is not None:
            setup_cpu += first["cpu_start"]
            setup_wall += first["start"] - inv.spawned
    cpu = sum(inv.cpu_s for inv in rep.invocations)
    scale = REFERENCE_S / rep.calibration_s
    return {
        "wall_s": rep.wall_s,
        "cpu_s": cpu * scale,
        "setup_s": setup_cpu * scale,
        "cpu_raw_s": cpu,
        "setup_raw_s": setup_cpu,
        "calibration_s": rep.calibration_s,
        "setup_wall_s": setup_wall,
        "peak_rss_mb": max(inv.maxrss_mb for inv in rep.invocations),
        "acc": rep.report.get("acc_style"),
        "sc": rep.report.get("sc"),
    }


def stage_times(rep: Rep) -> dict[str, float]:
    """Seconds in each stage's outermost calls, summed over the repetition's processes."""
    out = dict.fromkeys(sorted(set(STAGES.values())), 0.0)
    for inv in rep.invocations:
        if inv.record:
            for stage, seconds in spanlib.stage_seconds(inv.record["spans"], STAGES).items():
                out[stage] += seconds
    return out


def per_layer(reps: list[Rep]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced repetitions, stage times
    over the untraced ones, and the median wall-time difference of the pairs."""
    traced = [rep for rep in reps if rep.mode == "layers"]
    untraced = [rep for rep in reps if rep.mode == "stages"]
    samples = [layer_sample(rep) for rep in traced]
    out = {key: statistics.median(s.get(key, 0) for s in samples)
           for key in sorted({key for s in samples for key in s})}
    out["trace.wall_delta_s"] = statistics.median(
        t.wall_s - u.wall_s for u, t in zip(untraced, traced)
    )
    stages = [stage_times(rep) for rep in untraced]
    for stage in stages[0]:
        out[f"stage.{stage}_s"] = statistics.median(sample[stage] for sample in stages)
    return out


def layer_sample(traced: Rep) -> dict[str, float]:
    """Per-layer metrics from one traced repetition's spans."""
    out: dict[str, float] = {}
    other = 0.0
    imports = 0.0
    bookkeeping = 0.0
    for inv in traced.invocations:
        record = inv.record or {"spans": [], "import_s": None}
        for key, value in spanlib.aggregate(record["spans"]).items():
            out[key] = out.get(key, 0) + value
        import_s = record["import_s"] or 0.0
        imports += import_s
        bookkeeping += record.get("trace_s", 0.0)
        if "end" in record:
            covered = sum(s["end"] - s["start"] for s in spanlib.top_level(record["spans"]))
            other += record["end"] - record["start"] - import_s - covered
    backward = out.get("neural.backward.flops", 0)
    out["neural.backward.discarded_flops_frac"] = (
        out.get("neural.backward.discarded_flops", 0) / backward if backward else 0.0
    )
    out["neural.adam.bytes"] = out.get("neural.adam.elements", 0) * ADAM_BYTES_PER_ELEMENT
    out["cli.import_s"] = imports
    out["cli.processes"] = len(traced.invocations)
    out["cli.other_s"] = other
    out["trace.overhead_s"] = bookkeeping
    return out


def with_absent(values: dict[str, float], names, reps: list[Rep]) -> dict[str, float | None]:
    """``values`` for ``names`` too, 0 where the function exists but was not
    called and None where no traced process found a function to wrap."""
    found = {name for rep in reps for inv in rep.invocations
             for name in (inv.record or {}).get("wrapped", ())}
    out: dict[str, float | None] = {}
    for name in sorted(set(values) | set(names)):
        sources = counted_by(name)
        out[name] = None if sources and not found.intersection(sources) else values.get(name, 0)
    return out


def seed_code_digests(workload: str, seed: int) -> dict[str, str] | None:
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            recorded = json.load(fh)["workloads"][workload]["digests"]
    except (OSError, ValueError, KeyError):
        return None
    return recorded.get(str(seed))


def compare_digests(found: dict[str, str], recorded: dict[str, str] | None) -> str:
    if recorded is None:
        return "not recorded for this seed"
    differ = sorted(name for name in set(found) | set(recorded)
                    if found.get(name) != recorded.get(name))
    return "identical" if not differ else "differ in " + ", ".join(differ)


def environment(reps: list[Rep]) -> str:
    try:
        from importlib.metadata import version

        scipy_version = version("scipy")
    except Exception:
        scipy_version = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']}-{blas['version']}"
    except Exception:
        blas = "unknown"
    threads = [inv.record["threads"] for rep in reps for inv in rep.invocations
               if inv.record and inv.record.get("threads") is not None]
    return (
        f"env python={sys.version.split()[0]} numpy={numpy.__version__} scipy={scipy_version} "
        f"blas={blas} nproc={os.cpu_count()} "
        f"child_threads_max={max(threads) if threads else 'unknown'} "
        + " ".join(f"{var}=1" for var in THREAD_VARS)
    )


def describe(values: list[float]) -> str:
    if len(values) == 1:
        return "1 sample"
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "delius", "cli.py")):
        print(f"perfbench: no delius sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    pin_to_one_cpu()
    directory = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    try:
        return measure(spec, workload, args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is using it


def repetitions(workload: Workload, args, directory: str) -> list[Rep]:
    """Run the workload until ``--seconds`` is used up: untraced repetitions,
    each between two calibrations, or pairs of an untraced and a traced one."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    inputs = make_inputs(workload, directory, args.seed)
    # Compiles the package's bytecode, so the first repetition pays no more
    # set-up than the rest.
    invoke(["--help"], "stages", directory, f"{directory}/warmup.log",
           f"{directory}/warmup.json", DEADLINE_S)
    modes, least = (("stages", "layers"), MIN_PAIRS) if args.trace else (("stages",), MIN_REPS)
    reps: list[Rep] = []
    calibrations: list[float] = []
    timed = time.monotonic()
    while True:
        if not args.trace:
            calibrations.append(calibration())
        for mode in modes:
            reps.append(run_rep(workload, inputs, args.seed, f"{directory}/rep{len(reps)}",
                                mode, deadline))
        now = time.monotonic()
        rounds = len(reps) // len(modes)
        typical = (now - timed) / rounds
        if (rounds >= least and now - timed + typical > args.seconds
                or now - started + typical > LAST_START_S):
            break
    if not args.trace:
        calibrations.append(calibration())
        for rep, before, after in zip(reps, calibrations, calibrations[1:]):
            rep.calibration_s = (before + after) / 2
    return reps


def measure(spec, workload: Workload, args, directory: str) -> int:
    reps = repetitions(workload, args, directory)
    for rep in reps[1:]:
        rep.check("artifact digests equal the first repetition's", rep.digests == reps[0].digests)
    attempted, failed = tally(reps)
    correct = failed == 0
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {len(reps)} repetitions "
          f"of {len(reps[0].invocations)} process(es), closed loop, one process at a time")
    print(environment(reps))
    for index, rep in enumerate(reps):
        for what, ok in rep.checks:
            if not ok:
                print(f"FAILED check (repetition {index}): {what}")

    metrics = {}
    if correct and args.trace:
        listed = {metric["name"] for metric in spec["per_layer"]}
        values = with_absent(per_layer(reps), listed, reps)
        for name, value in values.items():
            if value is None:
                print(f"{name} absent: no function {' or '.join(counted_by(name))} to wrap")
            else:
                print(f"{name} {value:.6g}" + ("" if name in listed else " (unlisted)"))
        for metric in spec["per_layer"]:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    elif correct:
        samples = [end_to_end(rep) for rep in reps]
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
        for name in samples[0]:
            values = [sample[name] for sample in samples]
            median = statistics.median(values)
            if name in units:
                metrics[name] = {"value": median, "unit": units[name]}
            print(f"{name} {median:.6g} {units.get(name, 's')} ({describe(values)})"
                  + ("" if name in units else " (unlisted)"))
        stages = [stage_times(rep) for rep in reps]
        for stage in stages[0]:
            values = [sample[stage] for sample in stages]
            print(f"stage.{stage}_s {statistics.median(values):.6g} s ({describe(values)})")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} checks and invocations)")
    for name, digest in reps[0].digests.items():
        print(f"sha256 {digest} {name}")
    print("digests against the seed code's for this seed: "
          + compare_digests(reps[0].digests, seed_code_digests(workload.name, args.seed)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

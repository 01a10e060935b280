#!/usr/bin/env python3
"""The canstrip benchmark.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Workloads, reference digests and expected exit codes are in
``perfbench/workloads.json``.

With ``--trace 0`` each workload is a closed loop with one client: fresh
``python -m canstrip`` processes run one at a time on one CPU, the next
starting when the previous one exits, cycling through the workload's
invocations in an order drawn from the seed for about ``--seconds`` (every
invocation runs at least once).  The seed also sets each child's
``PYTHONHASHSEED``.  Every output is checked against its sha256 and exit
code.  The bounded time is ``wall_norm`` (see `run_timed`); the raw wall
and CPU times are printed too.

With ``--trace 1`` one pass of the invocations runs untraced in fresh
processes and then traced in this process through ``canstrip.cli.main``,
with every layer wrapped from outside (see ``layer_trace.py``); the spans
are written to ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output matched its reference, 1 otherwise, and 2 when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = HERE / "workloads.json"
SETUP_PER_INVOCATION = 4
SETUP_MIN = 20
REFERENCE_UNITS = 60
REFERENCE_REPS = 5
# bounded times are rescaled to a CPU that runs reference_work in this time,
# about what one vCPU of the shared 2.1 GHz Xeon host the bounds were set on takes
REFERENCE_NOMINAL_S = 0.17


@dataclass
class Outcome:
    """One invocation of the program."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    sha256: str
    stderr: str = ""


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def seeded_order(count: int, seed: int) -> list[int]:
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def run_invocation(argv: list[str], env: dict) -> Outcome:
    """Run ``python -m canstrip ARGV`` to completion in a fresh process.

    CPU time and peak resident set come from wait4, so they cover the
    child and every process it waited for.
    """
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "canstrip", *argv], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   proc.returncode, hashlib.sha256(out).hexdigest(), stderr)


def matches(inv: dict, outcome: Outcome) -> bool:
    return outcome.exit_code == inv["exit"] and outcome.sha256 == inv["sha256"]


def reference_work() -> None:
    """A fixed exact-arithmetic computation like the program's hot loop
    (a product of two dense polynomials over the rationals), written with
    the standard library only, so no change to the program moves it."""
    for _ in range(REFERENCE_UNITS):
        a = [Fraction(i + 1, 3 * i + 7) for i in range(24)]
        b = [Fraction(2 * i + 1, i + 5) for i in range(24)]
        out = [Fraction(0)] * 47
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y


def time_reference() -> list[float]:
    """Times of a few runs of `reference_work`: how fast this CPU is
    running right now."""
    times = []
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return times


@contextlib.contextmanager
def pinned_to_one_cpu():
    """Run this process and its children on one CPU, so the reference
    timings and the invocations see the same CPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def time_setup(env: dict) -> float:
    """Wall time from a fresh interpreter start until ``import canstrip.cli``
    finishes."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import canstrip.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def run_timed(workload: dict, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one run, tracing off.

    Invocations run until the next one is not expected to finish within
    `seconds` (by the median of its earlier runs); every invocation runs at
    least once.  Set-up is timed in the gaps before each invocation, so its
    samples spread over the whole run.

    The CPUs of a shared host change speed by tens of percent within
    minutes, and wall and set-up times follow.  So both are rescaled by
    REFERENCE_NOMINAL_S over the mean of reference timings taken on the same
    CPU before the first and after every invocation: `wall_norm` and
    `setup_s` are the bounded metrics, the raw times are printed as well.
    The mean, not the median, because the CPU flips between a fast and a
    slow speed within seconds and the invocations average over both.
    """
    env = child_env(seed)
    invocations = workload["invocations"]
    order = seeded_order(len(invocations), seed)
    samples: dict[int, list[Outcome]] = {i: [] for i in order}
    setups: list[float] = []
    attempted = failed = 0
    with pinned_to_one_cpu():
        time_setup(env)  # unmeasured: leaves the bytecode cache written
        start = time.perf_counter()
        references = time_reference()
        for k in itertools.count():
            i = order[k % len(order)]
            if samples[i]:
                expected = statistics.median(o.wall_s for o in samples[i])
                if time.perf_counter() - start + expected > seconds:
                    break
            setups.extend(time_setup(env) for _ in range(SETUP_PER_INVOCATION))
            inv = invocations[i]
            outcome = run_invocation(inv["argv"], env)
            references.extend(time_reference())
            samples[i].append(outcome)
            attempted += inv["cases"]
            if not matches(inv, outcome):
                failed += inv["cases"]
                report_mismatch(inv, outcome)
        while len(setups) < SETUP_MIN:
            setups.append(time_setup(env))
    # one pass is every invocation once; each contributes its median
    wall = sum(statistics.median(o.wall_s for o in s) for s in samples.values())
    cpu = sum(statistics.median(o.cpu_s for o in s) for s in samples.values())
    cases = sum(inv["cases"] for inv in invocations)
    rss = max(o.rss_mb for s in samples.values() for o in s)
    setup = statistics.median(setups)
    speed = REFERENCE_NOMINAL_S / statistics.fmean(references)
    return {
        "attempted": attempted,
        "failed": failed,
        "invocations": k,
        "printed": {
            "wall_s": (wall, "s"),
            "cpu_s": (cpu, "s"),
            "cases_per_s": (cases / wall, "1/s"),
            "setup_raw_s": (setup, "s"),
        },
        "metrics": {
            "wall_norm": (wall * speed, "s"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup * speed, "s"),
        },
    }


def run_traced(workload: dict, seed: int, trace_path: Path, header: str = "") -> dict:
    """The per-layer metrics of one traced pass over the invocations.

    The tracing overhead compares the traced calls with the same
    invocations run untraced in fresh processes, which also pay the
    interpreter's set-up (about 1% of these workloads)."""
    sys.path.insert(0, str(SRC))
    import canstrip.cli

    import layer_trace

    env = child_env(seed)
    invocations = workload["invocations"]
    tracer = layer_trace.Tracer()
    attempted = failed = 0
    untraced = traced = 0.0
    with tracer.installed():
        for i in seeded_order(len(invocations), seed):
            inv = invocations[i]
            base = run_invocation(inv["argv"], env)
            untraced += base.wall_s
            buf = io.StringIO()
            tracer.begin_invocation()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = canstrip.cli.main(list(inv["argv"]))
            except Exception:
                traceback.print_exc()
                code = -1
            traced += time.perf_counter() - start
            digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            for o in (base, Outcome(0.0, 0.0, 0.0, code, digest)):
                attempted += inv["cases"]
                if not matches(inv, o):
                    failed += inv["cases"]
                    report_mismatch(inv, o)
        tracer.harvest_cache_hits()
    metrics = layer_trace.layer_metrics(tracer, (traced - untraced) / untraced)
    tracer.write(trace_path, header)
    return {"attempted": attempted, "failed": failed, "invocations": len(invocations),
            "metrics": metrics}


def report_mismatch(inv: dict, outcome: Outcome) -> None:
    print(f"MISMATCH canstrip {' '.join(inv['argv'])}: exit {outcome.exit_code} "
          f"(expected {inv['exit']}), sha256 {outcome.sha256} (expected {inv['sha256']})"
          + (f"\n{outcome.stderr[-2000:]}" if outcome.stderr else ""), file=sys.stderr)


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    """What a run needs to be compared with another: interpreter, cores,
    revision, and the load left by other processes when it started."""
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = "unknown"
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git": git_revision(),
        "loadavg": loadavg,
    }


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "canstrip" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'canstrip'} is missing", file=sys.stderr)
        return 2
    workloads = json.loads(WORKLOADS.read_text(encoding="utf-8"))["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    run_stamp = json.dumps(stamp())
    print("stamp " + run_stamp, flush=True)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        result = run_traced(workload, args.seed, OUT_DIR / f"trace-{args.workload}.tsv.gz",
                            run_stamp)
    else:
        result = run_timed(workload, args.seed, args.seconds)
    ops = result["attempted"]
    print(f"workload {args.workload}: {result['invocations']} invocations, {ops} operations")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value} {unit}")
    # printed by name but left out of the result line: raw times move with
    # the host's speed (see run_timed), and failed_frac is 0 when the program
    # is correct, so it is carried by `failed` and the exit code instead
    for name, (value, unit) in result.get("printed", {}).items():
        print(f"{name} {value} {unit}")
    print(f"failed_frac {result['failed'] / ops} ratio")
    print(result_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

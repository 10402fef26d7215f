"""Benchmark of the `localh` CLI, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Set-up (importing `localh` and writing the seeded input files, see
inputs.py) runs SETUP_REPEATS times in fresh processes; `setup_s` is the
median of their CPU times.  Then this process calls `localh.cli.main(argv)`
in a closed loop with one caller: the seed-independent head block once,
then the seeded blocks in turn, cycling, until S seconds of wall time have
passed.  Items are timed in CPU time of this process (all its threads),
which leaves out the time the host gives the CPU to other guests.  It
checks every output (checks.py).  An item fails on a non-zero exit code,
an exception or a failed check; the run goes on.

The last line of standard output is the result: end-to-end metrics with
--trace 0, per-layer metrics from tracing.py with --trace 1.  The line
before it records the machine, the seed, the item counts and the time of a
fixed loop before and after the items and the host's steal share during
them, which show host drift.
`--workload all` runs every workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
WORKLOADS = ("search", "validate", "identities", "cdindex")
SETUP_REPEATS = 3
P90_MIN_ITEMS = 100


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop, to tell host drift from program change."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of the host's CPUs so far, where /proc/stat exists."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_setup(workload: str, seed: int, out: str) -> float:
    """One set-up in a fresh process; its CPU time, user and system."""
    shutil.rmtree(out, ignore_errors=True)
    before = children_cpu_s()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"),
         "--workload", workload, "--seed", str(seed), "--out", out],
        check=True,
    )
    return children_cpu_s() - before


def run_item(cli, item: dict, checks) -> tuple[float, list[str]]:
    """One CLI call, timed in CPU time; the output check runs after the clock stops."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(item["argv"])
    except (Exception, SystemExit) as exc:
        return time.process_time() - start, [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.process_time() - start
    if code != 0:
        return elapsed, [f"exit code {code}: {stderr.getvalue().strip()[:200]}"]
    try:
        return elapsed, checks.CHECKS[item["check"]](stdout.getvalue(), item)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return elapsed, [f"malformed output ({type(exc).__name__}: {exc})"]


def run_workload(args) -> int:
    sys.path.insert(0, HERE)
    import checks

    inputs = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        setup = [run_setup(args.workload, args.seed, inputs) for _ in range(SETUP_REPEATS)]
        with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)

        sys.path.insert(0, os.path.join(ROOT, "src"))
        from localh import cli

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()

        host_before = host_loop_ms()
        jiffies_before = cpu_jiffies()
        times: list[float] = []
        failed = 0
        busy = 0.0
        block_s: list[float] = []
        loop_start = time.perf_counter()
        for block in itertools.chain([manifest["head"]], itertools.cycle(manifest["blocks"])):
            block_start = busy
            for item in block:
                if tracer is not None:
                    tracer.item = len(times)
                elapsed, problems = run_item(cli, item, checks)
                times.append(elapsed)
                busy += elapsed
                if problems:
                    failed += 1
                    if failed <= 5:
                        print(f"item {item['argv']} failed: {problems[:3]}", file=sys.stderr)
            block_s.append(busy - block_start)
            if time.perf_counter() - loop_start >= args.seconds:
                break
        loop_wall = time.perf_counter() - loop_start
        jiffies_after = cpu_jiffies()
        host_after = host_loop_ms()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    attempted = len(times)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "items": attempted,
        "blocks": len(block_s) - 1,
        "head_s": block_s[0],
        "block_s": block_s[1:],
        "loop_wall_s": loop_wall,
        "item_cpu_s": busy,
        "setup_runs_s": setup,
        "host_loop_ms": [host_before, host_after],
    }
    if jiffies_before and jiffies_after and jiffies_after[1] > jiffies_before[1]:
        info["host_steal_share"] = (
            (jiffies_after[0] - jiffies_before[0]) / (jiffies_after[1] - jiffies_before[1]))
    if tracer is None:
        q = statistics.quantiles(times, n=10)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (attempted / busy, "1/s"),
            "item_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "item_p90_ms": (q[8] * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        if attempted < P90_MIN_ITEMS:
            info["warning"] = f"only {attempted} items; item_p90_ms has fewer than 10 beyond it"
    else:
        os.makedirs(RUNS, exist_ok=True)
        span_file = os.path.join(RUNS, f"trace-{args.workload}-seed{args.seed}.json.gz")
        tracer.write(span_file)
        info["spans"] = len(tracer.spans)
        info["span_file"] = os.path.relpath(span_file, ROOT)
        metrics = tracer.metrics()
        metrics["traced.items"] = (attempted, "count")
        metrics["traced.items_per_s"] = (attempted / busy, "1/s")
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print(json.dumps({"workload": workload, "exit": proc.returncode,
                          "result": json.loads(lines[-1]) if proc.returncode == 0 else None}))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the localh CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "localh", "cli.py")):
        print(f"no localh sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())

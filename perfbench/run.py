"""Benchmark of the qclone command-line pipeline.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

With --trace 0 each command runs as its own `python -m qclone.cli` process,
import included, the way a user runs it, and the end-to-end metrics are
printed.  With --trace 1 the same commands run in-process through
`qclone.cli.main` with timing wrappers around the package's public functions,
and the per-layer metrics are printed.  Either way every output table is
checked, and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  End-to-end times are
reported at the host's fast speed level (see PROBE_NOMINAL_S).  A fuller record (environment,
per-command timings, output digests, check failures) is written under
.perfbench/results/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from statistics import fmean, median

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Pin BLAS/OpenMP pools to one thread: idle pool threads otherwise add CPU
# time to every child, and the workloads are one process at a time.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120.0
SETUP_REPEATS = 3
# A run makes three to five passes, as the host's speed allows.  The tail
# percentile is set by the count of a three-pass run, not by the run's own,
# so that every run of a workload reports the same percentile: one between
# its light and heavy commands would jump from run to run.
TAIL_PASSES = 3
# Host speed probe.  On a shared host a vCPU runs for seconds to minutes at
# a time at speed levels up to 1.5x apart, which moves every wall time
# measured in that stretch alike.  The benchmark and its children are pinned
# to one CPU, and a fixed pure-Python loop, timed in this process after each
# set-up and each command, reads that CPU's level.  Every time of a run is
# scaled by PROBE_NOMINAL_S / (mean probe time of the run), that is,
# reported at the host's fast level (a 2.0 GHz x86-64 vCPU runs PROBE_LOOPS
# in 15 ms there).  The mean, not the median: the probe sits at one of two
# levels about 1.4x apart, and the share of time at each is what slows a
# run.  The loop runs no qclone code, so a change to the program cannot
# move it.
PROBE_LOOPS = 200_000
PROBE_REPEATS = 3
PROBE_NOMINAL_S = 0.015


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, workdir: Path, env: dict) -> dict:
    """Run one `python -m qclone.cli` process; wall time, peak RSS, exit code."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "qclone.cli", *argv],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit": proc.returncode,
        "stdout": out_path.read_text(errors="replace"),
        "stderr_tail": err_path.read_text(errors="replace")[-400:],
    }


def probe() -> float:
    """Seconds of the fixed reference loop, the best of PROBE_REPEATS."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def setup(workload: str, seed: int, tiny: bool, env: dict):
    """Make the inputs and a fresh work directory, and warm the caches.

    The warm-up `schema` process fills the page cache and the bytecode
    cache, which a fresh checkout has not written yet.
    """
    start = time.perf_counter()
    workdir = STATE / "work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmds = workloads.commands(workload, seed, tiny)
    warm = run_child(("schema",), workdir, env)
    if warm["exit"] != 0:
        raise RuntimeError(f"warm-up `qclone schema` failed: {warm['stderr_tail']}")
    return time.perf_counter() - start, workdir, cmds


def run_passes(cmds, seconds: float, workdir: Path, env: dict, after=None) -> list[list[dict]]:
    """Run every command in order, pass after pass; one result list per pass.

    Another pass starts only if it should end within `seconds` of the first,
    judged by the last pass's time; there is always at least one.

    `after(cmd, workdir)` runs between a command and its checks; the smoke
    test uses it to corrupt an output table.
    """
    results = []
    start = time.perf_counter()
    pass_s = 0.0
    while not results or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        done = []
        for cmd in cmds:
            res = run_child(cmd.argv, workdir, env)
            res["probe_s"] = probe()
            if after is not None:
                after(cmd, workdir)
            stdout = res.pop("stdout")
            res.update(checks.verdict(cmd, workdir, res["exit"], stdout),
                       groups=cmd.groups, points=cmd.points)
            done.append(res)
        results.append(done)
        pass_s = time.perf_counter() - pass_start
    return results


def tail_percentile(values, n: int):
    """The highest percentile with at least ten of `n` samples above it, not
    below p50, and the value of `values` there (interpolated)."""
    pct = max(50.0, 100.0 * (n - 11) / (n - 1))
    s = sorted(values)
    pos = pct / 100.0 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo), pct


def rate(flat, kind: str, work: str, slowdown: float) -> float:
    """Throughput of the `kind` commands of a run: the median over those
    commands of their work over their time."""
    return median(r[work] * slowdown / r["wall_s"] for r in flat if r["kind"] == kind)


def end_to_end_metrics(setup_times, pass_results, setup_probes=()) -> tuple[dict, dict]:
    """Every time is taken at the host's fast level (see PROBE_NOMINAL_S)."""
    flat = [r for done in pass_results for r in done]
    slowdown = fmean([*setup_probes, *(r["probe_s"] for r in flat)]) / PROBE_NOMINAL_S
    cmd_ms = [1e3 * r["wall_s"] / slowdown for r in flat]
    tail, tail_pct = tail_percentile(cmd_ms, TAIL_PASSES * len(pass_results[0]))
    failed = sum(not r["ok"] for r in flat)
    values = {
        "setup_s": median(setup_times) / slowdown,
        "wall_s": median(sum(r["wall_s"] for r in done) for done in pass_results) / slowdown,
        "cmd_ms.p50": median(cmd_ms),
        "cmd_ms.tail": tail,
        "cold_start_ms": median(1e3 * r["wall_s"] for r in flat if r["kind"] == "schema")
        / slowdown,
        "simulate_groups_per_s": rate(flat, "simulate", "groups", slowdown),
        "calibrate_groups_per_s": rate(flat, "calibrate", "groups", slowdown),
        "pooled_groups_per_s": rate(flat, "pooled", "groups", slowdown),
        "sweep_points_per_s": rate(flat, "robustness", "points", slowdown),
        "peak_rss_mb": max(r["rss_mb"] for r in flat),
        "ops_ok_frac": 1.0 - failed / len(flat),
    }
    extra = {
        "cmd_count": len(flat),
        "cmd_ms.tail_percentile": tail_pct,
        "ops_failed_frac": failed / len(flat),
        "child_cpu_over_wall": sum(r["cpu_s"] for r in flat) / sum(r["wall_s"] for r in flat),
        "host_slowdown": slowdown,
        **checks.accuracy_figures(pass_results[0]),
    }
    return values, extra


def environment(seed: int, env: dict, nproc: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": nproc,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
        "child_thread_env": {k: env[k] for k in THREAD_ENV},
        "child_command": [sys.executable, "-m", "qclone.cli"],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one pass, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qclone" / "cli.py").is_file():
        print(f"error: no qclone sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # one CPU for this process and, by inheritance, every child: the probe
    # then reads the speed of the CPU the commands run on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    env = child_env()
    record = {"workload": args.workload, "trace": args.trace, "tiny": args.tiny,
              "environment": environment(args.seed, env, len(cpus))}

    if args.trace:
        import tracing

        _, workdir, cmds = setup(args.workload, args.seed, args.tiny, env)
        spans_path = STATE / "results" / f"{args.workload}-seed{args.seed}-spans.json"
        values, extra, verdicts = tracing.traced_run(
            cmds, workdir, args.seconds, env, spans_path
        )
        record.update(extra)
    else:
        setup_times, setup_probes = [], []
        for _ in range(SETUP_REPEATS):
            seconds, workdir, cmds = setup(args.workload, args.seed, args.tiny, env)
            setup_times.append(seconds)
            setup_probes.append(probe())
        pass_results = run_passes(cmds, 0.0 if args.tiny else args.seconds, workdir, env)
        values, extra = end_to_end_metrics(setup_times, pass_results, setup_probes)
        verdicts = [r for done in pass_results for r in done]
        record.update(extra, passes=len(pass_results), setup_times_s=setup_times, commands=pass_results)

    failed = sum(not v["ok"] for v in verdicts)
    section = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }
    record["result"] = result
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for key, val in record.items():
        if not isinstance(val, (dict, list)):
            print(f"# {key}: {val}")
    print(f"# environment: {json.dumps(record['environment'])}")
    for v in verdicts:
        if not v["ok"]:
            print(f"# FAILED {v['argv']}: {v['problems']}")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the running child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    sys.exit(main())

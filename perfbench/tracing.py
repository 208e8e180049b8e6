"""Traced in-process run: per-layer spans and counts around qclone's public
functions.

The wrappers are installed from here, not from inside the package.  Each
wrapped function is replaced wherever a qclone module holds a reference to
it, so `qclone.cli.run_experiment` and `qclone.detection.run_experiment` are
both covered, as are calls between modules such as detection's use of
`apply_cloner` and `tensor`.  Spans are kept in memory and written once at
the end.  The robustness functions run once or more per grid point, so they
are aggregated per parent span (calls and summed time) instead of stored.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

import checks

# name -> (module, attribute); stored as one span per call
SPAN_TARGETS = {
    "cli.write_table": ("qclone.cli", "write_table"),
    "estimation.calibrate": ("qclone.estimation", "calibrate"),
    "estimation.calibrate_pooled": ("qclone.estimation", "calibrate_pooled"),
    "estimation.report": ("qclone.estimation", "report"),
    "estimation.minimize": ("qclone.estimation", "minimize"),
    "detection.run_experiment": ("qclone.detection", "run_experiment"),
    "detection.ideal_probabilities": ("qclone.detection", "ideal_probabilities"),
    "detection.sample_counts": ("qclone.detection", "sample_counts"),
    "detection.write_records": ("qclone.detection", "write_records"),
    "detection.read_records": ("qclone.detection", "read_records"),
    "cloner.apply_cloner": ("qclone.cloner", "apply_cloner"),
    "cloner.machine_triple": ("qclone.cloner", "machine_triple"),
    "states.tensor": ("qclone.states", "tensor"),
}
# name -> (module, attribute); aggregated per parent span
AGGREGATE_TARGETS = {
    "robustness.eta_from_mismatch": ("qclone.robustness", "eta_from_mismatch"),
    "robustness.biased_mean": ("qclone.robustness", "biased_mean"),
    "robustness.biased_mean_b": ("qclone.robustness", "biased_mean_b"),
    "robustness.taylor_form": ("qclone.robustness", "taylor_form"),
    "robustness.taylor_form_b": ("qclone.robustness", "taylor_form_b"),
    "robustness.error_bound": ("qclone.robustness", "error_bound"),
    "robustness.evaluate": ("qclone.robustness", "QuadraticErrorForm.evaluate"),
    "robustness.max_eigenvalue": ("qclone.robustness", "QuadraticErrorForm.max_eigenvalue"),
}


def _written_bytes(result, args, kwargs):
    path = kwargs.get("path", args[2] if len(args) > 2 else "-")
    return {"bytes": os.path.getsize(path) if path != "-" else 0}


# Values read off a call after its span closes, outside the timed interval.
NOTES = {
    "cli.write_table": _written_bytes,
    "estimation.minimize": lambda result, args, kwargs: {"nfev": int(result.nfev)},
    "detection.read_records": lambda result, args, kwargs: {"records": len(result)},
}


class Tracer:
    """Spans and per-parent aggregates of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, cmd]
        self.notes: dict[int, dict] = {}
        self.aggregates: dict[tuple, list] = {}  # (name, parent) -> [calls, s, outermost s]
        self.stack: list[int] = []
        self.cmd: int | None = None
        self._agg_depth = 0

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.cmd])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if note is not None:
                self.notes[sid] = note(result, args, kwargs)
            return result

        return wrapper

    def aggregate(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._agg_depth == 0
            self._agg_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._agg_depth -= 1
                key = (name, self.stack[-1] if self.stack else None)
                acc = self.aggregates.setdefault(key, [0, 0.0, 0.0])
                acc[0] += 1
                acc[1] += elapsed
                if outermost:
                    acc[2] += elapsed

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": [s + [self.notes.get(i)] for i, s in enumerate(self.spans)],
            "aggregates": [[n, p, *acc] for (n, p), acc in self.aggregates.items()],
        }


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target; returns (owner, attribute, original) for `uninstall`."""
    modules = [m for n, m in sys.modules.items() if n == "qclone" or n.startswith("qclone.")]
    patched = []
    for targets, make in ((SPAN_TARGETS, tracer.span), (AGGREGATE_TARGETS, tracer.aggregate)):
        for name, (modname, attr) in targets.items():
            owner = importlib.import_module(modname)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, last)
            wrapper = make(name, orig, NOTES[name]) if name in NOTES else make(name, orig)
            if path:  # a method: patch the class attribute
                holders = [(owner, last)]
            else:
                holders = [(m, key) for m in modules for key, val in vars(m).items() if val is orig]
            for holder, key in holders:
                patched.append((holder, key, orig))
                setattr(holder, key, wrapper)
    return patched


def uninstall(patched: list[tuple]) -> None:
    for holder, key, orig in reversed(patched):
        setattr(holder, key, orig)


def import_times(env: dict, workdir: Path, repeats: int = 3) -> dict:
    """cli and estimation import time (ms) from `python -X importtime`, median of runs."""
    cli, est = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qclone.cli"],
            env=env, cwd=workdir, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import qclone.cli failed: {proc.stderr[-400:]}")
        cli_us = est_us = 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            cumulative, label = int(fields[1]), fields[2]
            name = label.strip()
            top_level = label.startswith(" ") and not label.startswith("  ")
            if top_level and (name == "qclone" or name.startswith("qclone.")):
                cli_us += cumulative
            if name == "qclone.estimation":
                est_us = cumulative
        cli.append(cli_us / 1e3)
        est.append(est_us / 1e3)
    return {"cli.import_ms": median(cli), "estimation.import_ms": median(est)}


def run_pass(main, cmds, workdir: Path, tracer: Tracer | None):
    """Run every command through `main(argv)`; (wall seconds, verdicts)."""
    wall = 0.0
    verdicts = []
    for i, cmd in enumerate(cmds):
        out = io.StringIO()
        start = time.perf_counter()
        sid = None
        if tracer is not None:
            tracer.cmd = i
            sid = tracer.open("cli.main")
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(list(cmd.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:  # a traceback is a failed command, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        finally:
            if sid is not None:
                tracer.close(sid)
        wall += time.perf_counter() - start
        verdicts.append(checks.verdict(cmd, workdir, code, out.getvalue()))
    return wall, verdicts


def layer_values(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per-pass counts, summed seconds and duration lists by span name."""
    counts, sums, durations = {}, {}, {}
    for name, start, end, _parent, _cmd in tracer.spans:
        counts[name] = counts.get(name, 0) + 1
        sums[name] = sums.get(name, 0.0) + end - start
        durations.setdefault(name, []).append(end - start)
    for (name, _parent), (calls, seconds, _outer) in tracer.aggregates.items():
        counts[name] = counts.get(name, 0) + calls
        sums[name] = sums.get(name, 0.0) + seconds
    return counts, sums, durations


def cli_self_seconds(tracer: Tracer) -> float:
    """Time in cli.main not covered by its direct child spans or robustness calls."""
    covered: dict[int, float] = {}
    for _name, start, end, parent, _cmd in tracer.spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + end - start
    for (_name, parent), (_calls, _seconds, outer) in tracer.aggregates.items():
        covered[parent] = covered.get(parent, 0.0) + outer
    return sum(
        end - start - covered.get(sid, 0.0)
        for sid, (name, start, end, _parent, _cmd) in enumerate(tracer.spans)
        if name == "cli.main"
    )


def traced_run(cmds, workdir: Path, seconds: float, env: dict, spans_path: Path):
    """Alternate untraced and traced in-process passes for about `seconds`.

    Returns (metrics, extra record fields, verdicts of every command).
    """
    start = time.perf_counter()
    imports = import_times(env, workdir)
    # the children's thread pins, set before numpy is first imported
    os.environ.update((k, v) for k, v in env.items() if k.endswith("_NUM_THREADS"))
    sys.path.insert(0, env["PYTHONPATH"])
    import qclone.cli

    main = qclone.cli.main
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        # one untraced pass first, so lazy imports and first-call costs land
        # in neither side of the comparison
        _, verdicts = run_pass(main, cmds, workdir, None)
        untraced, traced, tracers = [], [], []
        pair_s = 0.0
        # start another pair only if it should end within `seconds`
        while not tracers or time.perf_counter() - start + pair_s <= seconds:
            pair_start = time.perf_counter()
            wall, done = run_pass(main, cmds, workdir, None)
            untraced.append(wall)
            verdicts += done
            tracer = Tracer()
            patched = install(tracer)
            try:
                wall, done = run_pass(main, cmds, workdir, tracer)
            finally:
                uninstall(patched)
            traced.append(wall)
            tracers.append(tracer)
            verdicts += done
            pair_s = time.perf_counter() - pair_start
    finally:
        os.chdir(cwd)

    per_pass = [layer_values(t) for t in tracers]
    counts, _, _ = per_pass[0]
    durations: dict[str, list] = {}
    for _, _, durs in per_pass:
        for name, values in durs.items():
            durations.setdefault(name, []).extend(values)

    def calls(name):
        return counts.get(name, 0)

    def summed_ms(name):
        return 1e3 * median(sums.get(name, 0.0) for _, sums, _ in per_pass)

    def p50(name, scale):
        return scale * median(durations[name]) if name in durations else 0.0

    def note_values(name, key):
        first = tracers[0]
        return [first.notes[i][key] for i, s in enumerate(first.spans) if s[0] == name]

    robustness_s = [
        sum(acc[2] for (name, _), acc in t.aggregates.items() if name.startswith("robustness."))
        for t in tracers
    ]
    nfev = note_values("estimation.minimize", "nfev")
    accuracy = checks.accuracy_figures(verdicts[: len(cmds)])
    values = {
        **imports,
        "cli.self_ms": 1e3 * median(cli_self_seconds(t) for t in tracers),
        "cli.write_table.ms": summed_ms("cli.write_table"),
        "cli.write_table.bytes": sum(note_values("cli.write_table", "bytes")),
        "estimation.calibrate.calls": calls("estimation.calibrate"),
        "estimation.calibrate.ms_p50": p50("estimation.calibrate", 1e3),
        "estimation.calibrate_pooled.ms": summed_ms("estimation.calibrate_pooled"),
        "estimation.report.calls": calls("estimation.report"),
        "estimation.report.us_p50": p50("estimation.report", 1e6),
        "estimation.minimize.nfev_p50": median(nfev) if nfev else 0,
        "detection.run_experiment.calls": calls("detection.run_experiment"),
        "detection.run_experiment.ms_p50": p50("detection.run_experiment", 1e3),
        "detection.ideal_probabilities.calls": calls("detection.ideal_probabilities"),
        "detection.ideal_probabilities.us_p50": p50("detection.ideal_probabilities", 1e6),
        "detection.sample_counts.calls": calls("detection.sample_counts"),
        "detection.write_records.ms": summed_ms("detection.write_records"),
        "detection.read_records.ms": summed_ms("detection.read_records"),
        "detection.read_records.records": sum(note_values("detection.read_records", "records")),
        "cloner.apply_cloner.calls": calls("cloner.apply_cloner"),
        "cloner.apply_cloner.us_p50": p50("cloner.apply_cloner", 1e6),
        "cloner.machine_triple.calls": calls("cloner.machine_triple"),
        "states.tensor.calls": calls("states.tensor"),
        "robustness.ms": 1e3 * median(robustness_s),
        "robustness.biased_mean.calls": calls("robustness.biased_mean"),
        "robustness.error_bound.calls": calls("robustness.error_bound"),
        "robustness.max_eigenvalue.calls": calls("robustness.max_eigenvalue"),
        "calib_eta_err.p50": accuracy.get("calib_eta_err.p50", 0.0),
        "calib_eta_err.pooled": accuracy.get("calib_eta_err.pooled", 0.0),
        "trace.overhead_frac": median(traced) / median(untraced) - 1.0,
    }
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({
        "commands": [" ".join(c.argv) for c in cmds],
        "passes": [t.dump() for t in tracers],
    }) + "\n")
    extra = {
        "traced_passes": len(tracers),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "counts_repeat": all(c == counts for c, _, _ in per_pass),
        "spans_file": str(spans_path),
    }
    return values, extra, verdicts

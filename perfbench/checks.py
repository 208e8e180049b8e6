"""Output checks for qclone commands.

Each check reads the tables a command wrote and returns a list of problems;
an empty list means the command's output is correct.  The benchmark counts a
command as failed when it exits non-zero or any problem is found.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from statistics import median

MAX_PROBLEMS_KEPT = 5
# True calibration target: the CLI's default --eta-a/--eta-b.
ETA_TRUE = (1.046, 0.840)
ETA_RANGE = (0.2, 5.0)
ANALYTIC_CURVE_POINTS = 200
RESIDUAL_TOL = 1e-12
# Tables print 12 significant digits, so |quad| <= bound is checked to that
# precision.
PRINT_RTOL = 1e-11

TEXT_COLUMNS = {"kind", "state", "basis", "role", "objective", "boundary_hit"}
SCHEMA_NAMES = (
    "analytic", "simulate_report", "records", "calibrate_summary",
    "calibrate_states", "robustness",
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_table(path: Path) -> tuple[list[str], list[list]]:
    """Columns and rows of a CSV or JSON table written by the CLI."""
    text = path.read_text()
    if path.suffix == ".json":
        payload = json.loads(text)
        return payload["columns"], payload["rows"]
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def _numeric_rows(columns, rows, problems, label):
    """Rows as dicts with numbers parsed; records non-finite values."""
    out = []
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            problems.append(f"{label} row {i}: {len(row)} fields, expected {len(columns)}")
            continue
        rec = {}
        for col, val in zip(columns, row):
            if col in TEXT_COLUMNS:
                rec[col] = val
                continue
            try:
                num = float(val)
            except (TypeError, ValueError):
                problems.append(f"{label} row {i}: {col}={val!r} is not a number")
                num = math.nan
            else:
                if not math.isfinite(num):
                    problems.append(f"{label} row {i}: {col}={val!r} is not finite")
            rec[col] = num
        out.append(rec)
    return out


def _load(path: Path, expected_rows: int, problems: list, digests: dict) -> list[dict]:
    label = path.name
    if not path.is_file():
        problems.append(f"{label}: missing")
        return []
    digests[label] = sha256(path)
    try:
        columns, rows = read_table(path)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"{label}: unreadable ({exc})")
        return []
    if len(rows) != expected_rows:
        problems.append(f"{label}: {len(rows)} rows, expected {expected_rows}")
    return _numeric_rows(columns, rows, problems, label)


def check_command(cmd, workdir: Path, stdout: str) -> tuple[list[str], dict, dict]:
    """Problems, output digests and accuracy figures for one finished command."""
    problems: list[str] = []
    digests: dict[str, str] = {}
    accuracy: dict[str, float] = {}
    exp = cmd.expect
    if cmd.kind == "schema":
        listed = {line.split(":", 1)[0] for line in stdout.splitlines()}
        missing = [name for name in SCHEMA_NAMES if name not in listed]
        if missing:
            problems.append(f"schema: tables not listed: {missing}")
    elif cmd.kind == "analytic":
        rows = _load(workdir / cmd.out, exp["t_count"] + ANALYTIC_CURVE_POINTS, problems, digests)
        worst = max((abs(r["tradeoff_residual"]) for r in rows), default=0.0)
        if worst > RESIDUAL_TOL:
            problems.append(f"analytic: |tradeoff_residual| = {worst:.3g} > {RESIDUAL_TOL}")
    elif cmd.kind == "simulate":
        _load(workdir / cmd.out, 6 * exp["t_count"], problems, digests)
        _load(workdir / cmd.records, 6 * exp["t_count"], problems, digests)
    elif cmd.kind in ("calibrate", "pooled"):
        rows = _load(workdir / cmd.out, exp["t_count"], problems, digests)
        _load(workdir / states_path(cmd.out), 6 * exp["t_count"], problems, digests)
        lo, hi = ETA_RANGE
        errors = []
        for r in rows:
            eta = (r["eta_a"], r["eta_b"])
            if not all(lo <= e <= hi for e in eta):
                problems.append(f"{cmd.out}: t={r['t']}: eta {eta} outside [{lo}, {hi}]")
            errors.append(max(abs(e - e0) for e, e0 in zip(eta, ETA_TRUE)))
        if errors:
            accuracy["eta_err_p50"] = median(errors)
    elif cmd.kind == "robustness":
        rows = _load(workdir / cmd.out, exp["eps_points"] ** 2, problems, digests)
        for i, r in enumerate(rows):
            for clone in ("a", "b"):
                quad, bound = abs(r[f"quad_{clone}"]), r[f"bound_{clone}"]
                if not quad <= bound * (1.0 + PRINT_RTOL):
                    problems.append(f"{cmd.out} row {i}: |quad_{clone}| {quad} > bound {bound}")
    else:
        raise ValueError(f"unknown command kind {cmd.kind!r}")
    return problems, digests, accuracy


def states_path(out: str) -> str:
    """The per-state table calibrate writes next to its summary."""
    stem, _, ext = out.rpartition(".")
    return f"{stem}_states.{ext}"


def verdict(cmd, workdir: Path, exit_code, stdout: str) -> dict:
    """Exit code and output checks of one finished command."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    digests, accuracy = {}, {}
    if exit_code == 0:
        try:
            found, digests, accuracy = check_command(cmd, workdir, stdout)
        except (KeyError, TypeError) as exc:
            found = [f"malformed table: missing field {exc}"]
        problems += found
    return {"ok": not problems, "problems": problems[:MAX_PROBLEMS_KEPT],
            "problem_count": len(problems), "digests": digests, "accuracy": accuracy,
            "kind": cmd.kind, "argv": " ".join(cmd.argv[:3])}


def accuracy_figures(verdicts) -> dict:
    """Calibration error max|eta_hat - eta_true| of one pass: the median over
    groups for per-group calibration, and the pooled calibration's."""
    names = {"calibrate": "calib_eta_err.p50", "pooled": "calib_eta_err.pooled"}
    return {names[v["kind"]]: v["accuracy"]["eta_err_p50"]
            for v in verdicts if v["kind"] in names and v["accuracy"]}

"""Workload definitions: the qclone commands one pass runs, made from a seed.

Every pass also runs, once, each command of the README's lab session that
the workload does not otherwise run: `analytic` and the 21x21 sweep on
`survey`, the six-group simulate/calibrate on `sweep`.  That keeps every
end-to-end metric defined on both workloads, and between them the two run
the whole lab session; those probe commands cost little more than process
start, which they measure.  `schema` opens and closes every pass, so a run
has two cold-start samples per pass.

More than half of the commands of a pass are light, so the median command
latency falls inside the group of light commands, not on the edge between
light and heavy ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_T_COUNT = 6  # the CLI's default grid sqrt(n/5), n = 0..5
DEFAULT_EPS_POINTS = 21
SURVEY_T_COUNT = 200
SURVEY_T_MAX = 0.95
SWEEP_EPS_POINTS = 201
SWEEP_T = ("0", "0.6324555320336759")

WORKLOADS = ("survey", "sweep")


@dataclass(frozen=True)
class Command:
    """One `qclone` invocation and what its output must look like."""

    kind: str  # analytic, simulate, calibrate, pooled, robustness or schema
    argv: tuple
    out: str | None = None
    records: str | None = None
    expect: dict = field(default_factory=dict)
    groups: int = 0  # six-state groups simulated or calibrated
    points: int = 0  # robustness grid points


def analytic(out: str) -> Command:
    return Command("analytic", ("analytic", "--out", out), out=out,
                   expect={"t_count": DEFAULT_T_COUNT})


def simulate(prefix: str, seed: int, counts: str, t_values=None) -> Command:
    out, records = f"{prefix}report.csv", f"{prefix}records.csv"
    argv = ["simulate", "--counts", counts, "--seed", str(seed), "--out", out, "--records", records]
    t_count = DEFAULT_T_COUNT
    if t_values is not None:
        argv[1:1] = ["--t", ",".join(t_values)]
        t_count = len(t_values)
    return Command("simulate", tuple(argv), out=out, records=records,
                   expect={"t_count": t_count}, groups=t_count)


def calibrate(prefix: str, sim: Command, pooled: bool) -> Command:
    out = f"{prefix}{'pooled' if pooled else 'calibration'}.csv"
    argv = ("calibrate", *(("--pooled",) if pooled else ()), "--records", sim.records, "--out", out)
    return Command("pooled" if pooled else "calibrate", argv, out=out,
                   expect=sim.expect, groups=sim.groups)


def robustness(out: str, t: str, eps_points: int, fmt: str = "csv") -> Command:
    argv = ["robustness", "--t", t, "--out", out]
    if eps_points != DEFAULT_EPS_POINTS:
        argv += ["--eps-points", str(eps_points)]
    if fmt != "csv":
        argv += ["--format", fmt]
    return Command("robustness", tuple(argv), out=out,
                   expect={"eps_points": eps_points}, points=eps_points**2)


def schema() -> Command:
    return Command("schema", ("schema",))


def survey_t_values(seed: int, count: int) -> list[str]:
    """`count` distinct t values drawn uniformly from [0, SURVEY_T_MAX]."""
    rng = random.Random(seed)
    values: set[str] = set()
    while len(values) < count:
        # the record file keeps 12 significant digits; keep t distinct there
        values.add(f"{rng.uniform(0.0, SURVEY_T_MAX):.12g}")
    return sorted(values, key=float)


def commands(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The commands of one pass, in order."""
    if workload == "survey":
        t_values = survey_t_values(seed, 5 if tiny else SURVEY_T_COUNT)
        sim = simulate("", seed, "1e4", t_values)
        return [
            schema(),
            sim,
            calibrate("", sim, pooled=False),
            calibrate("", sim, pooled=True),
            analytic("probe_curve.csv"),
            robustness("probe_sweep.csv", "0", DEFAULT_EPS_POINTS),
            schema(),
        ]
    if workload == "sweep":
        eps_points = 11 if tiny else SWEEP_EPS_POINTS
        sim = simulate("probe_", seed, "1e5")
        return [
            schema(),
            robustness("sweep_t0.csv", SWEEP_T[0], eps_points),
            robustness("sweep_t1.json", SWEEP_T[1], eps_points, fmt="json"),
            sim,
            calibrate("probe_", sim, pooled=False),
            calibrate("probe_", sim, pooled=True),
            schema(),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

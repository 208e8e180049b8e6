"""`qclone calibrate`: the detector efficiencies of each t group of a record
file (or one pair for all, `--pooled`), a summary table and the calibrated
per-state table next to it."""

import os

from ..cli import EXIT_BOUNDARY, EXIT_OK, ConfigError, DataError, RunConfig, note, write_table
from ..labels import CATALOG_LABELS
from . import _distinct_files


def run(cfg: RunConfig, config: dict, config_file: str | None) -> int:
    if cfg.records is None:
        raise ConfigError("calibrate requires --records <record file>")
    if cfg.out == "-":
        # two tables back to back on stdout would not be one table
        raise ConfigError(
            "calibrate writes a summary and a per-state table; "
            "give --out <path>, the per-state table goes next to it"
        )
    # `_states` before the extension of --out; without one, the format's
    stem, ext = os.path.splitext(cfg.out)
    states_path = f"{stem}_states{ext or '.' + cfg.format}"
    _distinct_files([("--config", config_file), ("--records", cfg.records)],
                    [("--out", cfg.out), ("the per-state table", states_path)])
    from ..detection import NoDataError, read_records, six_state_report
    from ..estimation import calibrate_each, calibrate_pooled, stacked_counts

    try:
        records = read_records(cfg.records)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read records from {cfg.records}: {exc}")
    groups: dict[float, list] = {}
    for rec in records:
        groups.setdefault(rec.t, []).append(rec)
    if not groups:
        raise DataError(f"no records found in {cfg.records}")

    # everything in file order, which the pooled closed form and objective
    # sum in; the tables list the groups by t
    try:
        counts = stacked_counts(list(groups.values()))
        before = [six_state_report(c) for c in counts]
        if cfg.pooled:
            pooled = calibrate_pooled(counts)
            results = [pooled._replace(report=r) for r in pooled.reports]
        else:
            results = calibrate_each(counts)
    except (NoDataError, ValueError) as exc:
        raise DataError(str(exc))
    rows = sorted(zip(groups, results, before), key=lambda row: row[0])
    summary_rows = (
        (res.boundary_hit, (t, res.eta.eta_a, res.eta.eta_b, res.objective_value,
                            b.mean_a, b.mean_b, res.report.mean_a, res.report.mean_b))
        for t, res, b in rows
    )
    state_rows = (
        (label, (t, fa, fb))
        for t, res, _ in rows for label, (fa, fb) in zip(CATALOG_LABELS, res.report.per_state)
    )
    boundary = any(res.boundary_hit for res in results)

    write_table("calibrate_summary", summary_rows, cfg.out, cfg.format, config)
    write_table("calibrate_states", state_rows, states_path, cfg.format)
    note(f"# calibrated per-state table written to {states_path}")
    if boundary:
        note("# warning: calibration hit the search-domain boundary")
        if cfg.strict:
            return EXIT_BOUNDARY
    return EXIT_OK

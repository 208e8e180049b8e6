"""`qclone simulate`: seeded (or noiseless) coincidence counts per t value,
written as a record file, and their six-state fidelity report."""

import os

from ..cli import EXIT_OK, ConfigError, DataError, RunConfig, note, write_table
from ..labels import CATALOG_LABELS
from . import _distinct_files


def run(cfg: RunConfig, config: dict, config_file: str | None) -> int:
    # a record file is CSV, whatever the extension of --out
    records_path = cfg.records
    if records_path is None and cfg.out != "-":
        records_path = os.path.splitext(cfg.out)[0] + "_records.csv"
    if records_path in (None, "-"):
        raise ConfigError("simulate cannot write the record file to stdout; give --records <path>")
    _distinct_files([("--config", config_file)],
                    [("--out", cfg.out), ("the record file", records_path)])
    from ..detection import NoDataError, run_experiment, six_state_report, write_records

    groups = [
        run_experiment(t, cfg.eta, cfg.counts, seed=cfg.seed + i, noiseless=cfg.noiseless)
        for i, t in enumerate(cfg.t_values)
    ]
    reports = []
    for t, recs in zip(cfg.t_values, groups):
        try:
            reports.append(six_state_report([rec.counts for rec in recs]))
        except NoDataError as exc:
            raise DataError(f"t = {t}: {exc}; raise --counts")
    rows = (
        (label, (t, fa, fb, rep.mean_a, rep.mean_b, rep.variance_a, rep.variance_b))
        for t, rep in zip(cfg.t_values, reports)
        for label, (fa, fb) in zip(CATALOG_LABELS, rep.per_state)
    )
    try:
        write_records((rec for recs in groups for rec in recs), records_path)
    except OSError as exc:
        raise DataError(f"cannot write records to {records_path}: {exc.strerror or exc}")
    write_table("simulate_report", rows, cfg.out, cfg.format, config)
    note(f"# records written to {records_path}")
    return EXIT_OK

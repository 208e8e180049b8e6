"""Command-line front end: analytic curves, synthetic experiments, detector
calibration and miscalibration sweeps, emitted as CSV or JSON tables.

Exit codes: 0 success, 1 config error (a command line that argparse rejects
included), 2 data error (a stdout closed by its reader included), 3
calibration hit the search boundary and --strict was given.
"""

import math
import os
import sys
from types import SimpleNamespace
from typing import NamedTuple

from .labels import (
    BASIS_LABELS,
    CATALOG_LABELS,
    RECORD_FIELDS,
    RECORD_SHAPES,
    ROLE_PERP,
    ROLE_PSI,
    EfficiencyPair,
    Grid,
    MachineTriple,
    Shaped,
    dump_table,
    linspace,
    state_shapes,
    write_atomic,
)

# The modules of the commands (cloner, robustness, detection, estimation) are
# imported inside the subcommands that use them, and detection imports the
# sampler only to draw counts.  Every command, and every config error, runs
# on the standard library alone: qclone requires no other package.  numpy,
# which only the matrix channel of `cloner` and `states` needs, is a test
# dependency.

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_BOUNDARY = 3

DEFAULT_T_VALUES = tuple(math.sqrt(n / 5.0) for n in range(6))

# Caps on the run sizes. At COUNTS_MAX the largest Poisson rate, about
# counts * 25 * 2/3 at eta = 5, stays far below the sampler's limit
# (sampler.POISSON_LAM_MAX, about 9.2e18, numpy's);
# EPS_POINTS_MAX**2 is the row count of the largest robustness table.
COUNTS_MAX = 1e15
EPS_POINTS_MAX = 501

FORMATS = ("csv", "json")

SCHEMAS = {
    "analytic": ("kind", "t", "f_a", "f_b", "p", "success_prob", "tradeoff_residual"),
    "simulate_report": (
        "t", "state", "basis", "role", "f_a", "f_b",
        "mean_a", "mean_b", "variance_a", "variance_b",
    ),
    "records": RECORD_FIELDS,
    "calibrate_summary": (
        "t", "eta_a", "eta_b", "objective_value", "boundary_hit",
        "mean_a_before", "mean_b_before", "mean_a_after", "mean_b_after",
    ),
    "calibrate_states": ("t", "state", "basis", "role", "f_a", "f_b"),
    "robustness": (
        "eps_a", "eps_b", "exact_a", "quad_a", "bound_a",
        "exact_b", "quad_b", "bound_b",
    ),
}


# The row shapes (see `Shaped`) of the record file and of every table but the
# robustness `Grid`: an analytic row by its kind, a state's row by its label,
# a summary row by its boundary_hit.
SHAPES = {
    "analytic": {kind: (kind,) + (float,) * 6 for kind in ("grid", "curve")},
    "simulate_report": state_shapes(6),
    "records": RECORD_SHAPES,
    "calibrate_summary": {hit: (float,) * 4 + (hit,) + (float,) * 4 for hit in (False, True)},
    "calibrate_states": state_shapes(2),
}


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class RunConfig(NamedTuple):
    t_values: tuple = DEFAULT_T_VALUES
    eta_a: float = 1.046
    eta_b: float = 0.840
    counts: float = 1e5
    seed: int = 12345
    noiseless: bool = False
    pooled: bool = False
    out: str = "-"
    records: str | None = None
    format: str = "csv"
    strict: bool = False
    eps_max: float = 0.2
    eps_points: int = 21
    triple: tuple | None = None

    def validate(self) -> None:
        seen = {}
        for t in self.t_values:
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"t value {t} outside [0, 1]")
            # a record file keeps t to 12 significant digits; two t values
            # that read back the same would make one group of twelve records
            key = float(f"{t:.12g}")
            if key in seen:
                raise ConfigError(
                    f"t values {seen[key]} and {t} are the same to 12 significant "
                    "digits, the precision of a record file"
                )
            seen[key] = t
        if not 0 < self.counts <= COUNTS_MAX:  # also rejects nan
            raise ConfigError(
                f"counts must be positive and at most {COUNTS_MAX:g}, got {self.counts}"
            )
        try:
            self.eta.validate()
        except ValueError as exc:
            raise ConfigError(str(exc))
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if not 1 <= self.eps_points <= EPS_POINTS_MAX:
            raise ConfigError(
                f"eps_points must be at least 1 and at most {EPS_POINTS_MAX}, "
                f"got {self.eps_points}"
            )
        if not 0.0 <= self.eps_max < 1.0:
            raise ConfigError(f"eps_max must lie in [0, 1), got {self.eps_max}")

    @property
    def eta(self) -> EfficiencyPair:
        return EfficiencyPair(self.eta_a, self.eta_b)

    def resolved(self, fields: tuple) -> dict:
        """The values of `fields`, tuples as lists."""
        values = {name: getattr(self, name) for name in fields}
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values.items()}


def _boolean(val) -> bool:
    # a config file gives a string, a flag (store_true) gives True
    text = str(val).lower()
    if text not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"not a boolean: {val!r}")
    return text in ("true", "1", "yes")


def _floats(val: str) -> tuple:
    return tuple(float(x) for x in val.split(","))


# One entry per RunConfig field: its flag, the parser of its value (from a
# flag or a config file alike; a bad value raises ValueError), its help text.
OPTIONS = {
    "t_values": ("--t", _floats, "comma-separated list of t values"),
    "eta_a": ("--eta-a", float, "synthetic detector efficiency ratio of clone A"),
    "eta_b": ("--eta-b", float, "synthetic detector efficiency ratio of clone B"),
    "counts": ("--counts", float, "mean coincidence counts per state"),
    "seed": ("--seed", int, "root seed of the simulated counts"),
    "noiseless": ("--noiseless", _boolean, "expected counts, no Poisson noise"),
    "pooled": ("--pooled", _boolean, "calibrate one efficiency pair for all t values"),
    "out": ("--out", str, "output path, '-' for stdout"),
    "records": ("--records", str, "record file (simulate: write, calibrate: read)"),
    "format": ("--format", str, f"table format: {', '.join(FORMATS)}"),
    "strict": ("--strict", _boolean, "exit 3 when calibration hits the search boundary"),
    "eps_max": ("--eps-max", float, "largest mismatch of the robustness sweep"),
    "eps_points": ("--eps-points", int, "points per mismatch axis of the sweep"),
    "triple": ("--triple", _floats, "explicit machine f_a,f_b,p (robustness)"),
}


def _parse_value(key: str, val, where: str):
    _, parse, _ = OPTIONS[key]
    try:
        return parse(val)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


def parse_config_file(path: str, command: str) -> dict:
    """Flat key=value config; '#' starts a comment.

    One file can serve every command: a key of another command is dropped
    unparsed, and one stderr line names the dropped keys.
    """
    fields = COMMANDS[command][1]
    values, foreign = {}, []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in fields:
            values[key] = _parse_value(key, val, f"{path}:{lineno}: field {key!r}")
        elif key not in foreign:
            foreign.append(key)
    if foreign:
        print(f"# config keys {command} does not read: {', '.join(foreign)}", file=sys.stderr)
    return values


def _flag_value(args, key: str, flag: str):
    """The value `flag` gave `key` on the parsed command line `args`, None
    where it was not given.  argparse drops a `--` value, so `--flag=--`
    reads as [] (as '--' from Python 3.13 on): a config error."""
    val = getattr(args, key, None)
    if isinstance(val, list) or val == "--":
        raise ConfigError(f"{flag}: '--' is not a value, it ends the options")
    return val


def build_config(args) -> RunConfig:
    """Merge defaults < config file < CLI flags, over the command's fields;
    the other fields keep their defaults.  `args` is a parsed command line:
    `command`, each field's flag value or None, and `config` for a command
    that has fields."""
    config = _flag_value(args, "config", "--config")
    values = parse_config_file(config, args.command) if config else {}
    for key in COMMANDS[args.command][1]:
        flag = OPTIONS[key][0]
        val = _flag_value(args, key, flag)
        if val is not None:
            values[key] = _parse_value(key, val, flag)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


# --- table output -----------------------------------------------------------

def write_table(columns, rows, path: str, fmt: str, config: dict | None = None) -> None:
    """Write a table, a `Grid` or a `Shaped`, as `labels.dump_table` writes
    it, to `path`, '-' for stdout.  A file is written by `write_atomic`, so
    on any error an existing `path` is left unchanged; an OSError writing it
    is a DataError."""
    if path == "-":
        dump_table(columns, rows, sys.stdout, fmt, config)
        return
    try:
        write_atomic(path, lambda fh: dump_table(columns, rows, fh, fmt, config))
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}")


def _distinct_files(inputs, outputs) -> None:
    """Raise ConfigError when one of a command's files, the (name, path)
    pairs of its `inputs` and `outputs`, is an empty path, two are one file,
    or an output is an existing directory or not in an existing folder,
    which the command could only fail to write once its work is done; '-'
    is stdout and None no file.  So no command writes over its own input or
    output.  Two existing paths are compared by `os.path.samefile`, which
    also sees a hard link or a name in another case on a case-insensitive
    file system; otherwise by their real paths.  A symbolic link to a
    directory is not refused: an output replaces the link."""
    seen = []
    for name, path in (*inputs, *outputs):
        if path == "":
            raise ConfigError(f"{name} is an empty path")
        if path is None or path == "-":
            continue
        for other_name, other in seen:
            try:
                same = os.path.samefile(path, other)
            except OSError:  # not both exist (yet)
                same = os.path.realpath(path) == os.path.realpath(other)
            if same:
                raise ConfigError(f"{other_name} and {name} are the same file {path}")
        seen.append((name, path))
    for name, path in outputs:
        if path in (None, "-"):
            continue
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"{name} {path} is not in an existing folder")
        if os.path.isdir(path) and not os.path.islink(path):
            raise ConfigError(f"{name} {path} is a directory")


# --- subcommands ------------------------------------------------------------

def cmd_analytic(cfg: RunConfig, config: dict, config_file: str | None) -> int:
    _distinct_files([("--config", config_file)], [("--out", cfg.out)])
    from .cloner import clone_fidelities, machine_triple, success_probability, tradeoff_residual

    rows = []
    for kind, ts in (("grid", cfg.t_values), ("curve", linspace(0.0, 1.0, 200))):
        for t in ts:
            fa, fb = clone_fidelities(t)
            rows.append(
                (kind, (t, fa, fb, machine_triple(t).p, success_probability(t),
                        tradeoff_residual(fa, fb)))
            )
    write_table(SCHEMAS["analytic"], Shaped(SHAPES["analytic"], rows), cfg.out, cfg.format, config)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, config: dict, config_file: str | None) -> int:
    # a record file is CSV, whatever the extension of --out
    records_path = cfg.records
    if records_path is None and cfg.out != "-":
        records_path = os.path.splitext(cfg.out)[0] + "_records.csv"
    if records_path in (None, "-"):
        raise ConfigError("simulate cannot write the record file to stdout; give --records <path>")
    _distinct_files([("--config", config_file)],
                    [("--out", cfg.out), ("the record file", records_path)])
    from .detection import NoDataError, run_experiment, six_state_report, write_records

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
    rows = Shaped(SHAPES["simulate_report"], (
        (label, (t, fa, fb, rep.mean_a, rep.mean_b, rep.variance_a, rep.variance_b))
        for t, rep in zip(cfg.t_values, reports)
        for label, (fa, fb) in zip(CATALOG_LABELS, rep.per_state)
    ))
    try:
        write_records((rec for recs in groups for rec in recs), records_path)
    except OSError as exc:
        raise DataError(f"cannot write records to {records_path}: {exc.strerror or exc}")
    write_table(SCHEMAS["simulate_report"], rows, cfg.out, cfg.format, config)
    print(f"# records written to {records_path}", file=sys.stderr)
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig, config: dict, config_file: str | None) -> int:
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
    from .detection import NoDataError, read_records, six_state_report
    from .estimation import calibrate_each, calibrate_pooled, stacked_counts

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
    summary_rows = Shaped(SHAPES["calibrate_summary"], (
        (res.boundary_hit, (t, res.eta.eta_a, res.eta.eta_b, res.objective_value,
                            b.mean_a, b.mean_b, res.report.mean_a, res.report.mean_b))
        for t, res, b in rows
    ))
    state_rows = Shaped(SHAPES["calibrate_states"], (
        (label, (t, fa, fb))
        for t, res, _ in rows for label, (fa, fb) in zip(CATALOG_LABELS, res.report.per_state)
    ))
    boundary = any(res.boundary_hit for res in results)

    write_table(SCHEMAS["calibrate_summary"], summary_rows, cfg.out, cfg.format, config)
    write_table(SCHEMAS["calibrate_states"], state_rows, states_path, cfg.format)
    print(f"# calibrated per-state table written to {states_path}", file=sys.stderr)
    if boundary:
        print("# warning: calibration hit the search-domain boundary", file=sys.stderr)
        if cfg.strict:
            return EXIT_BOUNDARY
    return EXIT_OK


def _machine_from_config(cfg: RunConfig) -> MachineTriple:
    if cfg.triple is not None and len(cfg.triple) != 3:
        raise ConfigError("--triple needs three comma-separated values f_a,f_b,p")
    if cfg.triple is None and len(cfg.t_values) != 1:
        raise ConfigError("robustness needs a single --t value or an explicit --triple")
    if cfg.triple is None:
        from .cloner import machine_triple

        return machine_triple(cfg.t_values[0])
    m = MachineTriple(*cfg.triple)
    try:
        m.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    return m


def cmd_robustness(cfg: RunConfig, config: dict, config_file: str | None) -> int:
    _distinct_files([("--config", config_file)], [("--out", cfg.out)])
    m = _machine_from_config(cfg)
    from .robustness import sweep_blocks, taylor_form, taylor_form_b

    for clone, form in (("A", taylor_form(m)), ("B", taylor_form_b(m))):
        print(
            f"# clone {clone} quadratic coefficients: "
            f"{form.coeff_aa:.12g}, {form.coeff_ab:.12g}, {form.coeff_bb:.12g}; "
            f"bound factor {form.max_eigenvalue():.12g}",
            file=sys.stderr,
        )
    rows = Grid(*sweep_blocks(m, cfg.eps_max, cfg.eps_points))
    write_table(SCHEMAS["robustness"], rows, cfg.out, cfg.format, config)
    return EXIT_OK


def cmd_schema(_cfg: RunConfig, _config: dict, _config_file: str | None) -> int:
    for name, cols in SCHEMAS.items():
        print(f"{name}: {','.join(cols)}")
    print("record file: one record per line, fields as 'records' above;")
    vocabulary = {"state": CATALOG_LABELS, "basis": BASIS_LABELS, "role": (ROLE_PSI, ROLE_PERP)}
    print(", ".join(f"{name} in {{{','.join(values)}}}" for name, values in vocabulary.items()))
    return EXIT_OK


# Each command and the RunConfig fields it reads, in field order: its only
# flags and config keys.
COMMANDS = {
    "analytic": (cmd_analytic, ("t_values", "out", "format")),
    "simulate": (
        cmd_simulate,
        ("t_values", "eta_a", "eta_b", "counts", "seed", "noiseless", "out", "records", "format"),
    ),
    "calibrate": (cmd_calibrate, ("pooled", "out", "records", "format", "strict")),
    "robustness": (cmd_robustness, ("t_values", "out", "format", "eps_max", "eps_points", "triple")),
    "schema": (cmd_schema, ()),
}


def build_parser():
    """The argparse parser of the qclone command line, whose rejections are
    config errors, not exit 2.  argparse is imported here: `main` needs it
    only for --help and for a command line that `parse_well_formed` leaves
    to it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def parse_known_args(self, args=None, namespace=None):
            # a command's parser rejects what it does not know itself, so the
            # usage line of a foreign flag is the command's
            args, extra = super().parse_known_args(args, namespace)
            if extra:
                self.error(f"unrecognized arguments: {' '.join(extra)}")
            return args, extra

        def error(self, message):
            self.print_usage(sys.stderr)
            if message.endswith("expected one argument"):
                # argparse takes a value that starts with '-' (`-inf`) for a flag
                flag = message.split(":")[0].split()[-1]
                message += f" (give a value that starts with '-' as {flag}=<value>)"
            raise ConfigError(message)

    parser = _Parser(
        prog="qclone",
        description="Asymmetric qubit-cloner simulation, calibration and robustness tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, fields) in COMMANDS.items():
        p = sub.add_parser(name)
        if fields:
            p.add_argument(
                "--config",
                help=f"key=value config file; keys: {', '.join(fields)} "
                "(the other commands' keys are named on stderr and ignored)",
            )
        for key in fields:
            flag, parse, text = OPTIONS[key]
            switch = {"action": "store_true", "default": None} if parse is _boolean else {}
            p.add_argument(flag, dest=key, help=text, **switch)
    return parser


def parse_well_formed(argv) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, for a
    command line that is a command and its own exact flags; None for any
    other, which argparse then parses, rejects or answers with help.

    A flag with a value is `--flag=value` with a value other than `--`, or
    `--flag value` with a value that is `-` or does not start with '-'; a
    switch has no `=`.  The last of repeated flags wins, as in argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    fields = COMMANDS[argv[0]][1]
    keys = {OPTIONS[key][0]: key for key in fields}
    if fields:
        keys["--config"] = "config"
    values = dict.fromkeys(keys.values())
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        key = keys.get(flag)
        if key is None:
            return None
        if key != "config" and OPTIONS[key][1] is _boolean:
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and value != "-":
                return None
        elif value == "--":
            # argparse drops a `--` value: `--flag=--` reads as []
            return None
        values[key] = value
    return SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_well_formed(argv) or build_parser().parse_args(argv)
        cfg = build_config(args)
        command, fields = COMMANDS[args.command]
        config = cfg.resolved(fields)
        print("# resolved config:", *(f"{k}={v}" for k, v in config.items()), file=sys.stderr)
        code = command(cfg, config, getattr(args, "config", None))
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # the reader of stdout went away; send what is still buffered to
        # devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("data error: stdout was closed before the table was written", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry: analytic curves, synthetic experiments, detector
calibration and miscalibration sweeps, emitted as CSV or JSON tables.

This module is what every command compiles: the command-line parser and
its help, the run config and its options, the exit codes and errors, `note`,
which writes a line to stderr, `write_table`, which writes a table of
`labels.TABLES` by its name, `schema` and `main`.  Each table command's body
is its own module in `qclone.commands`, imported only when that command
runs; the config-file reader (`qclone.configfile`) and the table writer
(`qclone.tables`) load only on the paths that use them.  Every command, and
every config error, runs on the standard library alone: qclone requires no
other package.  numpy, which only the matrix channel of `cloner` and
`states` needs, is a test dependency.

`entry` is the process entry, of the installed `qclone` script and of
`python -m qclone.cli`: it runs `main` and then freezes the heap
(`gc.freeze`), so that the interpreter's exit does not run the cyclic
collector over every object the run leaves alive.  It may rely on two
facts: every file a command opens is closed when `main` returns, and
stdout and stderr, which stay open, are flushed by the interpreter's
finalization, which also still runs the atexit handlers.  `main` is the
in-process API and never touches the collector.

Exit codes: 0 success (the help included), 1 config error (a rejected
command line included), 2 data error (a stdout that fails to write, closed
by its reader or full, included), 3 calibration hit the search boundary and
--strict was given.  A stderr that fails to write changes none of them.
"""

import gc
import math
import os
import sys
from types import SimpleNamespace
from typing import NamedTuple

from .labels import BASIS_LABELS, CATALOG_LABELS, ROLE_PERP, ROLE_PSI, TABLES, EfficiencyPair

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
    # a config file gives a string, a switch gives True
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


def build_config(args) -> RunConfig:
    """Merge defaults < config file < CLI flags, over the command's fields;
    the other fields keep their defaults.  `args` is a parsed command line:
    `command`, each field's flag value or None, and `config` for a command
    that has fields."""
    config = getattr(args, "config", None)
    values = {}
    if config:
        from .configfile import parse_config_file

        values = parse_config_file(config, args.command)
    for key in COMMANDS[args.command]:
        val = getattr(args, key)
        if val is not None:
            values[key] = _parse_value(key, val, OPTIONS[key][0])
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def write_table(name: str, rows, path: str, fmt: str, config: dict | None = None) -> None:
    """Write the table `name` of `labels.TABLES`, as `tables.dump_table`
    writes it, to `path`, '-' for stdout: `rows` are (key, floats), the rows
    of its shapes, or the grid (keys, blocks) of a table without shapes.  A
    file is written by `write_atomic`, so on any error an existing `path` is
    left unchanged; an OSError writing it is a DataError."""
    from .tables import dump_table, write_atomic

    if path == "-":
        dump_table(*TABLES[name], rows, sys.stdout, fmt, config)
        return
    try:
        write_atomic(path, lambda fh: dump_table(*TABLES[name], rows, fh, fmt, config))
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}")


def schema() -> int:
    for name, (columns, _) in TABLES.items():
        print(f"{name}: {','.join(columns)}")
    print("record file: one record per line, fields as 'records' above;")
    vocabulary = {"state": CATALOG_LABELS, "basis": BASIS_LABELS, "role": (ROLE_PSI, ROLE_PERP)}
    print(", ".join(f"{name} in {{{','.join(values)}}}" for name, values in vocabulary.items()))
    return EXIT_OK


# Each command and the RunConfig fields it reads, in field order: its only
# flags and config keys.  A command but `schema` runs the `run` of its module
# in `qclone.commands`.
COMMANDS = {
    "analytic": ("t_values", "out", "format"),
    "simulate": (
        "t_values", "eta_a", "eta_b", "counts", "seed", "noiseless", "out", "records", "format",
    ),
    "calibrate": ("pooled", "out", "records", "format", "strict"),
    "robustness": ("t_values", "out", "format", "eps_max", "eps_points", "triple"),
    "schema": (),
}


HELP_TOKENS = ("-h", "--help")


def _flags(command: str) -> dict:
    """The flags of `command`, each to the name of its value: `--config`,
    for a command that has fields, and its fields' flags."""
    fields = COMMANDS[command]
    return {"--config": "config", **{OPTIONS[key][0]: key for key in fields}} if fields else {}


def _is_switch(key: str) -> bool:
    return key != "config" and OPTIONS[key][1] is _boolean


def _help(command: str | None) -> str:
    """The help of `command`, or of every command for None: the grammar of
    a command line, then each flag with its help text."""
    lines = [
        f"usage: qclone {command or '<command>'} [--flag=value | --flag value | --switch] ...",
        "Asymmetric qubit-cloner simulation, calibration and robustness tables.",
        "Give a value that starts with '-' as --flag=value. Of repeated flags the last wins.",
    ]
    for name in [command] if command else COMMANDS:
        lines.append(f"\n{name}:" if COMMANDS[name] else f"\n{name}: no flags")
        for flag, key in _flags(name).items():
            text = (f"key=value config file; keys: {', '.join(COMMANDS[name])} (the other "
                    "commands' keys are named on stderr and ignored)" if key == "config"
                    else OPTIONS[key][2])
            usage = flag if _is_switch(key) else f"{flag} {key.upper()}"
            lines.append(f"  {usage:<24}{text}")
    lines.append(f"\n  {', '.join(HELP_TOKENS):<24}print this help")
    return "\n".join(lines) + "\n"


def parse_well_formed(argv) -> SimpleNamespace | str:
    """The command line `argv` read as a command and its own flags: a
    namespace of `command` and each flag's value, None where it is not
    given; or the help text, for a help token (-h, --help) where a command
    or a flag goes.  Any other command line is a ConfigError that names its
    first wrong token.

    A value flag is `--flag=value` with a value other than `--`, or
    `--flag value` with a value that is `-` or does not start with '-'; a
    switch has no `=`.  The last of repeated flags wins.  Tokens are read
    left to right, and the first help token or wrong token decides.
    """
    command = argv[0] if argv else None
    if command in HELP_TOKENS:
        return _help(None)
    if command not in COMMANDS:
        given = "no command" if command is None else f"unknown command {command!r}"
        raise ConfigError(f"{given}; the commands are {', '.join(COMMANDS)}")
    keys = _flags(command)
    values = dict.fromkeys(keys.values())
    tokens = iter(argv[1:])
    for token in tokens:
        if token in HELP_TOKENS:
            return _help(command)
        flag, eq, value = token.partition("=")
        key = keys.get(flag)
        if key is None:
            own = f"its flags are {', '.join(keys)}" if keys else "it takes no flags"
            raise ConfigError(f"{command} does not take {token!r}; {own}")
        if _is_switch(key):
            if eq:
                raise ConfigError(f"{flag} is a switch and takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and value != "-":
                raise ConfigError(
                    f"{flag} expects a value (give a value that starts with '-' as {flag}=<value>)"
                )
        elif value == "--":
            raise ConfigError(f"{flag}: '--' is not a value, it ends the options")
        values[key] = value
    return SimpleNamespace(command=command, **values)


def note(*parts) -> None:
    """Print `parts` to stderr as one line, for people.  A stderr that is
    closed or fails to write drops the line, and fd 2 then points at
    devnull, so that neither a later line nor the flush at exit fails again:
    a diagnostic never stops a table or changes an exit code."""
    if sys.stderr is None:  # fd 2 was closed when the process started
        return
    try:
        print(*parts, file=sys.stderr)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_well_formed(argv)
        if isinstance(args, str):  # the help
            sys.stdout.write(args)
            sys.stdout.flush()
            return EXIT_OK
        cfg = build_config(args)
        config = cfg.resolved(COMMANDS[args.command])
        note("# resolved config:", *(f"{k}={v}" for k, v in config.items()))
        if args.command == "schema":
            code = schema()
        else:
            # `__import__`, as an import statement does: `-X importtime`
            # does not see an `importlib.import_module`
            command = __import__(f"qclone.commands.{args.command}", fromlist=["run"])
            code = command.run(cfg, config, getattr(args, "config", None))
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ConfigError as exc:
        note(f"config error: {exc}")
        return EXIT_CONFIG
    except DataError as exc:
        note(f"data error: {exc}")
        return EXIT_DATA
    except OSError as exc:
        # each file a command opens makes its own OSError a DataError, and
        # `note` drops stderr's, so this one is stdout's; what it still
        # buffers goes to devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        reason = ("stdout was closed before the table was written"
                  if isinstance(exc, BrokenPipeError)
                  else f"cannot write to stdout: {exc.strerror or exc}")
        note(f"data error: {reason}")
        return EXIT_DATA


def entry() -> int:
    """`main` as a process runs it: its exit code, with every object left
    alive frozen, so that the interpreter's exit does not collect them."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    # The command modules import from qclone.cli.  Under `python -m
    # qclone.cli` this module runs as __main__, so it stands in for
    # qclone.cli: otherwise that import would compile and run it a second
    # time, with a ConfigError class of its own that `main` does not catch.
    sys.modules["qclone.cli"] = sys.modules[__name__]
    sys.exit(entry())

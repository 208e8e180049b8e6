import argparse
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
import robustness_oracle
from hypothesis import example, given, settings, strategies as st
from table_oracle import dump_table

from qclone.cli import (
    COMMANDS,
    COUNTS_MAX,
    EPS_POINTS_MAX,
    EXIT_BOUNDARY,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    FORMATS,
    NO_OBJECTIVE,
    OPTIONS,
    SCHEMAS,
    SHAPES,
    ConfigError,
    DataError,
    Grid,
    RunConfig,
    Shaped,
    build_config,
    build_parser,
    main,
    parse_well_formed,
    write_table,
)
from qclone.cloner import machine_triple
from qclone.labels import BASIS_LABELS, CATALOG_LABELS, CATALOG_ROLES, MachineTriple

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_analytic_table(tmp_path):
    out = tmp_path / "analytic.csv"
    assert main(["analytic", "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == list(SCHEMAS["analytic"])
    grid = [r for r in rows if r[0] == "grid"]
    curve = [r for r in rows if r[0] == "curve"]
    assert len(grid) == 6
    assert len(curve) == 200
    t0 = grid[0]
    assert abs(float(t0[2]) - 5 / 6) < 1e-10
    assert abs(float(t0[3]) - 5 / 6) < 1e-10
    t1 = grid[-1]
    assert float(t1[2]) == 0.5 and float(t1[3]) == 1.0
    for r in rows:
        assert abs(float(r[6])) < 1e-12


def test_analytic_json(tmp_path):
    out = tmp_path / "analytic.json"
    assert main(["analytic", "--format", "json", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["columns"] == list(SCHEMAS["analytic"])
    assert "config" in payload
    assert len(payload["rows"]) == 206


def test_simulate_noiseless_unit_eta(tmp_path):
    out = tmp_path / "sim.csv"
    rc = main(
        ["simulate", "--t", "0", "--eta-a", "1", "--eta-b", "1",
         "--noiseless", "--out", str(out)]
    )
    assert rc == EXIT_OK
    header, rows = read_csv(out)
    assert header == list(SCHEMAS["simulate_report"])
    assert len(rows) == 6
    for r in rows:
        assert abs(float(r[4]) - 5 / 6) < 1e-10
        assert abs(float(r[5]) - 5 / 6) < 1e-10


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["simulate", "--seed", "99", "--out", str(out),
                   "--records", str(out) + ".rec"])
        assert rc == EXIT_OK
    assert a.read_text() == b.read_text()
    assert (tmp_path / "a.csv.rec").read_text() == (tmp_path / "b.csv.rec").read_text()


def test_simulate_calibrate_round_trip(tmp_path):
    sim_out = tmp_path / "sim.csv"
    recs = tmp_path / "records.csv"
    rc = main(["simulate", "--noiseless", "--t", "0,0.6324555320336759",
               "--out", str(sim_out), "--records", str(recs)])
    assert rc == EXIT_OK
    cal_out = tmp_path / "cal.csv"
    rc = main(["calibrate", "--records", str(recs), "--out", str(cal_out)])
    assert rc == EXIT_OK
    header, rows = read_csv(cal_out)
    assert header == list(SCHEMAS["calibrate_summary"])
    for r in rows:
        assert abs(float(r[1]) - 1.046) < 1e-6
        assert abs(float(r[2]) - 0.840) < 1e-6
        # mean fidelities barely move under calibration
        assert abs(float(r[5]) - float(r[7])) < 0.005
        assert abs(float(r[6]) - float(r[8])) < 0.005
    # calibrated per-state table is flat
    _, state_rows = read_csv(tmp_path / "cal_states.csv")
    for t in set(r[0] for r in state_rows):
        fa = [float(r[4]) for r in state_rows if r[0] == t]
        assert max(fa) - min(fa) < 1e-10


def test_csv_round_trip_formatting(tmp_path):
    out = tmp_path / "analytic.csv"
    main(["analytic", "--out", str(out)])
    header, rows = read_csv(out)
    # parse back and re-format: identical decimal strings
    for row in rows:
        for v in row[1:]:
            assert f"{float(v):.12g}" == v


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_values = 0,1\nformat = json\nseed = 3\n")
    out = tmp_path / "out.json"
    rc = main(["analytic", "--config", str(cfg), "--t", "0", "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["config"]["t_values"] == [0.0]  # flag wins
    assert payload["config"]["format"] == "json"  # file wins over default
    # analytic reads no seed: the key is named and ignored
    assert "seed" not in payload["config"]
    assert "# config keys analytic does not read: seed\n" in capsys.readouterr().err


def test_config_parse_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("t_values: 0,1\n")
    assert main(["analytic", "--config", str(cfg)]) == EXIT_CONFIG
    assert "bad.cfg:1" in capsys.readouterr().err
    cfg.write_text("seed = 3\neta_a = abc\n")
    assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
    assert "bad.cfg:2: field 'eta_a': could not convert" in capsys.readouterr().err
    cfg.write_bytes(b"seed = \xff\n")  # not text
    assert main(["analytic", "--config", str(cfg)]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_config_validation_error(tmp_path, capsys):
    assert main(["analytic", "--t", "2.0"]) == EXIT_CONFIG
    # with both output paths given, simulate would otherwise run
    simulate = ["simulate", "--t", "0.5", "--out", str(tmp_path / "sim.csv"),
                "--records", str(tmp_path / "records.csv")]
    for flag, value in [("--counts", "-5"), ("--counts", "nan"), ("--counts", "inf"),
                        ("--counts", "1e300"), ("--counts", repr(COUNTS_MAX * 1.5)),
                        ("--eta-a", "9"), ("--eta-a", "nan"), ("--eta-b", "0.1"),
                        ("--seed", "-1")]:
        assert main([*simulate, flag, value]) == EXIT_CONFIG, flag
    # t values a record file would write alike; calibrate would reject the file
    for t_list, first, second in [("0.5,0.5", "0.5", "0.5"),
                                  ("0.1,0.1000000000001", "0.1", "0.1000000000001")]:
        capsys.readouterr()
        assert main([*simulate[:1], "--t", t_list, *simulate[3:]]) == EXIT_CONFIG, t_list
        assert f"t values {first} and {second} are the same" in capsys.readouterr().err
    assert main(["robustness", "--t", "0.5", "--eps-points", "100000000",
                 "--out", str(tmp_path / "rob.csv")]) == EXIT_CONFIG
    for triple in ("nan,0.5,0.5", "0.5,0.5,nan", "inf,0.5,0.5", "0.9,0.7,-inf"):
        assert main(["robustness", "--triple", triple,
                     "--out", str(tmp_path / "rob.csv")]) == EXIT_CONFIG, triple
    assert list(tmp_path.iterdir()) == []


PATHS = ["--out", "sim.csv", "--records", "records.csv"]


@pytest.mark.parametrize("argv, message, usage", [
    (["simulate", "--eta-a", "abc", *PATHS], "--eta-a: could not convert string to float: 'abc'",
     False),
    (["robustness", "--eps-points", "2.5", "--out", "rob.csv"],
     "--eps-points: invalid literal for int()", False),
    (["simulate", "--objective", "c", *PATHS],
     f"unrecognized arguments: --objective c; {NO_OBJECTIVE}", True),
    (["simulate", "--format", "xml", *PATHS], "format must be csv or json", False),
    # argparse's own rejections also print the usage line
    (["simulate", "--bogus", *PATHS], "unrecognized arguments: --bogus", True),
    (["bogus", *PATHS], "argument command: invalid choice: 'bogus'", True),
    ([], "the following arguments are required: command", True),
    (["robustness", "--t", "0", "--eps-max", "-inf", "--out", "rob.csv"],
     "argument --eps-max: expected one argument (give a value that starts with '-' as "
     "--eps-max=<value>)", True),
    *((["calibrate", "--objective", objective, "--records", "records.csv", "--out", "cal.csv"],
       f"unrecognized arguments: --objective {objective}; {NO_OBJECTIVE}", True)
      for objective in "ab"),
    # a flag of another command is the command's own parser's rejection
    (["calibrate", "--records", "records.csv", "--out", "cal.csv", "--eta-a", "2"],
     "unrecognized arguments: --eta-a 2", True),
    (["analytic", "--records", "nope.csv", "--pooled", "--strict"],
     "unrecognized arguments: --records nope.csv --pooled --strict", True),
    (["schema", "--out", "s.csv"], "unrecognized arguments: --out s.csv", True),
    # an empty path names no file, whether given, defaulted or in a config
    (["analytic", "--out", ""], "--out is an empty path", False),
    (["analytic", "--out="], "--out is an empty path", False),
    (["robustness", "--t", "0", "--out", ""], "--out is an empty path", False),
    (["simulate", "--out", "", "--records", "records.csv"], "--out is an empty path", False),
    (["simulate", "--records", "", "--out", "sim.csv"], "the record file is an empty path", False),
    (["calibrate", "--records", "", "--out", "cal.csv"], "--records is an empty path", False),
    (["calibrate", "--records", "records.csv", "--out", ""], "--out is an empty path", False),
    (["simulate", "--config", "", *PATHS], "--config is an empty path", False),
    (["analytic", "--config=", "--out", "curve.csv"], "--config is an empty path", False),
    # argparse drops a `--` value, so `--flag=--` reads as [], which once ended
    # in a traceback (--t, --config) or wrote a file named `[]` (--out, --records)
    *(([command, f"{flag}=--", *rest], f"{flag}: '--' is not a value, it ends the options", False)
      for command, flag, rest in [
          ("analytic", "--t", []),
          ("analytic", "--out", []),
          ("simulate", "--records", ["--out", "sim.csv"]),
          ("simulate", "--config", PATHS),
          ("calibrate", "--format", ["--records", "records.csv", "--out", "cal.csv"]),
          ("robustness", "--eps-points", ["--t", "0", "--out", "rob.csv"]),
      ]),
])
def test_rejected_command_line_is_a_config_error(tmp_path, monkeypatch, capsys, argv, message,
                                                 usage):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert err.startswith("usage: qclone") == usage
    if usage and "unrecognized arguments" in message:
        assert err.startswith(f"usage: qclone {argv[0]} ")  # the usage of the command
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    # the allowed values of the choice flag are in the help text
    assert "table format: csv, json" in out


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv; None when argparse rejects
    argv, exits or prints help."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except (ConfigError, SystemExit):
            return None


def _own_flags(command):
    fields = COMMANDS[command][1] if command in COMMANDS else ()
    return [OPTIONS[key][0] for key in fields] + (["--config"] if fields else [])


SWITCHES = {OPTIONS[key][0] for key in ("noiseless", "pooled", "strict")}
# values argparse reads after a space, and values it takes for a flag
PLAIN_VALUES = ["0.5", "0,1", "1e5", "7", "csv", "", "a b", "x=y", "-"]
DASH_VALUES = ["-1", "-inf", "--out", "--", "-h", "--help", "-x y"]
ALL_FLAGS = sorted({flag for command in COMMANDS for flag in _own_flags(command)})
# abbreviations argparse accepts or finds ambiguous, and what it never takes
OTHER_FLAGS = ["--ou", "--rec", "--eta", "--eta-", "--conf", "--tr", "--no", "--pool", "--str",
               "--eps", "--eps-m", "--form", "--c", "-t", "-h", "--help", "--", "--bogus",
               "--objective"]
NOISE = st.one_of(
    st.sampled_from(ALL_FLAGS + OTHER_FLAGS + PLAIN_VALUES + DASH_VALUES),
    st.builds("{}={}".format, st.sampled_from(ALL_FLAGS + OTHER_FLAGS),
              st.sampled_from(PLAIN_VALUES + DASH_VALUES)),
)


@st.composite
def _own_flag(draw, command):
    # one exact flag of the command, written as the fast path takes it
    flag = draw(st.sampled_from(_own_flags(command)))
    if flag in SWITCHES:
        return [flag]
    if draw(st.booleans()):
        # argparse drops a `--` value, so `--flag=--` is left to it
        values = [value for value in PLAIN_VALUES + DASH_VALUES if value != "--"]
        return [f"{flag}={draw(st.sampled_from(values))}"]
    return [flag, draw(st.sampled_from(PLAIN_VALUES))]


@st.composite
def _command_lines(draw):
    """(argv, well_formed): a command and its own exact flags, with noise
    tokens inserted when well_formed is False."""
    head = draw(st.one_of(st.sampled_from(list(COMMANDS)),
                          st.sampled_from(["bogus", "Simulate", "--help", "-h", "--", None])))
    pieces = draw(st.lists(_own_flag(head), max_size=6)) if _own_flags(head) else []
    noise = []
    if draw(st.booleans()):
        noise = draw(st.lists(st.tuples(st.integers(0, len(pieces)), NOISE), min_size=1,
                              max_size=3))
    for at, token in sorted(noise, reverse=True):
        pieces.insert(at, [token])
    argv = ([] if head is None else [head]) + list(chain(*pieces))
    return argv, head in COMMANDS and not noise


@settings(max_examples=400, deadline=None)
@given(_command_lines())
@example((["simulate", "--noiseless=1"], False))
@example((["simulate", "--out"], False))
@example((["simulate", "--ou", "x"], False))
@example((["robustness", "--eps-max", "-1", "--t", "0"], False))
@example((["analytic", "--t=--"], False))
@example((["calibrate", "--pooled", "--pooled", "--out", "a", "--out=b"], True))
@example((["robustness", "--eps-max=-inf", "--out", "-"], True))
@example(([], False))
def test_fast_path_agrees_with_argparse(case):
    # the fast path returns argparse's namespace, or None; None whenever
    # argparse rejects the command line, exits or prints help
    argv, well_formed = case
    fast = parse_well_formed(argv)
    reference = _argparse_vars(argv)
    if well_formed:
        assert fast is not None, argv
    if fast is not None:
        assert vars(fast) == reference, argv


def _lab_session():
    """The command lines of the README's CLI block and of the lab session
    that CI runs through the installed script."""
    readme = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = readme.split("```", 1)[0].replace("\\\n", " ")
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv[:1] == ["qclone"]] + [
        ["simulate", "--noiseless", "--out", "report.csv", "--records", "records.csv"],
        ["calibrate", "--strict", "--records", "records.csv", "--out", "calibration.csv"],
        ["calibrate", "--pooled", "--strict", "--records", "records.csv", "--out", "pooled.csv"],
        ["analytic", "--out", "curve.csv"],
        ["robustness", "--t", "0", "--out", "sweep.csv"],
        ["robustness", "--t", "0", "--format", "json", "--out", "sweep.json"],
        ["robustness", "--t", "0", "--eps-points", "201", "--out", "-"],
        ["robustness", "--t", "0.6324555320336759", "--eps-points", "201", "--format", "json",
         "--out", "-"],
        ["simulate", "--out", "noisy.csv", "--records", "noisy_records.csv"],
        ["simulate", "--noiseless", "--eta-a", "5", "--out", "edge.csv",
         "--records", "edge_records.csv"],
    ]


def test_benchmark_and_lab_session_take_the_fast_path(monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    benchmark = [list(cmd.argv) for name in workloads.WORKLOADS for seed in (3, 4001)
                 for tiny in (False, True) for cmd in workloads.commands(name, seed, tiny)]
    lab = _lab_session()
    assert len(lab) >= 15
    for argv in benchmark + lab:
        fast = parse_well_formed(argv)
        assert fast is not None, argv
        assert vars(fast) == _argparse_vars(argv), argv


# The flags of each command, besides --config (every command but schema).
COMMAND_FLAGS = {
    "analytic": "--t --out --format",
    "simulate": "--t --eta-a --eta-b --counts --seed --noiseless --out --records --format",
    "calibrate": "--records --out --format --pooled --strict",
    "robustness": "--t --triple --eps-max --eps-points --out --format",
    "schema": "",
}


def test_option_table(capsys):
    # one entry per RunConfig field, in field order
    assert list(OPTIONS) == list(RunConfig._fields)
    # each command registers its own flags and no other
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert list(commands) == list(COMMAND_FLAGS)
    registered = 0
    for name, parser in commands.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        own = set(COMMAND_FLAGS[name].split()) | ({"--config"} if COMMAND_FLAGS[name] else set())
        assert flags == own | {"-h", "--help"}, name
        assert {OPTIONS[key][0] for key in COMMANDS[name][1]} == own - {"--config"}, name
        registered += len(own)
    assert registered == 27
    # every field is read by some command
    assert set().union(*(fields for _, fields in COMMANDS.values())) == set(RunConfig._fields)
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    out = capsys.readouterr().out
    assert not [flag for flag in ("--pooled", "--strict", "--eps-max", "--triple") if flag in out]


# key, a config-file value away from the default, the same value as flags
SETTINGS = [
    ("t_values", "0,0.5", ["--t", "0,0.5"]),
    ("eta_a", "1.1", ["--eta-a", "1.1"]),
    ("eta_b", "0.9", ["--eta-b", "0.9"]),
    ("counts", "1e3", ["--counts", "1e3"]),
    ("seed", "7", ["--seed", "7"]),
    ("noiseless", "true", ["--noiseless"]),
    ("pooled", "yes", ["--pooled"]),
    ("out", "x.csv", ["--out", "x.csv"]),
    ("records", "r.csv", ["--records", "r.csv"]),
    ("format", "json", ["--format", "json"]),
    ("strict", "1", ["--strict"]),
    ("eps_max", "0.1", ["--eps-max", "0.1"]),
    ("eps_points", "5", ["--eps-points", "5"]),
    ("triple", "0.9,0.7,0.6", ["--triple", "0.9,0.7,0.6"]),
]


def test_config_file_and_flags_build_the_same_config(tmp_path):
    assert [key for key, _, _ in SETTINGS] == list(OPTIONS)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("".join(f"{key} = {val}  # comment\n" for key, val, _ in SETTINGS))
    parser = build_parser()
    default = RunConfig()
    for command, (_, fields) in COMMANDS.items():
        if not fields:
            continue
        from_file = build_config(parser.parse_args([command, "--config", str(cfg_file)]))
        flags = [arg for key, _, args in SETTINGS if key in fields for arg in args]
        from_flags = build_config(parser.parse_args([command, *flags]))
        assert from_file == from_flags, command
        # the command's values are off their defaults; the others keep them
        changed = [key for key in OPTIONS if getattr(from_file, key) != getattr(default, key)]
        assert changed == list(fields), command


def test_shared_config_file_names_and_ignores_foreign_keys(tmp_path, monkeypatch, capfd):
    # one lab-session file can serve every command: a command given the whole
    # file writes what it writes given its own keys alone, and one stderr line
    # names the keys it ignored
    lines = {key: f"{key} = {val}\n" for key, val, _ in SETTINGS}
    for command, (_, fields) in COMMANDS.items():
        if not fields:
            continue
        runs = {}
        for name, keys in (("own", fields), ("shared", OPTIONS)):
            folder = tmp_path / name
            folder.mkdir(exist_ok=True)
            monkeypatch.chdir(folder)
            (folder / "run.cfg").write_text("".join(lines[key] for key in keys))
            code = main([command, "--config", "run.cfg"])
            captured = capfd.readouterr()
            written = {p.name: p.read_bytes() for p in folder.iterdir()}
            del written["run.cfg"]
            runs[name] = code, captured.out, captured.err, written
        (code, out, err, written), shared = runs["own"], runs["shared"]
        assert written, command
        foreign = ", ".join(key for key in OPTIONS if key not in fields)
        assert shared == (code, out, f"# config keys {command} does not read: {foreign}\n" + err,
                          written), command


def test_simulate_without_counts_is_a_data_error(tmp_path, capsys):
    rc = main(["simulate", "--t", "0.5", "--counts", "1e-9", "--out", str(tmp_path / "sim.csv"),
               "--records", str(tmp_path / "records.csv")])
    assert rc == EXIT_DATA
    assert "t = 0.5: all four coincidence counts are zero" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_calibrate_missing_file(tmp_path):
    rc = main(["calibrate", "--records", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "c.csv")])
    assert rc == EXIT_DATA


def test_calibrate_requires_records():
    assert main(["calibrate"]) == EXIT_CONFIG


@pytest.mark.parametrize("out", [[], ["--out", "-"]])
def test_calibrate_json_to_stdout_is_a_config_error(tmp_path, capsys, out):
    # refused before the record file is read: a missing one would be exit 2;
    # CSV too, whose two tables back to back are not one table either
    for fmt in FORMATS:
        rc = main(["calibrate", "--format", fmt, "--records", str(tmp_path / "nope.csv"), *out])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "give --out <path>" in captured.err


def test_robustness_table(tmp_path):
    out = tmp_path / "rob.csv"
    rc = main(["robustness", "--t", "0", "--eps-max", "0.1",
               "--eps-points", "5", "--out", str(out)])
    assert rc == EXIT_OK
    header, rows = read_csv(out)
    assert header == list(SCHEMAS["robustness"])
    assert len(rows) == 25
    for r in rows:
        vals = [float(x) for x in r]
        assert abs(vals[3]) <= vals[4] + 1e-15  # bound dominates quadratic, A
        assert abs(vals[6]) <= vals[7] + 1e-15  # and B


def test_robustness_explicit_triple(tmp_path):
    out = tmp_path / "rob.csv"
    rc = main(["robustness", "--triple", "0.8333333333333333,0.8333333333333333,0.6666666666666666",
               "--out", str(out)])
    assert rc == EXIT_OK
    rc = main(["robustness", "--triple", "0.9,0.9,0.95", "--out", str(out)])
    assert rc == EXIT_CONFIG  # violates diagonal positivity


@pytest.mark.parametrize("triple", ["1,0,0", "1,1,1"])
def test_robustness_table_is_finite_at_the_efficiency_edge(tmp_path, triple):
    out = tmp_path / "rob.csv"
    rc = main(["robustness", "--triple", triple, "--eps-max", "0.9999999999999999",
               "--eps-points", "3", "--out", str(out)])
    assert rc == EXIT_OK
    _, rows = read_csv(out)
    assert np.isfinite(np.array(rows, dtype=float)).all()


SCHEMA_STDOUT = """\
analytic: kind,t,f_a,f_b,p,success_prob,tradeoff_residual
simulate_report: t,state,basis,role,f_a,f_b,mean_a,mean_b,variance_a,variance_b
records: t,state,basis,role,c_pp,c_pm,c_mp,c_mm
calibrate_summary: t,eta_a,eta_b,objective_value,boundary_hit,\
mean_a_before,mean_b_before,mean_a_after,mean_b_after
calibrate_states: t,state,basis,role,f_a,f_b
robustness: eps_a,eps_b,exact_a,quad_a,bound_a,exact_b,quad_b,bound_b
record file: one record per line, fields as 'records' above;
state in {H,V,D,A,R,L}, basis in {HV,DA,RL}, role in {psi,perp}
"""


def test_schema_command(capsys):
    assert main(["schema"]) == EXIT_OK
    assert capsys.readouterr().out == SCHEMA_STDOUT


def test_calibrate_rejects_nonfinite_counts(tmp_path, capsys):
    recs = tmp_path / "records.csv"
    assert main(["simulate", "--t", "0.5", "--out", str(tmp_path / "sim.csv"),
                 "--records", str(recs)]) == EXIT_OK
    lines = recs.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
    recs.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["calibrate", "--records", str(recs), "--out", str(tmp_path / "cal.csv")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "records.csv:3: counts must be four finite nonnegative numbers" in err
    assert not (tmp_path / "cal.csv").exists()


def _calibrate_edited_counts(tmp_path, capsys, pooled, edit):
    """`calibrate` of a simulated t = 0.5 group whose count fields go
    through edit(state, list of four strings); returns the exit code and
    stderr."""
    recs = tmp_path / "records.csv"
    assert main(["simulate", "--t", "0.5", "--out", str(tmp_path / "sim.csv"),
                 "--records", str(recs)]) == EXIT_OK
    lines = recs.read_text().splitlines()
    fields = [line.split(",") for line in lines[1:]]
    lines[1:] = [",".join(f[:4] + edit(f[1], f[4:])) for f in fields]
    recs.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["calibrate", *pooled, "--records", str(recs), "--out", str(tmp_path / "cal.csv")])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("pooled", [[], ["--pooled"]])
@pytest.mark.parametrize("cells", [["1e308"] * 4, ["1e307", "2e307", "3e307", "1e306"]])
def test_calibrate_rejects_counts_above_the_cap(tmp_path, capsys, pooled, cells):
    # before the cap these calibrated to a table of nan with exit 0
    rc, err = _calibrate_edited_counts(tmp_path, capsys, pooled, lambda state, counts: cells)
    assert rc == EXIT_DATA
    assert f"records.csv:2: count {max(map(float, cells)):g} above the cap 1e+150" in err
    assert not (tmp_path / "cal.csv").exists()


@pytest.mark.parametrize("pooled", [[], ["--pooled"]])
def test_calibrate_counts_near_the_cap(tmp_path, capsys, pooled):
    # counts times 1e145 (the largest near 1e150) calibrate as the counts do
    assert _calibrate_edited_counts(tmp_path, capsys, pooled, lambda state, c: c)[0] == EXIT_OK
    plain = (tmp_path / "cal.csv").read_text().splitlines()
    rc, _ = _calibrate_edited_counts(
        tmp_path, capsys, pooled, lambda state, c: [f"{float(v) * 1e145:.12g}" for v in c])
    assert rc == EXIT_OK
    scaled = (tmp_path / "cal.csv").read_text().splitlines()
    assert len(scaled) == len(plain) and scaled[0] == plain[0]
    for row, expected in zip(scaled[1:], plain[1:]):
        # every column but boundary_hit is a number
        values, expected = ([float(v) for k, v in enumerate(line.split(",")) if k != 4]
                            for line in (row, expected))
        assert all(math.isfinite(v) for v in values)
        np.testing.assert_allclose(values, expected, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("pooled", [[], ["--pooled"]])
def test_calibrate_a_lone_subnormal_count(tmp_path, capsys, pooled):
    # V's only count, 5e-324, rescaled by eta_b < 1 would round to a zero
    # total; counts scaled per state keep every report defined
    rc, err = _calibrate_edited_counts(
        tmp_path, capsys, pooled, lambda state, c: ["0", "0", "5e-324", "0"] if state == "V" else c)
    assert rc == EXIT_OK, err
    rows = (tmp_path / "cal_states.csv").read_text().splitlines()
    assert rows[2].startswith("0.5,V,HV,perp,1,0")


@pytest.mark.parametrize("fields, message", [
    ("H,RL", "state H belongs to basis HV, got RL"),
    ("X,HV", "unknown state 'X'"),
])
def test_calibrate_rejects_bad_state(tmp_path, capsys, fields, message):
    recs = tmp_path / "records.csv"
    assert main(["simulate", "--t", "0.5", "--out", str(tmp_path / "sim.csv"),
                 "--records", str(recs)]) == EXIT_OK
    lines = recs.read_text().splitlines()
    assert lines[1].startswith("0.5,H,HV,psi,")
    lines[1] = lines[1].replace(",H,HV,", f",{fields},")
    recs.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["calibrate", "--records", str(recs), "--out", str(tmp_path / "cal.csv")])
    assert rc == EXIT_DATA
    assert f"records.csv:2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "cal.csv").exists()


# Tables written by the commit before the sweep was vectorised; the embedded
# config is stable because they were written to stdout (--out -).
ROBUSTNESS_GOLDEN = [
    ("robustness_t0_11.csv", ["--t", "0", "--eps-points", "11"]),
    ("robustness_t0.632_11.json",
     ["--t", "0.6324555320336759", "--eps-points", "11", "--format", "json"]),
    ("robustness_triple_37.csv",
     ["--triple", "0.9,0.7,0.6", "--eps-max", "0.9", "--eps-points", "37"]),
    ("robustness_triple_37.json",
     ["--triple", "0.9,0.7,0.6", "--eps-max", "0.9", "--eps-points", "37", "--format", "json"]),
]


@pytest.mark.parametrize("name, args", ROBUSTNESS_GOLDEN)
def test_robustness_table_bytes_unchanged(capfd, name, args):
    assert main(["robustness", *args, "--out", "-"]) == EXIT_OK
    assert capfd.readouterr().out.encode() == (DATA / name).read_bytes()


# Tables whose rows mix strings, bools and numpy floats, written by the
# commit before rows of floats were formatted by one template, then cut to
# each command's own config fields and without the objective column.
# Relative --records and --out paths keep the embedded config the same in any
# directory. A table without --out goes to stdout; calibrate's tables go to
# the --out file and its _states sibling, each checked against its own file.
SIMULATE = ["simulate", "--t", "0,0.6324555320336759,1", "--seed", "7", "--records", "records.csv"]
CALIBRATE = ["calibrate", "--records", "records.csv"]
MIXED_GOLDEN = [
    ("analytic.csv", ["analytic"]),
    ("analytic.json", ["analytic", "--format", "json"]),
    ("simulate.csv", SIMULATE),
    ("simulate.json", [*SIMULATE, "--format", "json"]),
    ("calibrate.csv", [*CALIBRATE, "--out", "calibrate.csv"]),
    ("calibrate.json", [*CALIBRATE, "--format", "json", "--out", "calibrate.json"]),
    ("calibrate_pooled.csv", [*CALIBRATE, "--pooled", "--out", "calibrate_pooled.csv"]),
    ("calibrate_pooled.json",
     [*CALIBRATE, "--pooled", "--format", "json", "--out", "calibrate_pooled.json"]),
]


@pytest.mark.parametrize("name, argv", MIXED_GOLDEN)
def test_mixed_tables_bytes_unchanged(tmp_path, monkeypatch, capfd, name, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "calibrate":
        assert main([*SIMULATE, "--out", "-"]) == EXIT_OK
        capfd.readouterr()
    if "--out" not in argv:
        assert main([*argv, "--out", "-"]) == EXIT_OK
        assert capfd.readouterr().out.encode() == (DATA / name).read_bytes()
        return
    assert main(argv) == EXIT_OK
    assert capfd.readouterr().out == ""
    stem, ext = os.path.splitext(name)
    for written in (name, f"{stem}_states{ext}"):
        assert (tmp_path / written).read_bytes() == (DATA / written).read_bytes(), written


# Two paths of one command that name one file: simulate's table and its record
# file, calibrate's input records and either table, and any command's config
# file and a file it writes; also through a symbolic or a hard link.  Each is
# refused before anything is read or written.
SAME_FILE = [
    (["simulate", "--out", "r.csv", "--records", "r.csv"], "--out and the record file"),
    (["simulate", "--out", "r.csv", "--records", "./r.csv"], "--out and the record file"),
    (["calibrate", "--records", "rec.csv", "--out", "rec.csv"], "--records and --out"),
    (["calibrate", "--records", "c_states.csv", "--out", "c.csv"],
     "--records and the per-state table"),
    (["calibrate", "--records", "c_states.json", "--format", "json", "--out", "c"],
     "--records and the per-state table"),
    (["calibrate", "--records", "link.csv", "--out", "rec.csv"], "--records and --out"),
    (["calibrate", "--records", "hard.csv", "--out", "rec.csv"], "--records and --out"),
    (["simulate", "--config", "run.cfg", "--out", "run.cfg"], "--config and --out"),
    (["simulate", "--config", "run.cfg", "--records", "run.cfg"], "--config and the record file"),
    (["calibrate", "--config", "run.cfg", "--records", "rec.csv", "--out", "run.cfg"],
     "--config and --out"),
    (["calibrate", "--config", "cfg_states.csv", "--records", "rec.csv", "--out", "cfg.csv"],
     "--config and the per-state table"),
    (["analytic", "--config", "run.cfg", "--out", "./run.cfg"], "--config and --out"),
    (["robustness", "--t", "0", "--config", "run.cfg", "--out", "run.cfg"], "--config and --out"),
]


@pytest.mark.parametrize("argv, names", SAME_FILE)
def test_a_command_does_not_write_over_its_own_files(tmp_path, monkeypatch, capsys, argv, names):
    monkeypatch.chdir(tmp_path)
    simulate = ["simulate", "--t", "0.5", "--records", "sim_records.csv", "--out", "sim.csv"]
    assert main(simulate) == EXIT_OK
    for name in ("r.csv", "rec.csv", "c_states.csv", "c_states.json"):
        (tmp_path / name).write_bytes((tmp_path / "sim_records.csv").read_bytes())
    (tmp_path / "link.csv").symlink_to(tmp_path / "rec.csv")
    os.link(tmp_path / "rec.csv", tmp_path / "hard.csv")
    for name in ("run.cfg", "cfg_states.csv"):
        (tmp_path / name).write_text("format = csv\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {names} are the same file" in captured.err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("fmt, out, states", [
    ("json", "cal", "cal_states.json"),
    ("csv", "cal", "cal_states.csv"),
    ("json", "cal.txt", "cal_states.txt"),
])
def test_per_state_table_is_named_after_its_format(tmp_path, monkeypatch, fmt, out, states):
    # without an extension on --out the per-state table takes its format's;
    # simulate's record file stays .csv
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--t", "0.5", "--format", fmt, "--out", "sim"]) == EXIT_OK
    assert (tmp_path / "sim_records.csv").exists()
    argv = ["calibrate", "--format", fmt, "--records", "sim_records.csv", "--out", out]
    assert main(argv) == EXIT_OK
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(["sim", "sim_records.csv", out, states])
    if fmt == "json":
        assert json.loads((tmp_path / states).read_text())["columns"] == list(
            SCHEMAS["calibrate_states"])


@pytest.mark.parametrize("fmt, out, records", [
    ("json", "report.json", "report_records.csv"),
    ("csv", "report.txt", "report_records.csv"),
    ("csv", "run.v2/report", "run.v2/report_records.csv"),
])
def test_simulate_record_file_is_csv_whatever_the_out_extension(tmp_path, monkeypatch, fmt,
                                                                 out, records):
    from qclone.detection import read_records

    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    assert main(["simulate", "--t", "0.5", "--format", fmt, "--out", out]) == EXIT_OK
    assert sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")
                  if path.is_file()) == sorted([out, records])
    assert len(read_records(records)) == 6


@pytest.mark.parametrize("pooled", [[], ["--pooled"]])
def test_calibrate_runs_no_descent(tmp_path, monkeypatch, pooled):
    # with the reference descent gone, calibrate still exits 0, and each
    # row's eta is exp(_ratio_seed) of its groups bit for bit (JSON keeps a
    # float's repr): per group, or over every group in file order
    from qclone import estimation
    from qclone.detection import read_records

    def refuse(*args):
        raise AssertionError("calibrate ran the reference descent")

    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--t", "0.9,0,0.5,1", "--counts", "1e3", "--records", "r.csv",
                 "--out", "sim.csv"]) == EXIT_OK
    monkeypatch.setattr(estimation, "minimize", refuse)
    assert main(["calibrate", *pooled, "--format", "json", "--records", "r.csv",
                 "--out", "cal.json"]) == EXIT_OK
    table = json.loads((tmp_path / "cal.json").read_text())
    columns = table["columns"]
    groups = {}
    for rec in read_records("r.csv"):
        groups.setdefault(rec.t, []).append(rec)
    counts = estimation.stacked_counts(list(groups.values()))
    ts = list(groups)
    rows = sorted(table["rows"], key=lambda row: ts.index(row[0]))
    assert [row[0] for row in rows] == ts
    for row, group in zip(rows, counts):
        log_eta = estimation._ratio_seed(counts if pooled else [group])
        eta = [row[columns.index("eta_a")], row[columns.index("eta_b")]]
        assert eta == [math.exp(log_eta[0]), math.exp(log_eta[1])]


@pytest.mark.parametrize("args", [[], ["--out", "report.csv", "--records", "-"]])
def test_simulate_records_need_a_path(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--t", "0.5", *args]) == EXIT_CONFIG
    assert "give --records <path>" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _as_shaped(rows):
    """`rows` as a `Shaped` table, each row its own shape: a Python float is
    a float cell, any other value a constant."""
    shapes = {i: tuple(float if type(v) is float else v for v in row) for i, row in enumerate(rows)}
    return Shaped(shapes, [(i, tuple(v for v in row if type(v) is float))
                           for i, row in enumerate(rows)])


TABLE_ROWS = [(0.1, True, "a"), (1 / 3, False, "b")]
TABLE = (("x", "flag", "label"), _as_shaped(TABLE_ROWS))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_stdout_matches_file(tmp_path, capfd, fmt):
    out, expected = tmp_path / f"table.{fmt}", tmp_path / "expected"
    write_table(*TABLE, str(out), fmt, config={"seed": 1})
    write_table(*TABLE, "-", fmt, config={"seed": 1})
    assert capfd.readouterr().out.encode() == out.read_bytes()
    with open(expected, "w") as fh:
        dump_table(TABLE[0], TABLE_ROWS, fh, fmt, {"seed": 1})
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_failure_keeps_target(tmp_path, fmt):
    out = tmp_path / f"table.{fmt}"
    out.write_text("old table\n")

    def failing():  # the second row fails after the first is written
        yield 0, (0.1, 0.2)
        raise RuntimeError("cannot format")

    with pytest.raises(RuntimeError, match="cannot format"):
        write_table(("a", "b"), Shaped({0: (float, float)}, failing()), str(out), fmt)
    assert out.read_text() == "old table\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_written_files_get_the_mode_of_open(tmp_path):
    # the temporary file behind an atomic write is created 0600
    old = os.umask(0o027)
    try:
        rc = main(["simulate", "--t", "0.5", "--out", str(tmp_path / "report.csv"),
                   "--records", str(tmp_path / "records.csv")])
    finally:
        os.umask(old)
    assert rc == EXIT_OK
    for name in ("report.csv", "records.csv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o640


def test_write_table_unwritable_directory_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot write"):
        write_table(*TABLE, str(tmp_path / "missing" / "table.csv"), "csv")


# floats the two formats write in their own ways: signed zero, subnormals,
# exponent notation at both ends, nan and the infinities
SPECIAL_FLOATS = [-0.0, 5e-324, 1e-310, 1e16, 1e-5, 0.1, math.nan, math.inf, -math.inf]
PY_FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
NUMBERS = st.one_of(PY_FLOATS, PY_FLOATS.map(np.float64), st.booleans(), st.integers())
VALUES = st.one_of(NUMBERS, st.text())


@st.composite
def tables(draw):
    width = draw(st.integers(0, 4))
    rows = st.one_of(*(st.tuples(*[values] * width) for values in (PY_FLOATS, NUMBERS, VALUES)))
    return (
        draw(st.lists(st.text(), min_size=width, max_size=width)),
        draw(st.lists(rows | rows.map(list), max_size=4)),
        draw(st.sampled_from(["csv", "json"])),
        draw(st.none() | st.dictionaries(st.text(), VALUES | st.lists(PY_FLOATS), max_size=3)),
    )


@settings(deadline=None)
@given(tables())
@example((("a", "b"), [], "json", None))
@example((("a", "b"), [], "csv", {"seed": 1}))
@example((("x",), [(math.nan,), (-math.inf,)], "json", None))
@example((("x", "y"), [(np.float64(0.5), 0.25), (True, 1.0)], "json", None))
@example((("x", "y"), [("é\"\\", 1.0)], "json", {"out": "ü"}))
@example((("x", "y"), [(1.0, 2.0, 3.0), (1.0,)], "csv", None))
def test_write_table_matches_oracle(tmp_path_factory, table):
    # Python floats in rows, numpy floats, ints, bools and text as constants
    columns, rows, fmt, config = table
    folder = tmp_path_factory.mktemp("tables")
    out, expected = folder / "table", folder / "expected"
    write_table(columns, _as_shaped(rows), str(out), fmt, config)
    with open(expected, "w") as fh:
        dump_table(columns, rows, fh, fmt, config)
    assert out.read_bytes() == expected.read_bytes()


@st.composite
def grids(draw):
    """A Grid of Python floats, its rows as a list, and a format."""
    keys = draw(st.lists(PY_FLOATS, max_size=3))
    values = draw(st.integers(0, 3))
    column = st.lists(PY_FLOATS, min_size=len(keys), max_size=len(keys))
    blocks = [draw(st.lists(column, min_size=values, max_size=values)) for _ in keys]
    rows = [(key, other, *(c[j] for c in block))
            for key, block in zip(keys, blocks) for j, other in enumerate(keys)]
    return values, Grid(keys, iter(blocks)), rows, draw(st.sampled_from(FORMATS))


@settings(deadline=None)
@given(grids())
@example((1, Grid([-0.0, math.nan], iter([[[math.inf, -math.inf]], [[5e-324, 1e16]]])),
          [(-0.0, -0.0, math.inf), (-0.0, math.nan, -math.inf),
           (math.nan, -0.0, 5e-324), (math.nan, math.nan, 1e16)], "json"))
@example((2, Grid([], iter([])), [], "json"))
def test_write_grid_matches_oracle(tmp_path_factory, grid):
    # a grid is written block by block, each key's text made once: the bytes
    # are those of its rows written value by value
    values, rows, expected_rows, fmt = grid
    columns = ["key", "other", *(f"v{i}" for i in range(values))]
    folder = tmp_path_factory.mktemp("grids")
    out, expected = folder / "table", folder / "expected"
    write_table(columns, rows, str(out), fmt, {"seed": 1})
    with open(expected, "w") as fh:
        dump_table(columns, expected_rows, fh, fmt, {"seed": 1})
    assert out.read_bytes() == expected.read_bytes()


def _shaped_rows(draw, shapes):
    """Rows of a `Shaped` table: (key, floats), and the same rows filled in."""
    rows, filled = [], []
    for key in draw(st.lists(st.sampled_from(list(shapes)), max_size=8)):
        floats = draw(st.tuples(*[PY_FLOATS] * shapes[key].count(float)))
        rows.append((key, floats))
        values = list(floats)
        filled.append([values.pop(0) if cell is float else cell for cell in shapes[key]])
    return rows, filled


@st.composite
def shaped_tables(draw):
    """Shapes of constant bools, ints, strings (a "%" in them too) and
    floats among float cells; rows of any Python floats; a format."""
    width = draw(st.integers(0, 5))
    cell = st.just(float) | st.booleans() | st.integers() | st.text() | PY_FLOATS
    shapes = draw(st.dictionaries(st.integers(0, 3) | st.text(max_size=2),
                                  st.tuples(*[cell] * width), min_size=1, max_size=3))
    rows, filled = _shaped_rows(draw, shapes)
    columns = draw(st.lists(st.text(), min_size=width, max_size=width))
    return columns, Shaped(shapes, iter(rows)), filled, draw(st.sampled_from(FORMATS))


@settings(deadline=None)
@given(shaped_tables())
@example((["x", "y", "z"], Shaped({0: (float, "%s%%", float), 1: (True, -0.0, 7)},
                                  iter([(0, (math.nan, -math.inf)), (1, ())])),
          [[math.nan, "%s%%", -math.inf], [True, -0.0, 7]], "csv"))
def test_write_shaped_matches_oracle(tmp_path_factory, table):
    # a Shaped table is written, in CSV by one template per shape, as its
    # rows written value by value
    columns, rows, filled, fmt = table
    folder = tmp_path_factory.mktemp("shaped")
    out, expected = folder / "table", folder / "expected"
    write_table(columns, rows, str(out), fmt, {"seed": 1})
    with open(expected, "w") as fh:
        dump_table(columns, filled, fh, fmt, {"seed": 1})
    assert out.read_bytes() == expected.read_bytes()


@settings(deadline=None)
@given(st.data())
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", list(SHAPES))
def test_six_state_table_shapes_match_oracle(tmp_path_factory, name, fmt, data):
    # the row shapes of every Shaped table and of the record file fit their
    # schemas, and their rows of any floats are written as the oracle writes them
    shapes = SHAPES[name]
    assert all(len(shape) == len(SCHEMAS[name]) for shape in shapes.values())
    if "state" in SCHEMAS[name]:
        assert [shape[1:4] for shape in shapes.values()] == [
            (label, BASIS_LABELS[i // 2], role)
            for i, (label, role) in enumerate(zip(CATALOG_LABELS, CATALOG_ROLES))]
    rows, filled = _shaped_rows(data.draw, shapes)
    folder = tmp_path_factory.mktemp("shapes")
    out, expected = folder / "table", folder / "expected"
    write_table(SCHEMAS[name], Shaped(shapes, iter(rows)), str(out), fmt)
    with open(expected, "w") as fh:
        dump_table(SCHEMAS[name], filled, fh, fmt, None)
    assert out.read_bytes() == expected.read_bytes()


MACHINES = [["--t", "0.6324555320336759"], ["--triple", "0.9,0.7,0.6", "--eps-max", "0.9"]]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("eps_points", [1, 2, 3, 21, 201])
def test_robustness_bytes_equal_the_oracle(tmp_path, capfd, machine, eps_points, fmt):
    # the table of `qclone robustness`, to a file and to stdout, is the
    # value-by-value formatting of the numpy sweep's rows
    flag, value, *eps_max = machine
    m = (machine_triple(float(value)) if flag == "--t"
         else MachineTriple(*map(float, value.split(","))))
    rows = robustness_oracle.sweep_rows(m, float(eps_max[1]) if eps_max else 0.2, eps_points)
    for out in (str(tmp_path / f"sweep.{fmt}"), "-"):
        argv = ["robustness", *machine, "--eps-points", str(eps_points), "--format", fmt,
                "--out", out]
        config = build_config(build_parser().parse_args(argv)).resolved(COMMANDS["robustness"][1])
        assert main(argv) == EXIT_OK
        with open(tmp_path / "expected", "w") as fh:
            dump_table(SCHEMAS["robustness"], rows, fh, fmt, config)
        written = capfd.readouterr().out.encode() if out == "-" else Path(out).read_bytes()
        assert written == (tmp_path / "expected").read_bytes(), out


@pytest.mark.parametrize("flag, value, message", [
    ("--eps-points", "-3", "eps_points must be at least 1"),
    ("--eps-points", "0", "eps_points must be at least 1"),
    ("--eps-points", str(EPS_POINTS_MAX + 1), f"and at most {EPS_POINTS_MAX}, got"),
    ("--eps-max", "1.5", "eps_max must lie in [0, 1)"),
    ("--eps-max", "-0.1", "eps_max must lie in [0, 1)"),
])
def test_robustness_rejects_bad_sweep_range(tmp_path, capsys, flag, value, message):
    rc = main(["robustness", "--t", "0", flag, value, "--out", str(tmp_path / "rob.csv")])
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_default_calibration_stays_inside_the_box(tmp_path):
    # at t = 1 the data do not determine eta_b; that must not push the fit
    # to the edge of the search box
    recs = tmp_path / "records.csv"
    assert main(["simulate", "--out", str(tmp_path / "sim.csv"), "--records", str(recs)]) == EXIT_OK
    out = tmp_path / "cal.csv"
    assert main(["calibrate", "--strict", "--records", str(recs), "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    assert [r[4] for r in rows] == ["false"] * 6


def test_strict_boundary_hit_exits_3_and_writes_both_tables(tmp_path):
    # noiseless counts at eta_a = 5 calibrate to eta_a = 5, on the edge of
    # the box; the default noisy run stays inside it
    edge = tmp_path / "edge_records.csv"
    assert main(["simulate", "--noiseless", "--eta-a", "5", "--out", str(tmp_path / "edge.csv"),
                 "--records", str(edge)]) == EXIT_OK
    out = tmp_path / "cal.csv"
    calibrate = ["calibrate", "--strict"]
    rc = main([*calibrate, "--records", str(edge), "--out", str(out)])
    assert rc == EXIT_BOUNDARY
    _, rows = read_csv(out)
    assert len(rows) == 6 and "true" in [r[4] for r in rows]
    _, states = read_csv(tmp_path / "cal_states.csv")
    assert len(states) == 36
    recs = tmp_path / "records.csv"
    assert main(["simulate", "--out", str(tmp_path / "sim.csv"), "--records", str(recs)]) == EXIT_OK
    out = tmp_path / "sum.csv"
    rc = main([*calibrate, "--records", str(recs), "--out", str(out)])
    assert rc == EXIT_OK
    assert (tmp_path / "sum_states.csv").exists()


def test_machine_from_config_type_hints_resolve_without_numpy():
    code = (
        "import sys, typing, qclone.cli as cli\n"
        "hints = typing.get_type_hints(cli._machine_from_config)\n"
        "assert hints == {'cfg': cli.RunConfig, 'return': cli.MachineTriple}, hints\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_the_commands_need_no_runtime_dependency():
    # every command runs on the standard library alone; numpy, which the
    # test oracles need, is in the test extra
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    test_extra = project["optional-dependencies"]["test"]
    assert [req for req in test_extra if req.startswith("numpy")] == ["numpy>=1.24"]


def _subprocess_env():
    """The environment of a child python that imports this checkout's qclone."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_no_scipy(tmp_path):
    # neither the package, nor the cli module, nor the commands that need no
    # numbers (schema, --help, config errors), nor the closed-form tables
    # (analytic, robustness), nor the simulation, nor the calibration load
    # numpy or scipy; the -X importtime trace names every module the process
    # imports
    # (`-m qclone.cli` runs the cli as __main__, so qclone.cli is not among
    # the imports); each case names the exact set of qclone modules it loads.
    # Only --help and a rejected command line load argparse, with its
    # gettext and locale; a well-formed one with a bad value does not
    env = _subprocess_env()
    records, edge = str(tmp_path / "r.csv"), str(tmp_path / "edge.csv")
    light = {"qclone", "qclone.labels"}
    analytic = light | {"qclone.cloner"}
    robustness = analytic | {"qclone.robustness"}
    # only a draw loads the sampler: not a noiseless run, nor a calibration
    noiseless = light | {"qclone.detection"}
    simulate = noiseless | {"qclone.sampler"}
    calibrate = noiseless | {"qclone.estimation"}
    cases = [
        (["-c", "import qclone"], EXIT_OK, {"qclone"}),
        (["-c", "import qclone.cli"], EXIT_OK, light | {"qclone.cli"}),
        (["-m", "qclone.cli", "schema"], EXIT_OK, light),
        (["-m", "qclone.cli", "--help"], EXIT_OK, light),
        (["-m", "qclone.cli", "simulate", "--bogus"], EXIT_CONFIG, light),
        (["-m", "qclone.cli", "simulate", "--t", "2"], EXIT_CONFIG, light),
        (["-m", "qclone.cli", "simulate", "--eta-a", "abc"], EXIT_CONFIG, light),
        (["-m", "qclone.cli", "simulate", "--out", "-"], EXIT_CONFIG, light),
        (["-m", "qclone.cli", "calibrate"], EXIT_CONFIG, light),
        (["-m", "qclone.cli", "robustness", "--t", "0,1"], EXIT_CONFIG, light),
        (["-m", "qclone.cli", "robustness", "--triple", "0.9,0.9,0.95"], EXIT_CONFIG, light),
        (["-m", "qclone.cli", "analytic"], EXIT_OK, analytic),
        (["-m", "qclone.cli", "analytic", "--format", "json"], EXIT_OK, analytic),
        (["-m", "qclone.cli", "robustness", "--t", "0"], EXIT_OK, robustness),
        # an explicit triple needs no cloner
        (["-m", "qclone.cli", "robustness", "--triple", "0.9,0.7,0.6", "--format", "json"], EXIT_OK,
         robustness - {"qclone.cloner"}),
        (["-m", "qclone.cli", "robustness", "--t", "0", "--out", str(tmp_path / "sweep.csv")],
         EXIT_OK, robustness),
        (["-m", "qclone.cli", "simulate", "--records", records], EXIT_OK, simulate),
        (["-m", "qclone.cli", "simulate", "--format", "json", "--records", records], EXIT_OK,
         simulate),
        (["-m", "qclone.cli", "simulate", "--noiseless", "--records", records], EXIT_OK, noiseless),
        (["-m", "qclone.cli", "calibrate", "--records", records, "--out", str(tmp_path / "c.csv")],
         EXIT_OK, calibrate),
        (["-m", "qclone.cli", "calibrate", "--pooled", "--records", records,
          "--out", str(tmp_path / "p.csv")], EXIT_OK, calibrate),
        (["-m", "qclone.cli", "calibrate", "--format", "json", "--out", str(tmp_path / "cal.json"),
          "--records", records], EXIT_OK, calibrate),
        # noiseless counts at eta_a = 5 calibrate onto the search box
        (["-m", "qclone.cli", "simulate", "--noiseless", "--eta-a", "5", "--records", edge],
         EXIT_OK, noiseless),
        (["-m", "qclone.cli", "calibrate", "--strict", "--records", edge,
          "--out", str(tmp_path / "e.csv")], EXIT_BOUNDARY, calibrate),
    ]
    for args, code, modules in cases:
        proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, (args, proc.stderr)
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert {m for m in imported if m.split(".")[0] == "qclone"} == modules, args
        assert not [m for m in imported if m.split(".")[0] in ("numpy", "scipy")], args
        # nor dataclasses and its inspect, on any path; json only for a JSON table
        top = {m.split(".")[0] for m in imported}
        # nor __future__
        assert "__future__" not in top, args
        if "--help" in args or "--bogus" in args:
            assert "argparse" in top, args
            lines = (proc.stdout + proc.stderr).splitlines()
            assert [line for line in lines if line.startswith("usage: qclone")], args
        else:
            assert not top & {"argparse", "gettext", "locale"}, args
        if "json" in args:
            out = args[args.index("--out") + 1] if "--out" in args else None
            json.loads(Path(out).read_text() if out else proc.stdout)
            assert not top & {"dataclasses", "inspect"}, args
        else:
            assert not top & {"dataclasses", "inspect", "json"}, args


def test_closed_stdout_is_a_data_error():
    # a reader that stops after the first line, like `| head -1`, closes the
    # pipe while a 201x201 sweep (about 4 MB) is still being written
    argv = [sys.executable, "-m", "qclone.cli", "robustness", "--t", "0", "--eps-points", "201",
            "--out", "-"]
    proc = subprocess.Popen(argv, env=_subprocess_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == (",".join(SCHEMAS["robustness"]) + "\n").encode()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == EXIT_DATA, err
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert "data error: stdout was closed" in err
    assert "Traceback" not in err and "Exception ignored" not in err


# Fuzzed flags for the exit-code property: each value is drawn in range or
# anywhere, so that runs as well as rejections are drawn. A run size is drawn
# small and valid or beyond its cap, never large but in range.
def _floats_or_in(low, high):
    return (st.floats(low, high) | st.floats()).map(repr)


FLAG_VALUES = {
    "--t": (_floats_or_in(0.0, 1.0) | st.lists(_floats_or_in(0.0, 1.0), min_size=2).map(",".join)
            | st.text()),
    "--eta-a": _floats_or_in(0.2, 5.0),
    "--eta-b": _floats_or_in(0.2, 5.0),
    "--seed": (st.integers(0, 2**64) | st.integers()).map(str),
    "--counts": (st.floats(0.0, 1e4, exclude_min=True)
                 | st.floats().filter(lambda c: not 0.0 < c <= COUNTS_MAX)).map(repr),
    "--eps-points": (st.integers(1, 21)
                     | st.integers().filter(lambda n: not 1 <= n <= EPS_POINTS_MAX)).map(str),
    "--eps-max": _floats_or_in(0.0, 0.99),
    "--triple": (st.lists(_floats_or_in(0.0, 1.0), min_size=1, max_size=4).map(",".join)
                 | st.text()),
    "--format": st.sampled_from(FORMATS) | st.text(),
}
KEYS = {flag: key for key, (flag, _, _) in OPTIONS.items()}


@st.composite
def command_lines(draw):
    """A command, its flags and the lines of a config file: each drawn value
    of the command's own is given either as a flag or as a `key = value`
    line, any other one as a line, which the command ignores; schema takes
    neither. One flag of another command may be added, which makes the run a
    config error. The last item is the exit code the run must end in, None
    where any documented one will do."""
    command = draw(st.sampled_from(["analytic", "simulate", "robustness", "schema"]))
    fields = COMMANDS[command][1]
    flags, lines = [], []
    for flag, values in FLAG_VALUES.items() if fields else ():
        if draw(st.booleans()):
            value = draw(values)
            if KEYS[flag] in fields and draw(st.booleans()):
                flags.append(f"{flag}={value}")
            else:
                lines.append(f"{KEYS[flag]} = {value}")
    if not draw(st.booleans()):
        return [command, *flags], lines, None
    foreign = [flag for key, (flag, _, _) in OPTIONS.items() if key not in fields]
    foreign += ["--objective"] + ([] if fields else ["--config"])
    flag = draw(st.sampled_from(foreign))
    value = draw(FLAG_VALUES.get(flag, st.sampled_from(["sum", "x.csv", "1"])))
    flags.insert(draw(st.integers(0, len(flags))), f"{flag}={value}")
    return [command, *flags], lines, EXIT_CONFIG


@settings(deadline=None)
@given(command_lines())
@example((["simulate", "--eta-a=9"], [], EXIT_CONFIG))
@example((["simulate", "--eta-a=nan"], [], EXIT_CONFIG))
@example((["simulate", "--seed=-1"], [], EXIT_CONFIG))
@example((["simulate", "--counts=1e300"], [], EXIT_CONFIG))
@example((["robustness", "--t=0.5", "--eps-points=100000000"], [], EXIT_CONFIG))
@example((["simulate", "--eta-a=abc"], [], EXIT_CONFIG))
@example((["robustness", "--t=0.5", "--eps-points=2.5"], [], EXIT_CONFIG))
@example((["simulate", "--objective=c"], [], EXIT_CONFIG))
@example((["calibrate", "--objective=a"], [], EXIT_CONFIG))
@example((["simulate", "--bogus=1"], [], EXIT_CONFIG))
@example((["simulate"], ["eta_a = abc"], EXIT_CONFIG))
@example((["robustness"], ["triple = 0.9,0.7", "eps_points = 3"], EXIT_CONFIG))
@example((["calibrate", "--records=nope.csv", "--format=json", "--out=-"], [], EXIT_CONFIG))
@example((["calibrate", "--records=nope.csv", "--out=-"], [], EXIT_CONFIG))
@example((["analytic", "--pooled"], [], EXIT_CONFIG))
@example((["robustness", "--t=0", "--seed=3"], [], EXIT_CONFIG))
@example((["schema", "--config=run.cfg"], [], EXIT_CONFIG))
@example((["schema"], [], EXIT_OK))
@example((["analytic"], ["counts = abc", "objective_value = 1"], EXIT_CONFIG))
@example((["analytic"], ["counts = abc", "eta_a = 9"], EXIT_OK))
def test_exit_code_is_documented(tmp_path_factory, run):
    argv, lines, expected = run
    folder = tmp_path_factory.mktemp("run")
    # the default paths go before the drawn flags, which may override them:
    # --out to every command but schema, --records to simulate alone
    paths = {"simulate": ["--out", str(folder / "table.csv"), "--records", str(folder / "records.csv")],
             "schema": []}
    argv = [argv[0], *paths.get(argv[0], ["--out", str(folder / "table.csv")]), *argv[1:]]
    if lines:
        (folder / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv += ["--config", str(folder / "run.cfg")]
    code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_BOUNDARY)
    if expected is not None:
        assert code == expected

"""The qclone command line as argparse reads it: the oracle that
`cli.parse_well_formed` is compared with.  It registers each command of
`cli.COMMANDS` with its `--config` and its fields' flags from `cli.OPTIONS`,
as the argparse parser that qclone once shipped did."""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

from qclone.cli import COMMANDS, OPTIONS, _boolean


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qclone")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fields in COMMANDS.items():
        p = sub.add_parser(name)
        if fields:
            p.add_argument("--config")
        for key in fields:
            flag, parse, text = OPTIONS[key]
            switch = {"action": "store_true", "default": None} if parse is _boolean else {}
            p.add_argument(flag, dest=key, help=text, **switch)
    return parser


def argparse_vars(argv):
    """vars() of argparse's namespace for argv; "help" where argparse prints
    help; None where it rejects argv.  A `--flag=--` is rejected too:
    argparse drops the `--` and reads [] (Python 3.12 and before) or '--'
    (3.13 on), which qclone never took for a value."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            values = vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return "help" if exc.code == 0 else None
    if any(isinstance(val, list) or val == "--" for val in values.values()):
        return None
    return values

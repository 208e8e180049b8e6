"""The argparse parser of the qclone command line, which `cli.main` falls
back on for --help and for a command line that `cli.parse_well_formed`
leaves to it.  A well-formed command line loads neither this module nor
argparse, with its gettext and locale."""

import argparse
import sys

from .cli import COMMANDS, OPTIONS, ConfigError, _boolean


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


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the qclone command line, whose rejections are
    config errors, not exit 2."""
    parser = _Parser(
        prog="qclone",
        description="Asymmetric qubit-cloner simulation, calibration and robustness tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fields in COMMANDS.items():
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

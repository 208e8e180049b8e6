"""The table commands, one module each: `analytic`, `simulate`, `calibrate`
and `robustness`.

`qclone.cli` parses and validates a command line, then imports the module of
the command it names and calls its `run(cfg, config, config_file)`, which
returns the exit code.  So a process compiles the body of the one command it
runs, and `schema`, the help and a config error found by the entry (a
rejected command line included) compile none.  A command settles its files
and its arguments first, raising `ConfigError` before any work, and imports
the modules of its work only then.  It writes each table by its name in
`labels.TABLES` through `cli.write_table`, which loads the table writer
(`qclone.tables`), and its `#` lines to stderr through `cli.note`.  This
package holds the one check that more than one command needs,
`_distinct_files`.
"""

import os

from ..cli import ConfigError


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

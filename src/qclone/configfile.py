"""The reader of a `--config` file, which only a command line that names
one loads."""

from .cli import COMMANDS, OPTIONS, ConfigError, _parse_value, note


def parse_config_file(path: str, command: str) -> dict:
    """Flat key=value config; '#' starts a comment.

    One file can serve every command: a key of another command is dropped
    unparsed, and one stderr line names the dropped keys.
    """
    fields = COMMANDS[command]
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
        note(f"# config keys {command} does not read: {', '.join(foreign)}")
    return values

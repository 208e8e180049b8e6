"""The value-by-value table formatter, the oracle `cli.write_table`'s row
templates are tested against."""

import json


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def dump_table(columns, rows, fh, fmt: str, config: dict | None) -> None:
    """Write a table as `cli.write_table` does: CSV joins `_fmt` of each
    value, JSON is one `json.dump` of the whole payload."""
    if fmt == "json":
        payload = {"columns": list(columns), "rows": list(rows)}
        if config is not None:
            payload["config"] = config
        json.dump(payload, fh, indent=2, default=_fmt)
        fh.write("\n")
    else:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)

"""The table writer: every table and record file that qclone writes.

`dump_table` streams a table, of row shapes or a grid, as CSV or JSON, and
`write_atomic` moves a written file into place whole; `linspace` makes the
evenly spaced axes of the analytic curve and the robustness sweep.  Only
the commands that write a table import this module, so `schema`, the help
and a config error found before any work (a rejected command line
included) compile none of it.  It imports
nothing but the standard library.
"""

import os
from itertools import repeat
from typing import Callable, TextIO


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num).tolist()`` for floats, bit for bit.

    numpy's arithmetic in numpy's order: point i is ``i*step + start``, or
    ``i/div*delta + start`` where the step rounds to zero, and the last
    point is `stop` itself.
    """
    div = num - 1
    delta = stop - start
    if div > 0:
        step = delta / div
        points = [i / div * delta for i in range(num)] if step == 0 else [i * step for i in range(num)]
    else:
        points = [i * delta for i in range(num)]
    points = [x + start for x in points]
    if num > 1:
        points[-1] = stop
    return points


def write_atomic(path, dump: Callable[[TextIO], None]) -> None:
    """Write a text file through ``dump(fh)`` and move it into place whole.

    The file is written under a random `.qclone-` name in the target
    directory, created with the mode ``open(path, "w")`` gives (0o666 less
    the umask, which is never changed), and renamed over `path` only once
    complete; on any error the temporary file is closed and removed, an
    existing `path` is left unchanged and the error is raised.
    An existing `path` that names, through its links, neither a regular file
    nor a directory (a FIFO, a device, /dev/stdout) is written in place
    instead, never replaced.
    """
    if os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path)):
        with open(path, "w") as fh:
            dump(fh)
        return
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".qclone-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as fh:
            dump(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_floats(text: str) -> str:
    # reprs of floats as json writes them: a float's repr holds an "n" only
    # as nan or inf, json's NaN and Infinity
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _row_template(cells: list, fmt: str) -> str:
    # the %-template of a row from the texts of its cells: CSV joins them by
    # commas, JSON lays them out as json.dump(..., indent=2) lays out a row
    if fmt == "csv":
        return ",".join(cells)
    return "[\n      " + ",\n      ".join(cells) + "\n    ]" if cells else "[]"


def dump_table(columns, shapes, rows, fh: TextIO, fmt: str, config: dict | None = None) -> None:
    """Stream `rows` under the header `columns` into `fh` as "csv" or "json"
    (with `config`, if given, as its "config").

    With `shapes`, each a tuple of cells (a constant, or `float` where the
    row holds a float), `rows` yields (key, floats), the row of shapes[key]
    with its floats in order; each row is one %-template of its shape, its
    constants' text made once per table.  With `shapes` None, `rows` is a
    grid (keys, blocks) of Python floats whose rows are ``(keys[i], keys[j],
    *(c[j] for c in blocks[i]))``, written a block per join, each key's text
    made once per table.  CSV writes a float as ``%.12g``, a bool as
    ``true``/``false`` and any other constant as ``str``; JSON is what
    ``json.dump(..., indent=2)`` writes: a float as its ``repr`` (``NaN``,
    ``Infinity``), a constant as ``json.dumps``.
    """
    if fmt == "json":
        import json  # here, so that a CSV run does not load it

        payload = {"columns": list(columns), "rows": []}
        if config is not None:
            payload["config"] = config
        # json escapes every quote inside a string, so the first match is the key
        head, _, tail = json.dumps(payload, indent=2).partition('"rows": []')
        head, first, sep = head + '"rows": [', "\n    ", ",\n    "
        end, rows_end = "]" + tail + "\n", "\n  ]" + tail + "\n"
        constant = json.dumps
    else:
        head, first = ",".join(columns), "\n"
        sep = end = rows_end = "\n"
        constant = _csv_text
    if shapes is None:
        keys, blocks = rows
        key_text, number = (repr, "%r") if fmt == "json" else ("%.12g".__mod__, "%.12g")
        template = _row_template(["%s", "%s"] + [number] * (len(columns) - 2), fmt)
        keys = list(map(key_text, keys))
        texts = (sep.join(map(template.__mod__, zip(repeat(key), keys, *block)))
                 for key, block in zip(keys, blocks))
        if fmt == "json":
            texts = map(_json_floats, texts)
    else:
        number = "%s" if fmt == "json" else "%.12g"
        templates = {
            key: _row_template([number if cell is float else constant(cell).replace("%", "%%")
                                for cell in shape], fmt)
            for key, shape in shapes.items()
        }
        if fmt == "json":
            texts = (templates[key] % tuple(map(_json_floats, map(repr, floats)))
                     for key, floats in rows)
        else:
            texts = (templates[key] % floats for key, floats in rows)
    fh.write(head)
    for text in texts:
        fh.write(first + text)
        first, end = sep, rows_end
    fh.write(end)

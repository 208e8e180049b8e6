"""Names shared by the record files, the tables and the command line.

The six preparation states and their analysis bases, the role of each state,
each state's (state, basis, role) columns, the record-file columns, the
efficiency search box and the machine triple; also what every table command
needs: `linspace`, and the one writer of tables and record files,
`dump_table` and `write_atomic`.  This module imports nothing but the
standard library, so the command line can parse and validate a run, and
compute the closed-form tables, without loading numpy.
"""

import math
import os
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, TextIO

CATALOG_LABELS = ("H", "V", "D", "A", "R", "L")
BASIS_LABELS = ("HV", "DA", "RL")

ROLE_PSI = "psi"
ROLE_PERP = "perp"
# role of each catalog state: the even ones are the basis states psi
CATALOG_ROLES = tuple(ROLE_PSI if i % 2 == 0 else ROLE_PERP for i in range(len(CATALOG_LABELS)))
# (state, basis, role) of each catalog state, in catalog order: the catalog
# pairs each basis's two states, H,V in HV, D,A in DA, R,L in RL
STATE_COLUMNS = tuple(
    (label, BASIS_LABELS[i // 2], role)
    for i, (label, role) in enumerate(zip(CATALOG_LABELS, CATALOG_ROLES))
)

# One record per line: t, state_label, basis_label, role, c_pp, c_pm, c_mp, c_mm
RECORD_FIELDS = ("t", "state", "basis", "role", "c_pp", "c_pm", "c_mp", "c_mm")


def state_shapes(values: int) -> dict:
    """The row shapes (see `Shaped`) of a six-state table, keyed by state
    label: t, the state's (state, basis, role), then `values` floats."""
    return {columns[0]: (float, *columns) + (float,) * values for columns in STATE_COLUMNS}


# A record's row shape: t, its state's (state, basis, role), its four counts.
RECORD_SHAPES = state_shapes(4)

ETA_MIN = 0.2
ETA_MAX = 5.0


class EfficiencyPair(NamedTuple):
    """Relative efficiencies (minus-detector over plus-detector) per block."""

    eta_a: float
    eta_b: float

    def validate(self) -> None:
        for name, eta in zip(("eta_a", "eta_b"), self):
            if not ETA_MIN <= eta <= ETA_MAX:  # false for nan as well
                raise ValueError(
                    f"{name} = {eta} outside plausible range [{ETA_MIN}, {ETA_MAX}]"
                )


class MachineTriple(NamedTuple):
    """Diagonal parametrization (fid_a, fid_b, p) of a covariant two-clone machine.

    In the (psi, psi_perp) product basis the joint diagonal is
    (p, fid_a - p, fid_b - p, 1 + p - fid_a - fid_b); all four entries must be
    valid probabilities.
    """

    fid_a: float
    fid_b: float
    p: float

    def diagonal(self) -> tuple[float, float, float, float]:
        """The joint diagonal (p, fid_a - p, fid_b - p, 1 + p - fid_a - fid_b)."""
        fa, fb, p = self
        return p, fa - p, fb - p, 1.0 + p - fa - fb

    def validate(self, atol: float = 1e-12) -> None:
        if not all(math.isfinite(v) for v in self):
            raise ValueError(f"invalid machine triple {self}: entries must be finite")
        if min(self.diagonal()) < -atol:
            raise ValueError(f"invalid machine triple {self}: negative diagonal element")

    def swapped(self) -> "MachineTriple":
        """The same machine with the clone labels interchanged."""
        return MachineTriple(self.fid_b, self.fid_a, self.p)


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

    The file is written under a temporary name in the target directory and
    renamed over `path` only once complete; on any error the temporary file
    is removed, an existing `path` is left unchanged and the error is raised.
    """
    import tempfile  # here, so that commands that write no file do not load it

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".qclone-")
    try:
        # mkstemp creates the file 0600; give it the mode open(path, "w") would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            dump(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# --- tables and record files ----------------------------------------------


class Grid(NamedTuple):
    """A table of Python floats over a square grid: block i of `blocks`
    holds the value columns at the first key keys[i], each over the second
    key, so the rows are ``(keys[i], keys[j], *(c[j] for c in block_i))``."""

    keys: list
    blocks: Iterable


class Shaped(NamedTuple):
    """Rows of a few fixed shapes: each shape is a tuple of cells, a
    constant value or `float` where the row holds a float; `rows` yields
    (key, floats), the row of shapes[key] with its `float` cells filled
    from the tuple floats in order."""

    shapes: dict
    rows: Iterable


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


def dump_table(columns, table, fh: TextIO, fmt: str, config: dict | None = None) -> None:
    """Stream `table`, a `Grid` or a `Shaped`, under the header `columns` into
    `fh` as "csv" or "json" (with `config`, if given, as its "config").

    Each row is one %-template of its shape, its constants' text made once
    per table.  CSV writes a float as ``%.12g``, a bool as ``true``/``false``
    and any other constant as ``str``; JSON is what ``json.dump(...,
    indent=2)`` writes: a float as its ``repr`` (``NaN``, ``Infinity``), a
    constant as ``json.dumps``.  A `Grid` is written a block per join, each
    key's text made once per table.
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
    if isinstance(table, Grid):
        key_text, number = (repr, "%r") if fmt == "json" else ("%.12g".__mod__, "%.12g")
        template = _row_template(["%s", "%s"] + [number] * (len(columns) - 2), fmt)
        keys = list(map(key_text, table.keys))
        texts = (sep.join(map(template.__mod__, zip(repeat(key), keys, *block)))
                 for key, block in zip(keys, table.blocks))
        if fmt == "json":
            texts = map(_json_floats, texts)
    else:
        number = "%s" if fmt == "json" else "%.12g"
        templates = {
            key: _row_template([number if cell is float else constant(cell).replace("%", "%%")
                                for cell in shape], fmt)
            for key, shape in table.shapes.items()
        }
        if fmt == "json":
            texts = (templates[key] % tuple(map(_json_floats, map(repr, floats)))
                     for key, floats in table.rows)
        else:
            texts = (templates[key] % floats for key, floats in table.rows)
    fh.write(head)
    for text in texts:
        fh.write(first + text)
        first, end = sep, rows_end
    fh.write(end)

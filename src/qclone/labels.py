"""Names shared by the record files, the tables and the command line.

The six preparation states and their analysis bases, the role of each state,
each state's (state, basis, role) columns, the record-file columns, the
efficiency search box and the machine triple; also the two helpers every
table command needs, `linspace` and `write_atomic`.  This module imports
nothing but the standard library, so the command line can parse and
validate a run, and compute the closed-form tables, without loading numpy.
"""

import math
import os
from typing import Callable, NamedTuple, TextIO

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

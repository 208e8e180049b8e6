"""Names shared by the record files, the tables and the command line.

The six preparation states and their analysis bases, the role of each state,
the record-file columns, the calibration objectives and the efficiency
search box.  This module imports nothing but the standard library, so the
command line can parse and validate a run without loading numpy.
"""

from __future__ import annotations

from typing import NamedTuple

CATALOG_LABELS = ("H", "V", "D", "A", "R", "L")
BASIS_LABELS = ("HV", "DA", "RL")

ROLE_PSI = "psi"
ROLE_PERP = "perp"
# role of each catalog state: the even ones are the basis states psi
CATALOG_ROLES = tuple(ROLE_PSI if i % 2 == 0 else ROLE_PERP for i in range(len(CATALOG_LABELS)))

# One record per line: t, state_label, basis_label, role, c_pp, c_pm, c_mp, c_mm
RECORD_FIELDS = ("t", "state", "basis", "role", "c_pp", "c_pm", "c_mp", "c_mm")

OBJECTIVES = ("a", "b", "sum")

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

    def mismatches(self) -> tuple[float, float]:
        return self.eta_a - 1.0, self.eta_b - 1.0

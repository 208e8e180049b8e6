"""Names shared by the record files, the tables and the command line.

The six preparation states and their analysis bases, the role of each state,
each state's (state, basis, role) columns, `TABLES` (the columns and row
shapes of every table and of the record file), the efficiency search box and
the machine triple.  Every command imports this module, `schema` and the
config errors included, so it holds only these names; the table writer is
`qclone.tables`.  It imports nothing but the standard library, so the
command line can parse and validate a run without loading numpy.
"""

import math
from typing import NamedTuple

CATALOG_LABELS = ("H", "V", "D", "A", "R", "L")
BASIS_LABELS = ("HV", "DA", "RL")

ROLE_PSI = "psi"
ROLE_PERP = "perp"
# The catalog pairs each basis's two states, its basis state psi first: H,V
# in HV, D,A in DA, R,L in RL.  The role of each catalog state:
CATALOG_ROLES = (ROLE_PSI, ROLE_PERP) * len(BASIS_LABELS)
# (state, basis, role) of each catalog state, in catalog order
STATE_COLUMNS = tuple(
    zip(CATALOG_LABELS, [basis for basis in BASIS_LABELS for _ in (ROLE_PSI, ROLE_PERP)],
        CATALOG_ROLES)
)

# One record per line: t, state_label, basis_label, role, c_pp, c_pm, c_mp, c_mm
RECORD_FIELDS = ("t", "state", "basis", "role", "c_pp", "c_pm", "c_mp", "c_mm")


def state_shapes(values: int) -> dict:
    """The row shapes (see `tables.dump_table`) of a six-state table, keyed
    by state label: t, the state's (state, basis, role), then `values` floats."""
    return {columns[0]: (float, *columns) + (float,) * values for columns in STATE_COLUMNS}


# Every table by name, in the order `schema` lists them: its columns and the
# row shapes (see `tables.dump_table`) of its rows, an analytic row's by its
# kind, a state's by its label, a summary row's by its boundary_hit; None for
# the robustness grid, whose rows are (keys, blocks).  A record is t, its
# state's (state, basis, role) and its four counts.
TABLES = {
    "analytic": (
        "kind t f_a f_b p success_prob tradeoff_residual".split(),
        {kind: (kind,) + (float,) * 6 for kind in ("grid", "curve")},
    ),
    "simulate_report": (
        "t state basis role f_a f_b mean_a mean_b variance_a variance_b".split(),
        state_shapes(6),
    ),
    "records": (RECORD_FIELDS, state_shapes(4)),
    "calibrate_summary": (
        "t eta_a eta_b objective_value boundary_hit "
        "mean_a_before mean_b_before mean_a_after mean_b_after".split(),
        {hit: (float,) * 4 + (hit,) + (float,) * 4 for hit in (False, True)},
    ),
    "calibrate_states": ("t state basis role f_a f_b".split(), state_shapes(2)),
    "robustness": ("eps_a eps_b exact_a quad_a bound_a exact_b quad_b bound_b".split(), None),
}

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

    def validate(self) -> None:
        if not all(math.isfinite(v) for v in self):
            raise ValueError(f"invalid machine triple {self}: entries must be finite")
        if min(self.diagonal()) < -1e-12:  # rounding just below zero passes
            raise ValueError(f"invalid machine triple {self}: negative diagonal element")

    def swapped(self) -> "MachineTriple":
        """The same machine with the clone labels interchanged."""
        return MachineTriple(self.fid_b, self.fid_a, self.p)

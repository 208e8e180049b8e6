"""Coincidence detection model: ideal click probabilities, efficiency bias,
count rescaling and Poisson shot noise.

Counts are length-4 arrays ordered (C++, C+-, C-+, C--): first index is the
detector in block A, second in block B.  Within each analysis basis the "+"
detectors project onto basis.psi and the "-" detectors onto basis.psi_perp,
for both input roles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .cloner import apply_cloner
from .states import BASIS_LABELS, CATALOG_LABELS, BasisPair, catalog_states, mub_bases, tensor

ROLE_PSI = "psi"
ROLE_PERP = "perp"
# role of each catalog state: the even ones are the basis states psi
CATALOG_ROLES = tuple(ROLE_PSI if i % 2 == 0 else ROLE_PERP for i in range(len(CATALOG_LABELS)))

ETA_MIN = 0.2
ETA_MAX = 5.0


class EfficiencyPair(NamedTuple):
    """Relative efficiencies (minus-detector over plus-detector) per block."""

    eta_a: float
    eta_b: float

    def validate(self) -> None:
        for name, eta in zip(("eta_a", "eta_b"), self):
            if not ETA_MIN <= eta <= ETA_MAX:
                raise ValueError(
                    f"{name} = {eta} outside plausible range [{ETA_MIN}, {ETA_MAX}]"
                )

    def mismatches(self) -> tuple[float, float]:
        return self.eta_a - 1.0, self.eta_b - 1.0


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement setting: input state, analysis basis and the four counts."""

    t: float
    state_label: str
    basis_label: str
    role: str  # ROLE_PSI or ROLE_PERP
    counts: np.ndarray

    def __post_init__(self):
        if self.role not in (ROLE_PSI, ROLE_PERP):
            raise ValueError(f"unknown role {self.role!r}")
        if self.state_label not in CATALOG_LABELS:
            raise ValueError(f"unknown state {self.state_label!r}")
        index = CATALOG_LABELS.index(self.state_label)
        expected_role = CATALOG_ROLES[index]
        if self.role != expected_role:
            raise ValueError(
                f"state {self.state_label} has role {expected_role}, got {self.role}"
            )
        # the catalog pairs each basis's two states: H,V in HV, D,A in DA, R,L in RL
        expected_basis = BASIS_LABELS[index // 2]
        if self.basis_label != expected_basis:
            raise ValueError(
                f"state {self.state_label} belongs to basis {expected_basis}, "
                f"got {self.basis_label}"
            )
        # the chained comparisons are false for nan as well
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t = {self.t} outside [0, 1]")
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=float))
        if self.counts.shape != (4,) or not all(
            0.0 <= c < math.inf for c in self.counts.tolist()
        ):
            raise ValueError("counts must be four finite nonnegative numbers")


def ideal_probabilities(psi_in: np.ndarray, basis: BasisPair, t: float) -> np.ndarray:
    """Unit-efficiency coincidence probabilities (p++, p+-, p-+, p--).

    The input must be one of the two basis states.  Returned probabilities are
    the diagonal of the normalized two-clone state in the basis-aligned
    product basis and sum to one.
    """
    ov_psi = abs(np.vdot(basis.psi, psi_in)) ** 2
    ov_perp = abs(np.vdot(basis.psi_perp, psi_in)) ** 2
    if not (abs(ov_psi - 1.0) < 1e-12 or abs(ov_perp - 1.0) < 1e-12):
        raise ValueError("input state is not a member of the analysis basis")
    rho_out, prob = apply_cloner(psi_in, t)
    q = np.column_stack([basis.psi, basis.psi_perp])
    u = tensor(q, q)
    probs = np.diag(u.conj().T @ (rho_out / prob) @ u).real
    # clip float noise at exactly-zero outcomes (e.g. p-- at t=0)
    if probs.min() < -1e-12:
        raise AssertionError(f"negative coincidence probability: {probs}")
    return np.clip(probs, 0.0, None)


def bias_counts(probs: np.ndarray, eta: EfficiencyPair, rate: float) -> np.ndarray:
    """Expected coincidence rates seen by miscalibrated detectors.

    A "-" click in block A scales by eta_a, in block B by eta_b.
    """
    if rate <= 0:
        raise ValueError("overall rate must be positive")
    ea, eb = eta
    return rate * np.asarray(probs) * np.array([1.0, eb, ea, ea * eb])


def rescale_counts(counts: np.ndarray, eta: EfficiencyPair) -> np.ndarray:
    """Calibration rescaling: (eta_a*eta_b*C++, eta_a*C+-, eta_b*C-+, C--).

    Exact inverse of bias_counts up to the overall factor eta_a*eta_b.
    """
    ea, eb = eta
    return np.asarray(counts) * np.array([ea * eb, ea, eb, 1.0])


def sample_counts(expected: np.ndarray, seed) -> np.ndarray:
    """Poisson-distributed integer counts around the expected rates.

    ``seed`` may be anything ``np.random.default_rng`` accepts (int,
    SeedSequence, Generator); the same seed always yields the same counts.
    """
    expected = np.asarray(expected, dtype=float)
    if np.min(expected) < 0:
        raise ValueError("expected rates must be nonnegative")
    rng = np.random.default_rng(seed)
    return rng.poisson(expected).astype(float)


def run_experiment(
    t: float,
    eta: EfficiencyPair,
    counts_per_setting: float,
    seed: int = 0,
    noiseless: bool = False,
) -> list[MeasurementRecord]:
    """Simulate the full six-state protocol at one asymmetry setting.

    For each of the three analysis bases, both basis states are cloned with
    the detector assignment held fixed.  Returns six records in catalog order
    (H, V, D, A, R, L).
    """
    eta = EfficiencyPair(*eta)
    eta.validate()
    states = catalog_states()
    child_seeds = np.random.SeedSequence(seed).spawn(6)
    records = []
    for i, basis in enumerate(mub_bases()):
        for j, role in enumerate((ROLE_PSI, ROLE_PERP)):
            idx = 2 * i + j
            probs = ideal_probabilities(states[idx], basis, t)
            expected = bias_counts(probs, eta, counts_per_setting)
            counts = expected if noiseless else sample_counts(expected, child_seeds[idx])
            records.append(
                MeasurementRecord(
                    t=t,
                    state_label=CATALOG_LABELS[idx],
                    basis_label=BASIS_LABELS[i],
                    role=role,
                    counts=counts,
                )
            )
    return records


# --- record file I/O -------------------------------------------------------
# One record per line: t, state_label, basis_label, role, c_pp, c_pm, c_mp, c_mm

RECORD_FIELDS = ("t", "state", "basis", "role", "c_pp", "c_pm", "c_mp", "c_mm")


def format_record(rec: MeasurementRecord) -> str:
    nums = ",".join(f"{c:.12g}" for c in rec.counts)
    return f"{rec.t:.12g},{rec.state_label},{rec.basis_label},{rec.role},{nums}"


def write_records(records: Iterable[MeasurementRecord], path) -> None:
    lines = [",".join(RECORD_FIELDS)]
    lines.extend(format_record(r) for r in records)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records(path) -> list[MeasurementRecord]:
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith(",".join(RECORD_FIELDS[:2])):
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise ValueError(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
            try:
                counts = np.array([float(x) for x in parts[4:]])
                records.append(MeasurementRecord(float(parts[0]), *parts[1:4], counts))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return records

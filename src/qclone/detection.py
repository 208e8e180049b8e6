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
from typing import Iterable, TextIO

import numpy as np

# defined in labels; callers may import them from here too
from .labels import (
    BASIS_LABELS,
    CATALOG_LABELS,
    CATALOG_ROLES,
    ETA_MAX,
    ETA_MIN,
    RECORD_FIELDS,
    ROLE_PERP,
    ROLE_PSI,
    EfficiencyPair,
    write_atomic,
)


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


def ideal_probabilities(t: float, role: str) -> np.ndarray:
    """Unit-efficiency coincidence probabilities (p++, p+-, p-+, p--).

    The cloner is covariant, so in every analysis basis they depend on t
    alone: (4, (1-t)^2, (1+t)^2, 0) / (2(3+t^2)) for the basis state psi,
    reversed for psi_perp.  The outcome the model forbids is an exact zero.
    """
    if role not in (ROLE_PSI, ROLE_PERP):
        raise ValueError(f"unknown role {role!r}")
    if not 0.0 <= t <= 1.0:  # false for nan as well
        raise ValueError(f"t = {t} outside [0, 1]")
    minus, plus = 1.0 - t, 1.0 + t
    probs = np.array([4.0, minus * minus, plus * plus, 0.0]) / (2.0 * (3.0 + t * t))
    return probs if role == ROLE_PSI else probs[::-1]


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
    child_seeds = np.random.SeedSequence(seed).spawn(len(CATALOG_LABELS))
    records = []
    for i, (label, role) in enumerate(zip(CATALOG_LABELS, CATALOG_ROLES)):
        expected = bias_counts(ideal_probabilities(t, role), eta, counts_per_setting)
        counts = expected if noiseless else sample_counts(expected, child_seeds[i])
        records.append(MeasurementRecord(t, label, BASIS_LABELS[i // 2], role, counts))
    return records


# --- record file I/O -------------------------------------------------------
# One record per line, in the order of RECORD_FIELDS


def format_record(rec: MeasurementRecord) -> str:
    nums = ",".join(f"{c:.12g}" for c in rec.counts)
    return f"{rec.t:.12g},{rec.state_label},{rec.basis_label},{rec.role},{nums}"


def write_records(records: Iterable[MeasurementRecord], path) -> None:
    """Atomically write a record file, streamed one record per line."""

    def dump(fh: TextIO) -> None:
        fh.write(",".join(RECORD_FIELDS) + "\n")
        fh.writelines(format_record(r) + "\n" for r in records)

    write_atomic(path, dump)


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

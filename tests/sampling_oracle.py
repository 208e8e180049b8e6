"""numpy's seeded Poisson sampling, the oracle the standard-library port in
`qclone.sampler`, and `detection.run_experiment`'s draws from it, are tested
against: one `np.random.default_rng` per state, from a spawned
`SeedSequence`."""

import numpy as np

from qclone.detection import MeasurementRecord, bias_counts, ideal_probabilities
from qclone.labels import BASIS_LABELS, CATALOG_LABELS, CATALOG_ROLES, EfficiencyPair


def sample_counts(expected, seed) -> np.ndarray:
    """Poisson-distributed integer counts around the expected rates.

    ``seed`` may be anything ``np.random.default_rng`` accepts (int,
    SeedSequence, Generator); the same seed always yields the same counts.
    """
    expected = np.asarray(expected, dtype=float)
    if np.min(expected) < 0:
        raise ValueError("expected rates must be nonnegative")
    rng = np.random.default_rng(seed)
    return rng.poisson(expected).astype(float)


def run_experiment(t, eta, counts_per_setting, seed=0, noiseless=False):
    """The six records of one asymmetry setting, state i drawn from child i
    of ``SeedSequence(seed)``."""
    eta = EfficiencyPair(*eta)
    eta.validate()
    child_seeds = np.random.SeedSequence(seed).spawn(len(CATALOG_LABELS))
    records = []
    for i, (label, role) in enumerate(zip(CATALOG_LABELS, CATALOG_ROLES)):
        expected = np.array(bias_counts(ideal_probabilities(t, role), eta, counts_per_setting))
        counts = expected if noiseless else sample_counts(expected, child_seeds[i])
        records.append(MeasurementRecord(t, label, BASIS_LABELS[i // 2], role, counts))
    return records

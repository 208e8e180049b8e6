"""Six-state reports of many groups in one numpy array pass, the oracle the
standard-library `detection.six_state_report` is tested against."""

from typing import NamedTuple

import numpy as np

from qclone.detection import FidelityReport, NoDataError
from qclone.labels import CATALOG_ROLES, ROLE_PSI

_PSI_ROWS = np.array(CATALOG_ROLES) == ROLE_PSI


class BatchReport(NamedTuple):
    """Six-state reports of G groups: per-state fidelities (G, 6) in catalog
    order, and their means and population variances (G,)."""

    f_a: np.ndarray
    f_b: np.ndarray
    mean_a: np.ndarray
    mean_b: np.ndarray
    variance_a: np.ndarray
    variance_b: np.ndarray

    def split(self) -> list[FidelityReport]:
        """One `FidelityReport` of Python floats per group."""
        f_a, f_b, *stats = (v.tolist() for v in self)
        return [FidelityReport(list(zip(a, b)), *s) for a, b, *s in zip(f_a, f_b, *stats)]


def batch_report(counts, eta=None) -> BatchReport:
    """Six-state reports of counts (G, 6, 4) in catalog order, rescaled first
    by the efficiencies eta, (G, 2) or (2,), when given.

    Row g is bit for bit the report of group g alone: the arithmetic is
    elementwise, and every sum runs along a contiguous trailing axis of at
    most six terms, which numpy adds in the order of a sum of that group.
    """
    counts = np.asarray(counts, dtype=float)
    if eta is not None:
        eta_a, eta_b = np.moveaxis(np.asarray(eta, dtype=float), -1, 0)
        scale = np.stack([eta_a * eta_b, eta_a, eta_b, np.ones_like(eta_a)], axis=-1)
        counts = counts * scale[..., None, :]
    total = counts.sum(axis=-1)
    if np.any(total <= 0):
        raise NoDataError("all four coincidence counts are zero")
    c_pp, c_pm, c_mp, c_mm = np.moveaxis(counts, -1, 0)
    f_a = np.where(_PSI_ROWS, c_pp + c_pm, c_mm + c_mp) / total
    f_b = np.where(_PSI_ROWS, c_pp + c_mp, c_mm + c_pm) / total
    mean_a, mean_b = f_a.mean(axis=-1), f_b.mean(axis=-1)
    # population (divide-by-6) variance in centered form: the mean-of-squares
    # expression loses everything below ~1e-16 to cancellation
    return BatchReport(
        f_a, f_b, mean_a, mean_b,
        ((f_a - mean_a[:, None]) ** 2).mean(axis=-1),
        ((f_b - mean_b[:, None]) ** 2).mean(axis=-1),
    )

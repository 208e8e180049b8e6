"""Fidelity estimators, six-state reports and variance-minimizing detector
calibration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .detection import MeasurementRecord, rescale_counts
from .labels import (
    CATALOG_LABELS,
    CATALOG_ROLES,
    ETA_MAX,
    ETA_MIN,
    OBJECTIVES,
    ROLE_PERP,
    ROLE_PSI,
    EfficiencyPair,
)


class NoDataError(ValueError):
    """A record carries zero total counts; fidelities are undefined."""


@dataclass(frozen=True)
class FidelityReport:
    """Per-state clone fidelities with their six-state means and variances."""

    per_state: list[tuple[float, float]]  # (f_A, f_B) in catalog order
    mean_a: float
    mean_b: float
    variance_a: float
    variance_b: float


@dataclass(frozen=True)
class CalibrationResult:
    eta: EfficiencyPair
    report: FidelityReport
    objective_value: float
    objective: str
    boundary_hit: bool


def fidelities_from_counts(counts: np.ndarray, role: str) -> tuple[float, float]:
    """Clone fidelities (f_A, f_B) from one set of four coincidence counts.

    For role "psi" the + detectors herald the cloned state; for role "perp"
    the detector roles are reversed.
    """
    c = np.asarray(counts, dtype=float)
    total = c.sum()
    if total <= 0:
        raise NoDataError("all four coincidence counts are zero")
    cpp, cpm, cmp_, cmm = c
    if role == ROLE_PSI:
        return (cpp + cpm) / total, (cpp + cmp_) / total
    if role == ROLE_PERP:
        return (cmm + cmp_) / total, (cmm + cpm) / total
    raise ValueError(f"unknown role {role!r}")


def _population_variance(values: np.ndarray) -> float:
    # population (divide-by-6) variance, computed in centered form: the
    # mean-of-squares expression loses everything below ~1e-16 to cancellation
    values = np.asarray(values, dtype=float)
    return float(np.mean((values - values.mean()) ** 2))


def _ordered_counts(records: list[MeasurementRecord]) -> tuple[np.ndarray, list[str]]:
    """Counts matrix (6,4) in catalog order plus the role list; validates coverage."""
    by_state = {}
    for rec in records:
        if rec.state_label in by_state:
            raise ValueError(f"duplicate record for state {rec.state_label}")
        by_state[rec.state_label] = rec
    missing = [s for s in CATALOG_LABELS if s not in by_state]
    if missing:
        raise ValueError(f"missing records for states: {missing}")
    ordered = [by_state[s] for s in CATALOG_LABELS]
    counts = np.array([r.counts for r in ordered], dtype=float)
    roles = [r.role for r in ordered]
    return counts, roles


def _report_from_counts(counts: np.ndarray, roles: list[str]) -> FidelityReport:
    per_state = [fidelities_from_counts(c, role) for c, role in zip(counts, roles)]
    fa = np.array([p[0] for p in per_state])
    fb = np.array([p[1] for p in per_state])
    return FidelityReport(
        per_state=per_state,
        mean_a=float(fa.mean()),
        mean_b=float(fb.mean()),
        variance_a=_population_variance(fa),
        variance_b=_population_variance(fb),
    )


def report(
    records: list[MeasurementRecord],
    eta_correction: EfficiencyPair | None = None,
) -> FidelityReport:
    """Six-state fidelity report, optionally after efficiency rescaling."""
    counts, roles = _ordered_counts(records)
    if eta_correction is not None:
        counts = np.array([rescale_counts(c, eta_correction) for c in counts])
    return _report_from_counts(counts, roles)


# --- calibration --------------------------------------------------------------
# In log-efficiencies z = (ln eta_a, ln eta_b) the rescaled counts
# (C++ e^(za+zb), C+- e^za, C-+ e^zb, C--) form an exponential family in the
# two statistics "A clicked +" and "B clicked +".  The psi-role fidelities
# are their means, so their z-derivatives are cumulants:
#   d f_A = (s_A, c),  d f_B = (c, s_B),
#   s_A = f_A (1 - f_A),  s_B = f_B (1 - f_B),  c = (rescaled C++) / total - f_A f_B,
# with d s_A = (1 - 2 f_A) d f_A,  d s_B = (1 - 2 f_B) d f_B  and
# d c = c (1 - 2 f_A, 1 - 2 f_B).  A perp-role fidelity is one minus the same
# expression.  The psi-role rows are H, D, R; the perp-role rows V, A, L.

_PSI_ROWS = np.array(CATALOG_ROLES) == ROLE_PSI
_ROLE_SIGN = np.where(_PSI_ROWS, 1.0, -1.0)
_CLONES = {"a": [0], "b": [1], "sum": [0, 1]}
_LOG_BOUNDS = (np.log(ETA_MIN), np.log(ETA_MAX))
_GRID_POINTS = 50  # per axis of the pre-scan grid
# (G, 6) cells per block of grid points in the pre-scan; bounds its memory
_GRID_CELLS = 2**17


def _clones(objective: str) -> list[int]:
    if objective not in _CLONES:
        raise ValueError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")
    return _CLONES[objective]


def _stacked_counts(groups: list[list[MeasurementRecord]]) -> np.ndarray:
    """Counts of every six-state group in catalog order, shape (G, 6, 4)."""
    counts = np.stack([_ordered_counts(records)[0] for records in groups])
    if np.any(counts.sum(axis=-1) <= 0):
        raise NoDataError("all four coincidence counts are zero")
    return counts


def _rescaled_fidelities(counts: np.ndarray, eta_a, eta_b):
    """Psi-role f_A, f_B and the C++ fraction of the rescaled counts."""
    c_pp, c_pm, c_mp, c_mm = np.moveaxis(counts, -1, 0)
    both = eta_a * eta_b * c_pp
    a_plus = both + eta_a * c_pm
    total = a_plus + eta_b * c_mp + c_mm
    return a_plus / total, (both + eta_b * c_mp) / total, both / total


def _own_role(f: np.ndarray) -> np.ndarray:
    """Fidelities of each state's own role from the psi-role expressions."""
    return np.where(_PSI_ROWS, f, 1.0 - f)


def _centered(f: np.ndarray) -> np.ndarray:
    return f - f.mean(axis=-1, keepdims=True)


def _grid_values(counts: np.ndarray, objective: str, eta_a: np.ndarray, eta_b: np.ndarray):
    """Objective at every point (eta_a[i], eta_b[i]), in blocks of bounded size."""
    clones = _clones(objective)
    block = max(1, _GRID_CELLS // counts[..., 0].size)
    values = []
    for i in range(0, eta_a.size, block):
        fa, fb, _ = _rescaled_fidelities(
            counts, eta_a[i : i + block, None, None], eta_b[i : i + block, None, None]
        )
        f = _own_role(np.stack([fa, fb])[clones])
        values.append((_centered(f) ** 2).mean(axis=-1).sum(axis=(0, -1)))
    return np.concatenate(values)


def _objective_terms(counts: np.ndarray, log_eta: np.ndarray, objective: str):
    """Value, gradient (2,) and Hessian (2, 2) in z = ln(eta) of the fidelity
    variance, summed over the chosen clones and the groups."""
    fa, fb, both = _rescaled_fidelities(counts, *np.exp(log_eta))
    sa, sb, c = fa * (1.0 - fa), fb * (1.0 - fb), both - fa * fb
    ka, kb = 1.0 - 2.0 * fa, 1.0 - 2.0 * fb
    # per clone: f, d_a f, d_b f, d_aa f, d_ab f, d_bb f
    terms = [(fa, sa, c, ka * sa, ka * c, kb * c), (fb, c, sb, ka * c, kb * c, kb * sb)]
    p = np.stack([np.stack(terms[i]) for i in _clones(objective)], axis=1)
    p[0] = _own_role(p[0])
    p[1:] *= _ROLE_SIGN
    dev = _centered(p[:3])
    n = counts.shape[-2]
    value = float((dev[0] ** 2).sum()) / n
    grad = 2.0 / n * (dev[0] * dev[1:]).sum(axis=(1, 2, 3))
    slopes = dev[1:].reshape(2, -1)
    h_aa, h_ab, h_bb = (dev[0] * p[3:]).sum(axis=(1, 2, 3))
    hess = 2.0 / n * (slopes @ slopes.T + np.array([[h_aa, h_ab], [h_ab, h_bb]]))
    return value, grad, hess


def _rounding(value: float) -> float:
    """Rounding error of an objective value.  It is a mean of squared
    deviations of fidelities that are each off by a few ulp of 1, so the
    error scales with the root of the value, not with the value."""
    return 8.0 * np.finfo(float).eps * np.sqrt(value)


def _ratio_seed(counts: np.ndarray) -> np.ndarray:
    """Closed-form ln(eta) from count ratios of the bias model.

    Per basis, with psi-role counts C_psi and perp-role counts C_perp,
    eta_a^2 = (C-+_psi C--_perp) / (C++_psi C+-_perp) and
    eta_b^2 = (C+-_psi C--_perp) / (C++_psi C-+_perp): the machine parameters
    cancel.  Log-mean over bases and groups, skipping zero counts; an
    efficiency without a usable ratio is seeded at 1.
    """
    psi, perp = counts[:, _PSI_ROWS], counts[:, ~_PSI_ROWS]
    seed = []
    for num, den in (
        (psi[..., 2] * perp[..., 3], psi[..., 0] * perp[..., 1]),
        (psi[..., 1] * perp[..., 3], psi[..., 0] * perp[..., 2]),
    ):
        ok = (num > 0) & (den > 0)
        seed.append(0.5 * np.log(num[ok] / den[ok]).mean() if ok.any() else 0.0)
    return np.clip(seed, *_LOG_BOUNDS)


class NewtonResult(NamedTuple):
    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    success: bool


# Curvature below this fraction of the largest Hessian eigenvalue counts as
# flat: damping lifts it there, so a direction the data leave undetermined
# takes no long step on rounding noise.
_FLAT_RCOND = 1e-9
# The descent stops on a step shorter than this, or after this many steps.
_XTOL = 1e-10
_MAXITER = 200


def minimize(fun, x0, lower, upper) -> NewtonResult:
    """Bound-constrained damped Newton descent.

    ``fun(x)`` returns (value, gradient, Hessian).  A coordinate on its bound
    whose gradient points out of the box is held fixed.  The Hessian of the
    free coordinates gets Levenberg damping, at least enough to make it
    positive definite, adapted to how well the quadratic model predicted the
    last step (Nielsen's rule).  Only steps that do not raise the value are
    taken.  Stops when the step is below ``_XTOL`` or a step lowers the value
    by no more than ``_rounding`` of it.
    """
    lower = np.broadcast_to(np.asarray(lower, dtype=float), np.shape(x0))
    upper = np.broadcast_to(np.asarray(upper, dtype=float), np.shape(x0))
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    f, g, h = fun(x)
    nfev, nit, damping, growth, success = 1, 0, 0.0, 2.0, False
    while nit < _MAXITER:
        nit += 1
        free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
        w, v = np.linalg.eigh(h[np.ix_(free, free)])
        scale = np.abs(w).max(initial=0.0)
        if scale == 0.0:  # nothing free, or a flat objective
            success = True
            break
        shift = max(damping, _FLAT_RCOND * scale - w.min())
        step = np.zeros_like(x)
        step[free] = -v @ ((v.T @ g[free]) / (w + shift))
        trial = np.clip(x + step, lower, upper)
        dx = trial - x
        if np.abs(dx).max() < _XTOL:
            success = True
            break
        f_t, g_t, h_t = fun(trial)
        nfev += 1
        if f_t > f:  # rejected: damp harder, faster on each rejection in a row
            damping = growth * (shift if damping else max(shift, 1e-3 * scale))
            growth *= 2.0
            continue
        predicted = -(g @ dx + 0.5 * dx @ h @ dx)
        gain = (f - f_t) / predicted if predicted > 0 else 1.0
        stalled = f - f_t <= _rounding(f)
        x, f, g, h = trial, f_t, g_t, h_t
        damping, growth = shift * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 2.0
        if stalled:
            success = True
            break
    return NewtonResult(x=x, fun=f, nfev=nfev, nit=nit, success=success)


def calibrate(records: list[MeasurementRecord], objective: str = "sum") -> CalibrationResult:
    """Recover the relative detector efficiencies minimizing the fidelity variance.

    Damped Newton descents within [0.2, 5]^2 start from the count-ratio
    closed form and from the best point of a grid pre-scan over [0.5, 2]^2;
    the lower minimum is kept.  The returned report is computed at it.
    """
    return _calibrate_groups([records], objective)


def calibrate_pooled(
    groups: list[list[MeasurementRecord]],
    objective: str = "sum",
) -> CalibrationResult:
    """Single efficiency pair minimizing the summed objective over several
    six-state groups (one per asymmetry setting).  The returned report is for
    the first group."""
    return _calibrate_groups(groups, objective)


def _calibrate_groups(groups: list[list[MeasurementRecord]], objective: str) -> CalibrationResult:
    counts = _stacked_counts(groups)
    axis = np.linspace(0.5, 2.0, _GRID_POINTS)
    grid_a, grid_b = np.repeat(axis, _GRID_POINTS), np.tile(axis, _GRID_POINTS)
    best = int(np.argmin(_grid_values(counts, objective, grid_a, grid_b)))

    def fun(log_eta):
        return _objective_terms(counts, log_eta, objective)

    ratio, grid = (
        minimize(fun, z0, *_LOG_BOUNDS)
        for z0 in (_ratio_seed(counts), np.log([grid_a[best], grid_b[best]]))
    )
    # on a tie the ratio seed wins: where the data leave an efficiency
    # undetermined it stays at its closed-form seed, not at a grid point
    res = grid if grid.fun < ratio.fun - _rounding(ratio.fun) else ratio
    eta = EfficiencyPair(*(float(e) for e in np.exp(res.x)))
    boundary_hit = any(
        min(e - ETA_MIN, ETA_MAX - e) < 1e-6 for e in eta
    )
    return CalibrationResult(
        eta=eta,
        report=report(groups[0], eta_correction=eta),
        objective_value=float(res.fun),
        objective=objective,
        boundary_hit=boundary_hit,
    )

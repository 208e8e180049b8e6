"""Fidelity estimators, six-state reports and variance-minimizing detector
calibration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# the six-state report lives in detection, which needs no numpy; it is
# re-exported here with its result and error types
from .detection import FidelityReport, MeasurementRecord, NoDataError, six_state_report
from .labels import (
    CATALOG_LABELS,
    CATALOG_ROLES,
    ETA_MAX,
    ETA_MIN,
    ROLE_PERP,
    ROLE_PSI,
    EfficiencyPair,
)


@dataclass(frozen=True)
class CalibrationResult:
    eta: EfficiencyPair
    report: FidelityReport
    objective_value: float
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


def _ordered_counts(records: list[MeasurementRecord]) -> list[tuple[float, ...]]:
    """Counts of one six-state group in catalog order; validates coverage."""
    by_state = {}
    for rec in records:
        if rec.state_label in by_state:
            raise ValueError(f"duplicate record for state {rec.state_label} at t = {rec.t}")
        by_state[rec.state_label] = rec
    missing = [s for s in CATALOG_LABELS if s not in by_state]
    if missing:
        raise ValueError(f"missing records for states: {missing}")
    return [by_state[s].counts for s in CATALOG_LABELS]


def stacked_counts(groups: list[list[MeasurementRecord]]) -> np.ndarray:
    """Counts of every six-state group in catalog order, shape (G, 6, 4).

    Raises `NoDataError`, naming the t of the first such group, when a
    record holds no count at all.
    """
    counts = np.array([_ordered_counts(records) for records in groups], dtype=float)
    empty = (counts.sum(axis=-1) <= 0).any(axis=-1)
    if empty.any():
        t = groups[int(empty.argmax())][0].t
        raise NoDataError(f"t = {t}: all four coincidence counts are zero")
    return counts


_PSI_ROWS = np.array(CATALOG_ROLES) == ROLE_PSI


def report(
    records: list[MeasurementRecord],
    eta_correction: EfficiencyPair | None = None,
) -> FidelityReport:
    """Six-state fidelity report, optionally after efficiency rescaling:
    `six_state_report` of the group's counts."""
    return six_state_report(_ordered_counts(records), eta_correction)


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
#
# Calibration runs on a batch of rows, counts (B, G, 6, 4): one row per
# efficiency pair sought, holding the G six-state groups that pair must fit.
# `calibrate_each` makes one row per group, `calibrate_pooled` one row of all
# groups.  No operation mixes rows: every row gets bit for bit the numbers a
# batch of it alone would get.  Sums run along contiguous trailing axes and
# small products go through `np.matmul` on stacked arrays, the same kernels
# a single row uses.

_ROLE_SIGN = np.where(_PSI_ROWS, 1.0, -1.0)
_LOG_BOUNDS = (np.log(ETA_MIN), np.log(ETA_MAX))


def _rescaled_sums(counts: np.ndarray, eta_a, eta_b):
    """Sums of the rescaled counts: A clicked +, B clicked +, both did, all."""
    c_pp, c_pm, c_mp, c_mm = np.moveaxis(counts, -1, 0)
    both = eta_a * eta_b * c_pp
    a_plus = both + eta_a * c_pm
    b_only = eta_b * c_mp
    return a_plus, both + b_only, both, a_plus + b_only + c_mm


def _own_role(f: np.ndarray) -> np.ndarray:
    """Fidelities of each state's own role from the psi-role expressions."""
    return np.where(_PSI_ROWS, f, 1.0 - f)


def _centered(f: np.ndarray) -> np.ndarray:
    return f - f.mean(axis=-1, keepdims=True)


def _objective_terms(counts: np.ndarray, log_eta: np.ndarray):
    """Value (B,), gradient (B, 2) and Hessian (B, 2, 2) in z = ln(eta) of the
    fidelity variance of each row, summed over both clones and the row's
    groups; counts (B, G, 6, 4), log_eta (B, 2)."""
    eta = np.exp(log_eta)
    a_plus, b_plus, both, total = _rescaled_sums(counts, eta[:, 0, None, None], eta[:, 1, None, None])
    fa, fb, both = a_plus / total, b_plus / total, both / total
    sa, sb, c = fa * (1.0 - fa), fb * (1.0 - fb), both - fa * fb
    ka, kb = 1.0 - 2.0 * fa, 1.0 - 2.0 * fb
    # per clone: f, d_a f, d_b f, d_aa f, d_ab f, d_bb f
    terms = [(fa, sa, c, ka * sa, ka * c, kb * c), (fb, c, sb, ka * c, kb * c, kb * sb)]
    p = np.stack([np.stack(clone, axis=1) for clone in terms], axis=2)
    p[:, 0] = _own_role(p[:, 0])
    p[:, 1:] *= _ROLE_SIGN
    dev = _centered(p[:, :3])
    rows, n = len(p), counts.shape[-2]
    value = (dev[:, 0] ** 2).reshape(rows, -1).sum(axis=-1) / n
    grad = 2.0 / n * (dev[:, :1] * dev[:, 1:]).reshape(rows, 2, -1).sum(axis=-1)
    slopes = dev[:, 1:].reshape(rows, 2, -1)
    curvature = (dev[:, :1] * p[:, 3:]).reshape(rows, 3, -1).sum(axis=-1)
    hess = 2.0 / n * (
        slopes @ slopes.swapaxes(-1, -2) + curvature[:, [0, 1, 1, 2]].reshape(rows, 2, 2)
    )
    return value, grad, hess


def _rounding(value):
    """Rounding error of an objective value.  It is a mean of squared
    deviations of fidelities that are each off by a few ulp of 1, so the
    error scales with the root of the value, not with the value."""
    return 8.0 * np.finfo(float).eps * np.sqrt(value)


def _ratio_seed(counts: np.ndarray) -> np.ndarray:
    """Closed-form ln(eta) (B, 2) from count ratios of the bias model.

    Per basis, with psi-role counts C_psi and perp-role counts C_perp,
    eta_a^2 = (C-+_psi C--_perp) / (C++_psi C+-_perp) and
    eta_b^2 = (C+-_psi C--_perp) / (C++_psi C-+_perp): the machine parameters
    cancel.  Log-mean over the bases and groups of a row, skipping zero
    counts; an efficiency without a usable ratio is seeded at 1.
    """
    psi, perp = counts[:, :, _PSI_ROWS], counts[:, :, ~_PSI_ROWS]
    seed = np.zeros((len(counts), 2))
    for k, (num, den) in enumerate((
        (psi[..., 2] * perp[..., 3], psi[..., 0] * perp[..., 1]),
        (psi[..., 1] * perp[..., 3], psi[..., 0] * perp[..., 2]),
    )):
        num, den = num.reshape(len(counts), -1), den.reshape(len(counts), -1)
        ok = (num > 0) & (den > 0)
        used = ok.sum(axis=-1)
        # rows with as many usable ratios are summed as one (rows, m) array,
        # each in the order a mean of that row's ratios alone would use
        for m in np.flatnonzero(np.bincount(used)[1:]) + 1:
            sel = used == m
            logs = np.log(num[sel][ok[sel]] / den[sel][ok[sel]]).reshape(-1, m)
            seed[sel, k] = 0.5 * (logs.sum(axis=-1) / m)
    return np.clip(seed, *_LOG_BOUNDS)


class NewtonResult(NamedTuple):
    x: np.ndarray  # (B, n)
    fun: np.ndarray  # (B,)
    nfev: int  # calls of fun, each on every row still descending
    nit: int  # steps of the longest descent
    success: np.ndarray  # (B,)


# Curvature below this fraction of the largest Hessian eigenvalue counts as
# flat: damping lifts it there, so a direction the data leave undetermined
# takes no long step on rounding noise.
_FLAT_RCOND = 1e-9
# The descent stops on a step shorter than this, or after this many steps.
_XTOL = 1e-10
_MAXITER = 200


def _larger(a, b):
    """Elementwise max(a, b) as Python's: a unless b is larger."""
    return np.where(b > a, b, a)


def minimize(fun, x0, lower, upper) -> NewtonResult:
    """Bound-constrained damped Newton descents, one per row of x0 (B, n);
    the result holds each row's endpoint and its value there.

    ``fun(x, rows)`` returns the values (R,), gradients (R, n) and Hessians
    (R, n, n) at the points x (R, n) of the batch rows ``rows``.  A
    coordinate on its bound whose gradient points out of the box is held
    fixed.  The Hessian of the free coordinates gets Levenberg damping, at
    least enough to make it positive definite, adapted to how well the
    quadratic model predicted the last step (Nielsen's rule).  Only steps
    that do not raise the value are taken.  A row stops when its step is
    below ``_XTOL`` or a step lowers its value by no more than ``_rounding``
    of it.  Each row keeps its own damping and stops on its own; a row takes
    the steps a descent of it alone would, bit for bit.
    """
    x = np.clip(np.array(x0, dtype=float), lower, upper)
    f, g, h = fun(x, np.arange(len(x)))
    nfev, nit = 1, 0
    damping, growth = np.zeros(len(x)), np.full(len(x), 2.0)
    active, success = np.ones(len(x), dtype=bool), np.zeros(len(x), dtype=bool)
    while nit < _MAXITER and active.any():
        nit += 1
        rows = np.flatnonzero(active)
        xr, gr = x[rows], g[rows]
        free = ~(((xr <= lower) & (gr > 0)) | ((xr >= upper) & (gr < 0)))
        scale, shift, step = np.zeros(len(rows)), np.zeros(len(rows)), np.zeros_like(xr)
        # rows with the same free coordinates (a bit mask) share one eigh call;
        # where nothing is free (mask 0) the scale stays 0 and the row stops
        masks = free @ (1 << np.arange(free.shape[1]))
        for mask in np.flatnonzero(np.bincount(masks)[1:]) + 1:
            sel = np.flatnonzero(masks == mask)
            coords = free[sel[0]]
            w, v = np.linalg.eigh(h[rows[sel]][:, coords][:, :, coords])
            s = np.abs(w).max(axis=-1)
            curved = s > 0  # a row whose Hessian is zero is flat and stops
            sel, w, v, s = sel[curved], w[curved], v[curved], s[curved]
            scale[sel] = s
            shift[sel] = _larger(damping[rows[sel]], _FLAT_RCOND * s - w.min(axis=-1))
            along = (v.swapaxes(-1, -2) @ gr[sel][:, coords, None]) / (w + shift[sel, None])[..., None]
            step[np.ix_(sel, coords)] = (-v @ along)[..., 0]
        trial = np.clip(xr + step, lower, upper)
        dx = trial - xr
        done = (scale == 0.0) | (np.abs(dx).max(axis=-1) < _XTOL)
        success[rows[done]], active[rows[done]] = True, False
        go = ~done
        rows, trial, dx, shift, scale = rows[go], trial[go], dx[go], shift[go], scale[go]
        if not rows.size:
            break
        f_t, g_t, h_t = fun(trial, rows)
        nfev += 1
        # rejected: damp harder, faster on each rejection in a row
        up = f_t > f[rows]
        r = rows[up]
        damping[r] = growth[r] * np.where(
            damping[r] != 0.0, shift[up], _larger(shift[up], 1e-3 * scale[up])
        )
        growth[r] *= 2.0
        # taken
        ok = ~up
        r, dx, shift = rows[ok], dx[ok], shift[ok]
        predicted = -(
            g[r, None, :] @ dx[:, :, None] + (0.5 * dx[:, None, :]) @ h[r] @ dx[:, :, None]
        )[:, 0, 0]
        gain = np.divide(f[r] - f_t[ok], predicted, out=np.ones(len(r)), where=predicted > 0)
        stalled = f[r] - f_t[ok] <= _rounding(f[r])
        x[r], f[r], g[r], h[r] = trial[ok], f_t[ok], g_t[ok], h_t[ok]
        # the cube as Python's float power, which numpy's array power can miss by an ulp
        cube = np.array([c**3 for c in (2.0 * gain - 1.0).tolist()])
        damping[r], growth[r] = shift * _larger(1.0 / 3.0, 1.0 - cube), 2.0
        success[r[stalled]], active[r[stalled]] = True, False
    return NewtonResult(x=x, fun=f, nfev=nfev, nit=nit, success=success)


def calibrate(records: list[MeasurementRecord]) -> CalibrationResult:
    """Recover the relative detector efficiencies minimizing the summed
    fidelity variance of both clones.

    One damped Newton descent within [0.2, 5]^2 starts from the count-ratio
    closed form (`_ratio_seed`); the returned report is computed at its
    endpoint.  This is `calibrate_each` on a batch of one group.
    """
    return calibrate_each([records])[0]


def calibrate_each(groups: list[list[MeasurementRecord]] | np.ndarray) -> list[CalibrationResult]:
    """`calibrate` of every six-state group: one batched descent of all groups
    from their ratio seeds, then each group's report.  Each result is bit for
    bit the one the group calibrated alone gets.  `groups` may also be their
    counts (G, 6, 4) from `stacked_counts`."""
    counts = groups if isinstance(groups, np.ndarray) else stacked_counts(groups)
    etas, values = _calibrate_rows(counts[:, None])
    reports = [six_state_report(c, eta) for c, eta in zip(counts.tolist(), etas.tolist())]
    return [_result(*args) for args in zip(etas, values, reports)]


def calibrate_pooled(groups: list[list[MeasurementRecord]] | np.ndarray) -> CalibrationResult:
    """Single efficiency pair minimizing the variance summed over several
    six-state groups (one per asymmetry setting): a batch of one row holding
    every group, through the same descent as `calibrate_each`.  The returned
    report is for the first group.  `groups` may also be their counts
    (G, 6, 4) from `stacked_counts`."""
    counts = groups if isinstance(groups, np.ndarray) else stacked_counts(groups)
    (eta,), (value,) = _calibrate_rows(counts[None])
    return _result(eta, value, six_state_report(counts[0].tolist(), eta.tolist()))


def _calibrate_rows(counts: np.ndarray):
    """Efficiencies (B, 2) and objective values (B,) for counts (B, G, 6, 4):
    `minimize` of each row's objective from its ratio seed.  Where the data
    leave an efficiency undetermined (at t = 1, eta_b), the descent does not
    move it off its closed-form seed."""
    def fun(z, rows):
        return _objective_terms(counts[rows], z)

    res = minimize(fun, _ratio_seed(counts), *_LOG_BOUNDS)
    return np.exp(res.x), res.fun


def _result(eta, value, report: FidelityReport) -> CalibrationResult:
    eta = EfficiencyPair(*eta.tolist())
    return CalibrationResult(
        eta=eta,
        report=report,
        objective_value=float(value),
        boundary_hit=any(min(e - ETA_MIN, ETA_MAX - e) < 1e-6 for e in eta),
    )

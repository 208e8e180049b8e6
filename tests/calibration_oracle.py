"""The variance minimum by a numpy Newton descent, the oracle the
standard-library reference descent `estimation.minimize` of
`estimation._objective_terms` is tested against, and the numpy count-ratio
closed form that `estimation.calibrate_each` and
`estimation.calibrate_pooled` take: one descent per call from the closed
form, on the counts of that call alone, with the eigendecomposition of
`np.linalg.eigh`."""

import numpy as np

from qclone.estimation import (
    _FLAT_RCOND,
    _LOG_BOUNDS,
    _MAXITER,
    _XTOL,
    CalibrationResult,
    report,
    stacked_counts,
)
from qclone.labels import CATALOG_ROLES, ETA_MAX, ETA_MIN, ROLE_PSI, EfficiencyPair

_PSI_ROWS = np.array(CATALOG_ROLES) == ROLE_PSI
_ROLE_SIGN = np.where(_PSI_ROWS, 1.0, -1.0)


def _rescaled_fidelities(counts, eta_a, eta_b):
    c_pp, c_pm, c_mp, c_mm = np.moveaxis(counts, -1, 0)
    both = eta_a * eta_b * c_pp
    a_plus = both + eta_a * c_pm
    total = a_plus + eta_b * c_mp + c_mm
    return a_plus / total, (both + eta_b * c_mp) / total, both / total


def _own_role(f):
    return np.where(_PSI_ROWS, f, 1.0 - f)


def _centered(f):
    return f - f.mean(axis=-1, keepdims=True)


def _rounding(value):
    return 8.0 * np.finfo(float).eps * np.sqrt(value)


def objective_terms(counts, log_eta):
    """Value, gradient (2,) and Hessian (2, 2) of the fidelity variance of
    both clones for counts (G, 6, 4)."""
    fa, fb, both = _rescaled_fidelities(counts, *np.exp(log_eta))
    sa, sb, c = fa * (1.0 - fa), fb * (1.0 - fb), both - fa * fb
    ka, kb = 1.0 - 2.0 * fa, 1.0 - 2.0 * fb
    terms = [(fa, sa, c, ka * sa, ka * c, kb * c), (fb, c, sb, ka * c, kb * c, kb * sb)]
    p = np.stack([np.stack(clone) for clone in terms], axis=1)
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


def ratio_seed(counts):
    """Closed-form ln(eta) from the count ratios of counts (G, 6, 4): per
    efficiency, the mean of every basis's log-ratio with the inverse-variance
    weight 1 / sum(N/C) over its four counts C, N their states' totals."""
    psi, perp = counts[:, _PSI_ROWS], counts[:, ~_PSI_ROWS]
    psi_total, perp_total = psi.sum(axis=-1), perp.sum(axis=-1)
    seed = []
    for a, b, c, d in (
        (psi[..., 2], perp[..., 3], psi[..., 0], perp[..., 1]),
        (psi[..., 1], perp[..., 3], psi[..., 0], perp[..., 2]),
    ):
        ok = (a > 0) & (b > 0) & (c > 0) & (d > 0)
        a, b, c, d = a[ok], b[ok], c[ok], d[ok]
        with np.errstate(over="ignore"):
            weight = 1.0 / (psi_total[ok] / a + perp_total[ok] / b
                            + psi_total[ok] / c + perp_total[ok] / d)
        log_ratio = np.log(a) + np.log(b) - np.log(c) - np.log(d)
        total = weight.sum()
        seed.append(0.5 * (weight * log_ratio).sum() / total if total > 0 else 0.0)
    return np.clip(seed, *_LOG_BOUNDS)


def minimize(fun, x0, lower, upper):
    """Scalar damped Newton descent; ``fun(x)`` returns (value, gradient,
    Hessian).  Returns (x, value, evaluations, iterations, success)."""
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
        if scale == 0.0:
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
        if f_t > f:
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
    return x, f, nfev, nit, success


def calibrate_groups(groups):
    """One efficiency pair for the summed variance of `groups`: the descent
    from the ratio seed."""
    counts = np.array(stacked_counts(groups))
    x, value, *_ = minimize(
        lambda log_eta: objective_terms(counts, log_eta), ratio_seed(counts), *_LOG_BOUNDS
    )
    eta = EfficiencyPair(*(float(e) for e in np.exp(x)))
    reports = tuple(report(group, eta_correction=eta) for group in groups)
    return CalibrationResult(
        eta=eta,
        report=reports[0],
        objective_value=float(value),
        boundary_hit=any(min(e - ETA_MIN, ETA_MAX - e) < 1e-6 for e in eta),
        reports=reports,
    )

"""Fidelity estimators, six-state reports and detector calibration by the
count-ratio closed form of the bias model, on the standard library alone."""

import math
import sys
from typing import NamedTuple, Sequence

# the six-state report lives in detection; it is re-exported here with its
# result and error types
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

# the counts of one six-state group: four floats per state, in catalog order
Group = Sequence[Sequence[float]]


class CalibrationResult(NamedTuple):
    eta: EfficiencyPair
    report: FidelityReport  # of the first group
    objective_value: float
    boundary_hit: bool
    reports: tuple  # of every group at eta, in the order of the counts


def fidelities_from_counts(counts: Sequence[float], role: str) -> tuple[float, float]:
    """Clone fidelities (f_A, f_B) from one set of four coincidence counts.

    For role "psi" the + detectors herald the cloned state; for role "perp"
    the detector roles are reversed.
    """
    cpp, cpm, cmp_, cmm = map(float, counts)
    total = cpp + cpm + cmp_ + cmm
    if total <= 0:
        raise NoDataError("all four coincidence counts are zero")
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


def _scaled(state: Sequence[float]) -> tuple[float, ...]:
    """A state's counts times the power of two that brings the largest into
    [0.5, 1).  Fidelities and count ratios are ratios of counts, so this
    leaves them the same floats, unless a count is subnormal; there it keeps
    a rescaled total from rounding to zero."""
    shift = -math.frexp(max(state))[1]
    return tuple(math.ldexp(c, shift) for c in state)


def stacked_counts(groups: list[list[MeasurementRecord]]) -> list[Group]:
    """Counts of every six-state group in catalog order, each state's
    `_scaled`: per group, six tuples of four floats.

    Raises `NoDataError`, naming the t of the first such group, when a
    record holds no count at all.
    """
    counts = [_ordered_counts(records) for records in groups]
    for records, group in zip(groups, counts):
        if any(max(c) <= 0.0 for c in group):
            raise NoDataError(f"t = {records[0].t}: all four coincidence counts are zero")
    return [[_scaled(state) for state in group] for group in counts]


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
# A calibration is the count-ratio closed form `_ratio_seed` of the groups its
# efficiency pair must fit: `calibrate_each` takes it per group,
# `calibrate_pooled` over all groups.  No command runs `minimize` on
# `_objective_terms`: that descent to the variance minimum is the reference
# the tests measure the closed form against, and `tests/calibration_oracle.py`
# holds its numpy twin.  Sums run in order from 0.0.

_ROLE_SIGN = tuple(1.0 if role == ROLE_PSI else -1.0 for role in CATALOG_ROLES)
_LOG_BOUNDS = (math.log(ETA_MIN), math.log(ETA_MAX))


def _total(values) -> float:
    """Sum in order from 0.0; the builtin sum of Python 3.12 and later
    compensates its rounding."""
    total = 0.0
    for v in values:
        total += v
    return total


def _centered(f: Sequence[float]) -> list[float]:
    mean = _total(f) / len(f)
    return [v - mean for v in f]


def _objective_terms(counts: Sequence[Group], log_eta: Sequence[float]):
    """Value, gradient (d_a, d_b) and Hessian (d_aa, d_ab, d_bb) in
    z = ln(eta) of the fidelity variance of both clones, summed over the
    six-state groups `counts`."""
    eta_a, eta_b = math.exp(log_eta[0]), math.exp(log_eta[1])
    eta_ab = eta_a * eta_b
    value = g_a = g_b = s_aa = s_ab = s_bb = k_aa = k_ab = k_bb = 0.0
    for group in counts:
        # per clone and state: f, d_a f, d_b f, d_aa f, d_ab f, d_bb f, each
        # of the state's own role
        clone_a, clone_b = [], []
        for (c_pp, c_pm, c_mp, c_mm), sign in zip(group, _ROLE_SIGN):
            both = eta_ab * c_pp
            a_plus = both + eta_a * c_pm
            b_only = eta_b * c_mp
            total = a_plus + b_only + c_mm
            fa, fb, both = a_plus / total, (both + b_only) / total, both / total
            sa, sb, c = fa * (1.0 - fa), fb * (1.0 - fb), both - fa * fb
            ka, kb = 1.0 - 2.0 * fa, 1.0 - 2.0 * fb
            if sign < 0.0:
                fa, fb = 1.0 - fa, 1.0 - fb
            clone_a.append((fa, sign * sa, sign * c,
                            sign * (ka * sa), sign * (ka * c), sign * (kb * c)))
            clone_b.append((fb, sign * c, sign * sb,
                            sign * (ka * c), sign * (kb * c), sign * (kb * sb)))
        for terms in (clone_a, clone_b):
            f, d_a, d_b, d_aa, d_ab, d_bb = zip(*terms)
            f, d_a, d_b = _centered(f), _centered(d_a), _centered(d_b)
            for i in range(len(f)):
                value += f[i] * f[i]
                g_a += f[i] * d_a[i]
                g_b += f[i] * d_b[i]
                s_aa += d_a[i] * d_a[i]
                s_ab += d_a[i] * d_b[i]
                s_bb += d_b[i] * d_b[i]
                k_aa += f[i] * d_aa[i]
                k_ab += f[i] * d_ab[i]
                k_bb += f[i] * d_bb[i]
    n = len(CATALOG_LABELS)
    twice = 2.0 / n
    grad = (twice * g_a, twice * g_b)
    hess = (twice * (s_aa + k_aa), twice * (s_ab + k_ab), twice * (s_bb + k_bb))
    return value / n, grad, hess


def _rounding(value: float) -> float:
    """Rounding error of an objective value.  It is a mean of squared
    deviations of fidelities that are each off by a few ulp of 1, so the
    error scales with the root of the value, not with the value."""
    return 8.0 * sys.float_info.epsilon * math.sqrt(value)


def _ratio_seed(counts: Sequence[Group]) -> tuple[float, float]:
    """Closed-form ln(eta) from count ratios of the bias model: the
    calibration, and the start of the reference descent `minimize`.

    Per basis, with psi-role counts C_psi and perp-role counts C_perp,
    eta_a^2 = (C-+_psi C--_perp) / (C++_psi C+-_perp) and
    eta_b^2 = (C+-_psi C--_perp) / (C++_psi C-+_perp): the machine parameters
    cancel.  Over the bases and groups the log-ratios are averaged with
    inverse-variance weights: Poisson counts give a log-ratio the variance
    sum(1/C) over its four counts, and the weight 1 / sum(N/C) takes each
    count as a fraction of its state's total N, as if every state had the
    same number of trials.  So a ratio weighs by the counts it rests on, and
    the power-of-two scale of `stacked_counts` drops out.  A ratio with a
    zero count is skipped, and one whose weight underflows (raw counts near
    1e150 against subnormal ones) weighs nothing; an efficiency without a
    weighted ratio (at t = 1, eta_b) is 1.  Clipped to the efficiency box
    [0.2, 5]^2.
    """
    sums = [[0.0, 0.0], [0.0, 0.0]]  # per efficiency: weighted log-ratios, weights
    for group in counts:
        for psi, perp in zip(group[0::2], group[1::2]):
            psi_total, perp_total = _total(psi), _total(perp)
            for k, (a, b, c, d) in enumerate((
                (psi[2], perp[3], psi[0], perp[1]),
                (psi[1], perp[3], psi[0], perp[2]),
            )):
                if min(a, b, c, d) > 0.0:
                    weight = 1.0 / (psi_total / a + perp_total / b
                                    + psi_total / c + perp_total / d)
                    log_ratio = math.log(a) + math.log(b) - math.log(c) - math.log(d)
                    sums[k][0] += weight * log_ratio
                    sums[k][1] += weight
    lower, upper = _LOG_BOUNDS
    return tuple(
        min(max(0.5 * (total / weight), lower), upper) if weight > 0.0 else 0.0
        for total, weight in sums
    )


class NewtonResult(NamedTuple):
    x: tuple[float, float]
    fun: float
    nfev: int  # calls of fun
    nit: int  # steps tried
    success: bool


# Curvature below this fraction of the largest Hessian eigenvalue counts as
# flat: damping lifts it there, so a direction the data leave undetermined
# takes no long step on rounding noise.
_FLAT_RCOND = 1e-9
# A Hessian whose eigenvalues all lie below this in magnitude is flat too:
# the determinant of its damped system, at least _FLAT_RCOND times the
# square of the largest, would underflow.
_CURVATURE_MIN = 1e-140
# The descent stops on a step shorter than this, or after this many steps.
_XTOL = 1e-10
_MAXITER = 200


def minimize(fun, x0: Sequence[float], lower: float, upper: float) -> NewtonResult:
    """Damped Newton descent in two coordinates within [lower, upper]^2 from
    x0; the result holds the endpoint and the value there.

    ``fun(x)`` returns the value, the gradient (g_0, g_1) and the Hessian
    (h_00, h_01, h_11) at x.  A coordinate on its bound whose gradient
    points out of the box is held fixed.  The Hessian of the free
    coordinates gets Levenberg damping, at least enough to make it positive
    definite, adapted to how well the quadratic model predicted the last
    step (Nielsen's rule); the damped system is solved in closed form.  Only
    steps that do not raise the value are taken.  The descent stops when its
    step is below ``_XTOL``, when a step lowers the value by no more than
    ``_rounding`` of it, or after ``_MAXITER`` steps.
    """
    from .robustness import _eigvalsh2  # here, so that a calibration does not load it

    x = tuple(min(max(v, lower), upper) for v in x0)
    f, g, h = fun(x)
    nfev, nit, damping, growth, success = 1, 0, 0.0, 2.0, False
    while nit < _MAXITER:
        nit += 1
        free = [not ((x[i] <= lower and g[i] > 0) or (x[i] >= upper and g[i] < 0)) for i in (0, 1)]
        h_00, h_01, h_11 = h
        if free[0] and free[1]:
            w = _eigvalsh2(h_00, h_01, h_11)
        else:
            w = [h_ii for h_ii, on in ((h_00, free[0]), (h_11, free[1])) if on]
        # a flat Hessian, or nothing free, stops the descent
        scale = max(map(abs, w), default=0.0)
        if scale < _CURVATURE_MIN:
            success = True
            break
        shift = max(damping, _FLAT_RCOND * scale - min(w))
        a, c = h_00 + shift, h_11 + shift
        if free[0] and free[1]:
            det = a * c - h_01 * h_01
            step = ((h_01 * g[1] - c * g[0]) / det, (h_01 * g[0] - a * g[1]) / det)
        else:
            step = (-g[0] / a if free[0] else 0.0, -g[1] / c if free[1] else 0.0)
        trial = tuple(min(max(x[i] + step[i], lower), upper) for i in (0, 1))
        dx = (trial[0] - x[0], trial[1] - x[1])
        if max(abs(dx[0]), abs(dx[1])) < _XTOL:
            success = True
            break
        f_t, g_t, h_t = fun(trial)
        nfev += 1
        if f_t > f:  # rejected: damp harder, faster on each rejection in a row
            damping = growth * (shift if damping else max(shift, 1e-3 * scale))
            growth *= 2.0
            continue
        half = (0.5 * dx[0], 0.5 * dx[1])
        curve = ((half[0] * h_00 + half[1] * h_01) * dx[0]
                 + (half[0] * h_01 + half[1] * h_11) * dx[1])
        predicted = -(g[0] * dx[0] + g[1] * dx[1] + curve)
        # a gain above 1 damps as 1 does; capped, its cube cannot overflow
        gain = min((f - f_t) / predicted, 1.0) if predicted > 0 else 1.0
        stalled = f - f_t <= _rounding(f)
        x, f, g, h = trial, f_t, g_t, h_t
        damping, growth = shift * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 2.0
        if stalled:
            success = True
            break
    return NewtonResult(x=x, fun=f, nfev=nfev, nit=nit, success=success)


def calibrate(records: list[MeasurementRecord]) -> CalibrationResult:
    """Recover the relative detector efficiencies of one six-state group
    from its count ratios (`_ratio_seed`), within [0.2, 5]^2; the returned
    report is computed at them.  This is `calibrate_each` of the group's
    counts.
    """
    return calibrate_each(stacked_counts([records]))[0]


def calibrate_each(counts: Sequence[Group]) -> list[CalibrationResult]:
    """`calibrate` of every six-state group, given their counts from
    `stacked_counts`: each group's closed form and report."""
    return [_calibrate([group]) for group in counts]


def calibrate_pooled(counts: Sequence[Group]) -> CalibrationResult:
    """Single efficiency pair of several six-state groups (one per asymmetry
    setting), given their counts from `stacked_counts`: the closed form over
    the count ratios of every group.  The returned report is for the first
    group; `reports` holds every group's."""
    return _calibrate(counts)


def _calibrate(counts: Sequence[Group]) -> CalibrationResult:
    """The efficiencies exp(`_ratio_seed`) of the groups `counts`, each
    group's report at them, and the objective: the fidelity variance of
    both clones at them, summed over the groups in order.  An efficiency
    without a usable count ratio (at t = 1, eta_b) is 1.

    Raises ValueError where a state's rescaled counts sum to 0: a state
    whose only count is subnormal, at an efficiency below 0.5.  Counts from
    `stacked_counts` never do.
    """
    log_a, log_b = _ratio_seed(counts)
    eta = EfficiencyPair(math.exp(log_a), math.exp(log_b))
    try:
        reports = [six_state_report(group, eta) for group in counts]
    except NoDataError:
        raise ValueError(
            "a state's rescaled counts sum to zero; pass the counts through stacked_counts"
        ) from None
    return CalibrationResult(
        eta=eta,
        report=reports[0],
        objective_value=_total(rep.variance_a + rep.variance_b for rep in reports),
        boundary_hit=any(min(e - ETA_MIN, ETA_MAX - e) < 1e-6 for e in eta),
        reports=tuple(reports),
    )

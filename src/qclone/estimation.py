"""Six-state reports and detector calibration by the count-ratio closed
form of the bias model, on the standard library alone."""

import math
import sys
from typing import NamedTuple, Sequence

# the six-state report lives in detection; it is re-exported here with its
# result and error types, and with the in-order sum both use
from .detection import FidelityReport, MeasurementRecord, NoDataError, _total, six_state_report
from .labels import CATALOG_LABELS, ETA_MAX, ETA_MIN, EfficiencyPair

# the counts of one six-state group: four floats per state, in catalog order
Group = Sequence[Sequence[float]]


class CalibrationResult(NamedTuple):
    eta: EfficiencyPair
    report: FidelityReport  # of the first group
    objective_value: float
    boundary_hit: bool
    reports: tuple  # of every group at eta, in the order of the counts


def _ordered_counts(records: list[MeasurementRecord]) -> list[tuple[float, ...]]:
    """Counts of one six-state group in catalog order; validates coverage."""
    by_state = {}
    for rec in records:
        if rec.state_label in by_state:
            raise ValueError(f"duplicate record for state {rec.state_label} at t = {rec.t}")
        by_state[rec.state_label] = rec
    missing = [s for s in CATALOG_LABELS if s not in by_state]
    if missing:
        at = f" at t = {records[0].t}" if records else ""
        raise ValueError(f"missing records for states: {missing}{at}")
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
# A calibration is the count-ratio closed form `_ratio_seed` of the groups its
# efficiency pair must fit: `calibrate_each` takes it per group,
# `calibrate_pooled` over all groups.  Sums run in order from 0.0 (`_total`).

_LOG_BOUNDS = (math.log(ETA_MIN), math.log(ETA_MAX))


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


# --- reference descent --------------------------------------------------------
# No command runs `minimize`; it stays here only because the benchmark's
# tracer looks it up by name.  The tests descend the fidelity variance of
# `tests/calibration_oracle.py` with it, from `_ratio_seed`, as the
# reference the closed form is measured against.


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


def _rounding(value: float) -> float:
    """Rounding error of an objective value.  It is a mean of squared
    deviations of fidelities that are each off by a few ulp of 1, so the
    error scales with the root of the value, not with the value."""
    return 8.0 * sys.float_info.epsilon * math.sqrt(value)


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
    x = tuple(min(max(v, lower), upper) for v in x0)
    f, g, h = fun(x)
    nfev, nit, damping, growth, success = 1, 0, 0.0, 2.0, False
    while nit < _MAXITER:
        nit += 1
        free = [not ((x[i] <= lower and g[i] > 0) or (x[i] >= upper and g[i] < 0)) for i in (0, 1)]
        h_00, h_01, h_11 = h
        if free[0] and free[1]:
            # the eigenvalues of [[h_00, h_01], [h_01, h_11]] in closed form
            mean, radius = 0.5 * (h_00 + h_11), math.hypot(0.5 * (h_00 - h_11), h_01)
            w = (mean + radius, mean - radius)
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

import math
import random

import calibration_oracle
import numpy as np
import pytest
from hypothesis import given, strategies as st
from report_oracle import batch_report

from qclone.cloner import machine_triple
from qclone.detection import (
    ROLE_PERP,
    ROLE_PSI,
    EfficiencyPair,
    MeasurementRecord,
    bias_counts,
    ideal_probabilities,
    read_records,
    rescale_counts,
    run_experiment,
    write_records,
)
from qclone.estimation import (
    _LOG_BOUNDS,
    CalibrationResult,
    NoDataError,
    _objective_terms,
    _ratio_seed,
    _rounding,
    calibrate,
    calibrate_each,
    calibrate_pooled,
    fidelities_from_counts,
    minimize,
    report,
    six_state_report,
    stacked_counts,
)
from qclone.labels import BASIS_LABELS, CATALOG_LABELS, CATALOG_ROLES, ETA_MAX, ETA_MIN
from qclone.robustness import error_bound, taylor_form, taylor_form_b

UNIT = EfficiencyPair(1.0, 1.0)
ETA_PAPER = EfficiencyPair(1.046, 0.840)
T_MID = float(np.sqrt(2 / 5))


def test_fidelities_from_counts_psi():
    fa, fb = fidelities_from_counts(np.array([50, 30, 10, 10]), ROLE_PSI)
    assert abs(fa - 0.8) < 1e-15
    assert abs(fb - 0.6) < 1e-15


def test_fidelities_from_counts_perp():
    fa, fb = fidelities_from_counts(np.array([50, 30, 10, 10]), ROLE_PERP)
    assert abs(fa - 0.2) < 1e-15
    assert abs(fb - 0.4) < 1e-15


def test_fidelities_zero_total():
    with pytest.raises(NoDataError):
        fidelities_from_counts(np.zeros(4), ROLE_PSI)


def test_role_complementarity():
    rng = np.random.default_rng(8)
    for _ in range(30):
        counts = rng.uniform(0, 100, size=4)
        fa_psi, fb_psi = fidelities_from_counts(counts, ROLE_PSI)
        fa_perp, fb_perp = fidelities_from_counts(counts, ROLE_PERP)
        assert abs(fa_psi + fa_perp - 1.0) < 1e-12
        assert abs(fb_psi + fb_perp - 1.0) < 1e-12


def test_report_ideal_symmetric():
    recs = run_experiment(0.0, UNIT, 1e4, noiseless=True)
    rep = report(recs)
    assert abs(rep.mean_a - 5 / 6) < 1e-12
    assert abs(rep.mean_b - 5 / 6) < 1e-12
    assert rep.variance_a < 1e-24
    assert rep.variance_b < 1e-24


def _exact_biased_pair(t, eta):
    # Inline evaluation of the exact miscalibrated-fidelity formulas; serves
    # as an oracle independent of the robustness module.
    fa, fb, p = machine_triple(t)
    ea, eb = eta
    num = p + (fa - p) * eb
    f_psi = num / (num + (fb - p) * ea + (1 + p - fa - fb) * ea * eb)
    num = p * ea * eb + (fa - p) * ea
    f_perp = num / (num + (fb - p) * eb + 1 + p - fa - fb)
    return f_psi, f_perp


def test_report_biased_saw_tooth():
    eta = EfficiencyPair(1.2, 1.0)
    recs = run_experiment(0.0, eta, 1e4, noiseless=True)
    rep = report(recs)
    assert rep.variance_a > 1e-7
    f_psi, f_perp = _exact_biased_pair(0.0, eta)
    for i in range(0, 6, 2):
        assert abs(rep.per_state[i][0] - f_psi) < 1e-12
        assert abs(rep.per_state[i + 1][0] - f_perp) < 1e-12
    assert f_psi != pytest.approx(f_perp, abs=1e-6)


def test_report_correction_removes_bias():
    eta = EfficiencyPair(1.2, 1.0)
    recs = run_experiment(0.0, eta, 1e4, noiseless=True)
    rep = report(recs, eta_correction=eta)
    assert rep.variance_a < 1e-24
    assert abs(rep.mean_a - 5 / 6) < 1e-12


def test_report_scale_invariance():
    recs = run_experiment(T_MID, ETA_PAPER, 1e4, noiseless=True)
    scaled = [
        MeasurementRecord(r.t, r.state_label, r.basis_label, r.role, 7.5 * np.array(r.counts))
        for r in recs
    ]
    rep_a, rep_b = report(recs), report(scaled)
    assert abs(rep_a.mean_a - rep_b.mean_a) < 1e-12
    assert abs(rep_a.mean_b - rep_b.mean_b) < 1e-12


def test_report_rejects_incomplete_records():
    recs = run_experiment(0.5, UNIT, 1e4, noiseless=True)
    with pytest.raises(ValueError, match="missing"):
        report(recs[:5])
    with pytest.raises(ValueError, match="duplicate"):
        report(recs + [recs[0]])
    with pytest.raises(ValueError, match="duplicate record for state H at t = 0.5"):
        report(recs + [recs[0]])


def _group_report(counts, eta):
    """Means, variances and per-state fidelities of one group (6, 4), state
    by state through `fidelities_from_counts`."""
    if eta is not None:
        counts = [rescale_counts(c, EfficiencyPair(*eta)) for c in counts]
    per_state = [fidelities_from_counts(c, role) for c, role in zip(counts, CATALOG_ROLES)]
    fa, fb = (np.array([p[k] for p in per_state]) for k in (0, 1))
    return (
        [tuple(map(float, p)) for p in per_state],
        float(fa.mean()), float(fb.mean()),
        float(np.mean((fa - fa.mean()) ** 2)), float(np.mean((fb - fb.mean()) ** 2)),
    )


@st.composite
def count_arrays(draw):
    """Counts (G, 6, 4), G from 1 to 40: whole or fractional, of one to twelve
    decades, with a drawn share of zero outcomes; no state without any count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    shape = (draw(st.integers(1, 40)), 6, 4)
    counts = 10.0 ** rng.uniform(-3.0, draw(st.floats(-2.0, 9.0)), shape)
    if draw(st.booleans()):
        counts = np.ceil(counts)
    counts[rng.random(shape) < draw(st.floats(0.0, 0.9))] = 0.0
    counts[..., 3] += counts.sum(axis=-1) == 0
    return counts


@given(count_arrays(), st.sampled_from(["none", "pair", "per group"]), st.integers(0, 2**32))
def test_batch_report_equals_the_report_of_each_group(counts, correction, seed):
    rng = np.random.default_rng(seed)
    groups = len(counts)
    eta = {
        "none": None,
        "pair": rng.uniform(ETA_MIN, ETA_MAX, 2),
        "per group": rng.uniform(ETA_MIN, ETA_MAX, (groups, 2)),
    }[correction]
    reports = batch_report(counts, eta).split()
    assert len(reports) == groups
    for g, rep in enumerate(reports):
        eta_g = None if eta is None else (eta if eta.ndim == 1 else eta[g]).tolist()
        per_state, *stats = _group_report(counts[g], eta_g)
        assert rep.per_state == per_state
        assert [rep.mean_a, rep.mean_b, rep.variance_a, rep.variance_b] == stats
        # the standard-library report of the group alone, from Python floats
        assert six_state_report(counts[g].tolist(), eta_g) == rep


def _reference_descent(counts):
    """The variance minimum the closed-form calibration is measured against:
    `minimize` of the summed variance of the groups `counts` (from
    `stacked_counts`) from their ratio seed, as a `CalibrationResult` with
    the groups' reports."""
    res = minimize(lambda z: _objective_terms(counts, z), _ratio_seed(counts), *_LOG_BOUNDS)
    eta = EfficiencyPair(math.exp(res.x[0]), math.exp(res.x[1]))
    reports = tuple(six_state_report(group, eta) for group in counts)
    return CalibrationResult(
        eta=eta,
        report=reports[0],
        objective_value=res.fun,
        boundary_hit=any(min(e - ETA_MIN, ETA_MAX - e) < 1e-6 for e in eta),
        reports=reports,
    )


def test_calibrate_noiseless_round_trip():
    recs = run_experiment(T_MID, ETA_PAPER, 1e5, noiseless=True)
    res = calibrate(recs)
    assert abs(res.eta.eta_a - 1.046) < 1e-6
    assert abs(res.eta.eta_b - 0.840) < 1e-6
    assert res.objective_value <= 1e-20
    assert not res.boundary_hit


def test_calibrate_unit_efficiency():
    recs = run_experiment(T_MID, UNIT, 1e5, noiseless=True)
    res = calibrate(recs)
    assert abs(res.eta.eta_a - 1.0) < 1e-6
    assert abs(res.eta.eta_b - 1.0) < 1e-6


def test_calibrated_fidelities_constant_across_states():
    recs = run_experiment(T_MID, ETA_PAPER, 1e5, noiseless=True)
    res = calibrate(recs)
    fa = [p[0] for p in res.report.per_state]
    fb = [p[1] for p in res.report.per_state]
    assert max(fa) - min(fa) < 1e-10
    assert max(fb) - min(fb) < 1e-10


def test_calibrate_objective_dominates_probes():
    recs = run_experiment(T_MID, ETA_PAPER, 1e5, noiseless=True)
    res = calibrate(recs)
    rng = np.random.default_rng(55)

    def obj_at(eta):
        rep = report(recs, eta_correction=EfficiencyPair(*eta))
        return rep.variance_a + rep.variance_b

    assert res.objective_value <= obj_at((1.0, 1.0)) + 1e-18
    for _ in range(200):
        probe = rng.uniform(0.2, 5.0, size=2)
        assert res.objective_value <= obj_at(probe) + 1e-18


def test_calibrate_poisson_recovery():
    errs = []
    for seed in range(20):
        recs = run_experiment(T_MID, ETA_PAPER, 1e5, seed=seed)
        res = calibrate(recs)
        errs.append(max(abs(res.eta.eta_a - 1.046), abs(res.eta.eta_b - 0.840)))
    assert max(errs) < 0.02


def test_calibrate_pooled_uses_all_settings():
    groups = [
        run_experiment(t, ETA_PAPER, 1e5, noiseless=True)
        for t in (0.0, T_MID, np.sqrt(0.8))
    ]
    res = calibrate_pooled(stacked_counts(groups))
    assert abs(res.eta.eta_a - 1.046) < 1e-6
    assert abs(res.eta.eta_b - 0.840) < 1e-6


def test_mean_shift_within_quadratic_bound():
    # cross-module consistency: calibration moves the mean by no more than the
    # quadratic miscalibration bound (small cubic slack)
    eta = EfficiencyPair(1.08, 0.93)
    eps = eta.mismatches()
    for t in (0.0, T_MID, np.sqrt(0.8)):
        recs = run_experiment(t, eta, 1e5, noiseless=True)
        before = report(recs)
        res = calibrate(recs)
        m = machine_triple(t)
        bound_a = error_bound(taylor_form(m), *eps)
        bound_b = error_bound(taylor_form_b(m), *eps)
        assert abs(before.mean_a - res.report.mean_a) <= 1.5 * bound_a + 1e-6
        assert abs(before.mean_b - res.report.mean_b) <= 1.5 * bound_b + 1e-6


def test_calibrate_rejects_empty_record():
    recs = run_experiment(T_MID, ETA_PAPER, 1e4, seed=2)
    recs[3] = MeasurementRecord(T_MID, "A", "DA", ROLE_PERP, np.zeros(4))
    with pytest.raises(NoDataError):
        calibrate(recs)


def test_objective_derivatives_match_finite_differences():
    rng = np.random.default_rng(17)
    groups = [run_experiment(t, ETA_PAPER, 1e4, seed=i) for i, t in enumerate((0.2, 0.7))]
    h = 1e-5
    for pooled in (False, True):
        counts = stacked_counts(groups if pooled else groups[:1])
        for _ in range(5):
            z = rng.uniform(-1.2, 1.2, size=2)
            _, grad, (h_aa, h_ab, h_bb) = _objective_terms(counts, z)
            hess = np.array([[h_aa, h_ab], [h_ab, h_bb]])
            steps = [_objective_terms(counts, z + s * h * e) for e in np.eye(2) for s in (1, -1)]
            fd_grad = [(steps[2 * i][0] - steps[2 * i + 1][0]) / (2 * h) for i in range(2)]
            fd_hess = [np.subtract(steps[2 * i][1], steps[2 * i + 1][1]) / (2 * h)
                       for i in range(2)]
            np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-7 * np.abs(grad).max())
            np.testing.assert_allclose(hess, fd_hess, rtol=1e-6, atol=1e-7 * np.abs(hess).max())


@pytest.mark.parametrize("t", [n / 10 for n in range(10)] + [0.95])
def test_ratio_seed_exact_on_noiseless_data(t):
    counts = stacked_counts([run_experiment(t, ETA_PAPER, 1e5, noiseless=True)])
    np.testing.assert_allclose(np.exp(_ratio_seed(counts)), ETA_PAPER, rtol=0, atol=1e-12)


def test_ratio_seed_skips_zero_counts():
    # at t = 1 the psi-role C+- vanish: no ratio constrains eta_b
    counts = stacked_counts([run_experiment(1.0, ETA_PAPER, 1e5, noiseless=True)])
    seed = np.exp(_ratio_seed(counts))
    assert abs(seed[0] - ETA_PAPER.eta_a) < 1e-12
    assert seed[1] == 1.0


def test_ratio_seed_skips_ratios_beyond_the_float_range():
    # raw counts, not through stacked_counts: the eta_a ratio of each basis
    # rests on counts 1e310 times below their states' totals, so its weight
    # underflows to zero and it counts for nothing, as a zero count does
    psi, perp = (1e150, 1e150, 1e-160, 1e150), (1e150, 1e150, 1e150, 1e-160)
    group = [psi, perp] * 3
    assert _ratio_seed([group])[0] == 0.0  # no usable ratio: eta_a seeded at 1
    (res,) = calibrate_each([group])
    assert np.isfinite([*res.eta, res.objective_value]).all()
    # the same counts as records, which go through stacked_counts
    states = zip(CATALOG_LABELS, CATALOG_ROLES, group)
    records = [MeasurementRecord(0.5, label, BASIS_LABELS[i // 2], role, counts)
               for i, (label, role, counts) in enumerate(states)]
    assert res == calibrate(records)


def test_subnormal_raw_counts_are_a_value_error_that_names_stacked_counts():
    # raw counts, not through stacked_counts: the last state's only count is
    # the smallest subnormal, which eta_b <= 0.5 rescales to a zero total
    # (a ZeroDivisionError inside the descent before)
    group = [bias_counts(ideal_probabilities(0.5, role), EfficiencyPair(1.0, 0.5), 1e4)
             for role in CATALOG_ROLES]
    group[5] = (0.0, 0.0, 5e-324, 0.0)
    for calibrate_counts in (calibrate_each, calibrate_pooled):
        with pytest.raises(ValueError, match="stacked_counts"):
            calibrate_counts([group])
    # the same counts as records go through stacked_counts and calibrate
    states = zip(CATALOG_LABELS, CATALOG_ROLES, group)
    records = [MeasurementRecord(0.5, label, BASIS_LABELS[i // 2], role, counts)
               for i, (label, role, counts) in enumerate(states)]
    assert np.isfinite([*calibrate(records).eta]).all()


def test_minimize_holds_coordinates_on_their_bounds():
    def fun(x):
        d = (x[0] - 2.0, x[1] + 1.0)
        return d[0] * d[0] + d[1] * d[1], (2.0 * d[0], 2.0 * d[1]), (2.0, 0.0, 2.0)

    res = minimize(fun, (0.5, 0.5), 0.0, 1.0)
    assert res.success and res.nfev >= 2 and res.nit >= 1
    assert res.x == (1.0, 0.0)
    assert res.fun == 2.0


def test_minimize_leaves_a_flat_direction_alone():
    def fun(x):  # the value does not depend on x[1]
        return (x[0] - 0.3) ** 2, (2.0 * (x[0] - 0.3), 0.0), (2.0, 0.0, 0.0)

    res = minimize(fun, (0.9, 0.7), -1.0, 1.0)
    assert res.success
    assert abs(res.x[0] - 0.3) < 1e-12 and res.x[1] == 0.7


def test_minimize_stops_on_curvature_below_the_float_range():
    # a concave Hessian of 1e-300: its damped system, about 1e-309 on the
    # diagonal, would have a determinant that underflows to zero
    def fun(x):
        value = -1e-300 * (x[0] * x[0] + x[1] * x[1])
        return value, (-2e-300 * x[0], -2e-300 * x[1]), (-2e-300, 0.0, -2e-300)

    res = minimize(fun, (0.3, -0.4), -1.0, 1.0)
    assert res.success and res.x == (0.3, -0.4) and res.nfev == 1


def test_minimize_takes_a_step_far_better_than_its_model():
    # the quadratic model predicts a drop of about 1e-120, the step drops the
    # value by 0.5: a gain whose cube is beyond the float range
    def fun(x):
        return (1.0 if x == (0.5, 0.5) else 0.5), (1e-120, 1e-120), (1e-130, 0.0, 1e-130)

    res = minimize(fun, (0.5, 0.5), -1.0, 1.0)
    assert res.success and res.x == (-1.0, -1.0) and res.fun == 0.5


def test_calibrate_with_a_subnormal_count():
    # V holds a single subnormal count, which eta_b < 1 would round to zero
    recs = run_experiment(0.5, ETA_PAPER, 1e5, seed=12345)
    recs[1] = MeasurementRecord(0.5, "V", "HV", ROLE_PERP, (0.0, 0.0, 5e-324, 0.0))
    for res in (calibrate(recs), calibrate_pooled(stacked_counts([recs]))):
        rep = res.report
        assert np.isfinite([*res.eta, res.objective_value, rep.mean_a, rep.mean_b]).all()
        assert rep.per_state[1] == (1.0, 0.0)


def test_calibrate_unidentified_eta_b_stays_at_its_seed():
    # at t = 1 no count ratio constrains eta_b: the closed form, and the
    # reference descent from it, leave it at 1
    for seed in range(5):
        recs = run_experiment(1.0, ETA_PAPER, 1e5, seed=seed)
        for res in (calibrate(recs), _reference_descent(stacked_counts([recs]))):
            assert not res.boundary_hit
            assert abs(res.eta.eta_a - ETA_PAPER.eta_a) < 0.02
            assert abs(res.eta.eta_b - 1.0) < 1e-9


def _nelder_mead_calibration(counts):
    """The calibrator this package used before the Newton refinement: a 50x50
    grid pre-scan over [0.5, 2]^2, then scipy's Nelder-Mead in [0.2, 5]^2."""
    optimize = pytest.importorskip("scipy.optimize")
    psi = np.arange(6) % 2 == 0

    def values(eta):  # eta (P, 2) -> (P,)
        ea, eb = eta[:, :1], eta[:, 1:]
        r = counts * np.stack([ea * eb, ea, eb, np.ones_like(ea)], axis=-1)
        total = r.sum(axis=-1)
        fa = np.where(psi, r[..., 0] + r[..., 1], r[..., 3] + r[..., 2]) / total
        fb = np.where(psi, r[..., 0] + r[..., 2], r[..., 3] + r[..., 1]) / total
        return fa.var(-1) + fb.var(-1)

    axis = np.linspace(0.5, 2.0, 50)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    scan = values(grid)
    x0 = grid[np.argmin(scan)] if scan.min() < values(np.ones((1, 2)))[0] else np.ones(2)
    return optimize.minimize(
        lambda eta: values(eta[None])[0], x0, method="Nelder-Mead",
        bounds=[(0.2, 5.0)] * 2,
        options={"xatol": 1e-10, "fatol": 1e-16, "maxiter": 10000, "maxfev": 10000},
    )


def test_calibrate_never_worse_than_nelder_mead():
    # the variance minimum: the reference descent, which no command runs
    rng = np.random.default_rng(2024)
    for k in range(30):
        t = rng.uniform(0.0, 0.95)
        eta = EfficiencyPair(*rng.uniform(0.8, 1.25, size=2))
        recs = run_experiment(t, eta, (1e3, 1e4, 1e5)[k % 3], seed=100 + k)
        counts = np.array([r.counts for r in recs])
        new = _reference_descent(stacked_counts([recs]))
        old = _nelder_mead_calibration(counts)
        assert new.objective_value <= old.fun * (1 + 1e-9), k
        np.testing.assert_allclose(new.eta, old.x, rtol=0, atol=1e-6)


# Groups for the checks against the oracle: t = 1, where eta_b has no usable
# count ratio and stays at its seed of 1; a noiseless group; and noisy groups
# across t.
def _oracle_groups():
    return [
        run_experiment(1.0, ETA_PAPER, 1e4, seed=3),
        run_experiment(T_MID, ETA_PAPER, 1e5, noiseless=True),
        *(run_experiment(t, ETA_PAPER, 1e4, seed=10 + i)
          for i, t in enumerate(np.linspace(0.0, 0.95, 12))),
        *(run_experiment(t, ETA_PAPER, 1e4, seed=seed)
          for t, seed in ((0.231067512895, 349), (0.307732893789, 368), (0.374270314199, 381))),
    ]


# true efficiency pairs near the edges of the [0.2, 5]^2 box
EDGE_ETAS = [(0.22, 0.22), (0.22, 4.5), (4.5, 0.22), (4.5, 4.5),
             (0.3, 3.3), (3.3, 0.3), (0.5, 2.0), (2.0, 0.5)]


def _off_paper_groups(counts, seed):
    """Survey-like groups at true efficiencies other than the paper's: 20
    pairs drawn from uniform(0.8, 1.25), as in the Nelder-Mead check, and
    the `EDGE_ETAS`, each at a t drawn uniformly from [0, 0.95]."""
    rng = np.random.default_rng(seed)
    etas = [*rng.uniform(0.8, 1.25, size=(20, 2)).tolist(), *EDGE_ETAS]
    t_values = rng.uniform(0.0, 0.95, len(etas))
    return [run_experiment(t, EfficiencyPair(*eta), counts, seed=seed + i)
            for i, (t, eta) in enumerate(zip(t_values, etas))]


def _two_minima_groups():
    """High-t groups whose objective has a second minimum nearly as deep as
    the one their ratio-seeded descent ends in; one ends on the box."""
    return [
        run_experiment(0.904396475061, ETA_PAPER, 1e3, seed=1103),
        run_experiment(0.913495840406, ETA_PAPER, 1e3, seed=1197),
        run_experiment(0.900779045714, EfficiencyPair(0.8183, 0.9381), 1e3, seed=5575),
        run_experiment(0.948504324991, EfficiencyPair(0.8482, 0.9965), 1e4, seed=5289),
        run_experiment(0.915423453695, EfficiencyPair(4.5, 0.22), 1e3, seed=7441),
        run_experiment(0.948884534516, EfficiencyPair(0.22, 0.5), 1e4, seed=7324),
        run_experiment(0.874782227792, EfficiencyPair(0.3, 0.3), 1e3, seed=7395),
    ]


def _assert_matches_the_oracle(counts, expected):
    """`_reference_descent` of `counts` ends where the oracle's numpy descent
    ends: the same boundary hit, eta within 1e-6 relative (the tolerance of
    the Nelder-Mead check) and an objective no higher beyond rounding.  Not
    bit for bit: math.exp and numpy's exp round some arguments apart, and so
    do an ordered sum and numpy's pairwise one, so a flat minimum can end a
    few steps elsewhere."""
    res = _reference_descent(counts)
    assert res.boundary_hit == expected.boundary_hit
    np.testing.assert_allclose(res.eta, expected.eta, rtol=1e-6, atol=0)
    assert res.objective_value <= expected.objective_value + _rounding(expected.objective_value)


def _oracle_check_groups():
    return [
        *_oracle_groups(),
        *_off_paper_groups(1e3, 131),
        *_off_paper_groups(1e4, 171),
        *_two_minima_groups(),
    ]


def test_calibrate_each_matches_the_per_group_oracle():
    # the reference descent of each group, and of all groups pooled, ends
    # where the oracle's does; the calibration reports each group at its eta
    groups = _oracle_check_groups()
    counts = stacked_counts(groups)
    results = calibrate_each(counts)
    assert len(results) == len(groups)
    for group, recs, res in zip(counts, groups, results):
        _assert_matches_the_oracle([group], calibration_oracle.calibrate_groups([recs]))
        assert res.report == report(recs, eta_correction=res.eta)
        assert calibrate(recs) == res
    _assert_matches_the_oracle(counts, calibration_oracle.calibrate_groups(groups))
    pooled = calibrate_pooled(counts)
    assert pooled.report == report(groups[0], eta_correction=pooled.eta)
    assert results[0].eta.eta_b == 1.0
    assert any(_reference_descent([group]).boundary_hit for group in counts)


def test_calibration_is_the_count_ratio_closed_form():
    # eta is exp(_ratio_seed) bit for bit, the numpy ratio seed within 1e-13
    # in ln(eta); the report is the first group's at eta, the objective the
    # variance of both clones summed over the groups in order
    groups = _oracle_check_groups()
    counts = stacked_counts(groups)
    results = calibrate_each(counts)
    assert len(results) == len(groups)
    cases = [([group], [recs], res) for group, recs, res in zip(counts, groups, results)]
    for group_counts, group_records, res in [*cases, (counts, groups, calibrate_pooled(counts))]:
        log_eta = _ratio_seed(group_counts)
        assert tuple(res.eta) == (math.exp(log_eta[0]), math.exp(log_eta[1]))
        np.testing.assert_allclose(np.log(res.eta),
                                   calibration_oracle.ratio_seed(np.array(group_counts)),
                                   rtol=0, atol=1e-13)
        reports = [report(recs, eta_correction=res.eta) for recs in group_records]
        assert res.report == reports[0]
        objective = 0.0
        for rep in reports:
            objective += rep.variance_a + rep.variance_b
        assert res.objective_value == objective
        assert res.boundary_hit == any(min(e - ETA_MIN, ETA_MAX - e) < 1e-6 for e in res.eta)
    assert any(res.boundary_hit for res in results)


def _survey_groups(seed, counts):
    """A survey pass of the benchmark: 200 distinct t values drawn uniformly
    from [0, 0.95], kept to 12 digits, each group at the paper's eta with
    seed `seed` plus its index."""
    rng = random.Random(seed)
    t_values = set()
    while len(t_values) < 200:
        t_values.add(f"{rng.uniform(0.0, 0.95):.12g}")
    return [run_experiment(float(t), ETA_PAPER, counts, seed=seed + i)
            for i, t in enumerate(sorted(t_values, key=float))]


@pytest.mark.parametrize("counts, median_max, excess_max", [(1e3, 2.5e-3, 0.2), (1e4, 3e-4, 0.1)])
def test_closed_form_objective_sits_near_the_variance_minimum(counts, median_max, excess_max):
    # over survey seeds 901-903 the relative excess of the closed form's
    # variance over the reference minimum had median 8.3e-4 and max 0.060 at
    # 1e3 counts, 9.9e-5 and 0.034 at 1e4; the margins allow 3x that
    excess = []
    for seed in (901, 902, 903):
        groups = stacked_counts(_survey_groups(seed, counts))
        for group, res in zip(groups, calibrate_each(groups)):
            minimum = _reference_descent([group]).objective_value
            assert res.objective_value >= minimum - _rounding(minimum)
            excess.append((res.objective_value - minimum) / minimum)
    assert np.median(excess) <= median_max
    assert max(excess) <= excess_max


def _rms_ratio(cases):
    """RMS ln(eta) error of the calibration (per group for one group, pooled
    for several) over that of the reference descent, per component, over
    (counts, true eta) cases."""
    closed, descent = [], []
    for counts, eta in cases:
        res = calibrate_pooled(counts) if len(counts) > 1 else calibrate_each(counts)[0]
        closed.append(np.log(res.eta) - np.log(eta))
        descent.append(np.log(_reference_descent(counts).eta) - np.log(eta))
    closed, descent = (np.sqrt(np.mean(np.square(e), axis=0)) for e in (closed, descent))
    return closed / descent


STUDY_ETAS = (ETA_PAPER, EfficiencyPair(0.22, 4.5), EfficiencyPair(4.5, 0.22))


def test_closed_form_eta_error_no_larger_than_the_descents():
    # a small version of the seeded study in CHANGES.md: over 60 seeds at
    # the paper's eta and two edge pairs, the closed form's RMS ln(eta) error
    # is at most 1.05 times that of the reference descent, per component,
    # for single groups at 1e4 counts and for pools of the six default t
    # values at 1e3 and 1e4 counts
    for t in (0.3, 0.9):
        cases = [(stacked_counts([run_experiment(t, eta, 1e4, seed=6000 + seed)]), eta)
                 for eta in STUDY_ETAS for seed in range(60)]
        ratio = _rms_ratio(cases)
        assert (ratio <= 1.05).all(), (t, ratio)
    t_values = [np.sqrt(n / 5) for n in range(6)]
    for counts in (1e3, 1e4):
        cases = [(stacked_counts([run_experiment(t, eta, counts, seed=6000 + 10 * seed + i)
                                  for i, t in enumerate(t_values)]), eta)
                 for eta in STUDY_ETAS for seed in range(60)]
        ratio = _rms_ratio(cases)
        assert (ratio <= 1.05).all(), (counts, ratio)


def test_terms_and_seeds_match_the_oracle():
    counts = stacked_counts(_oracle_groups() * 12)  # 204 groups
    rng = np.random.default_rng(5)
    for size in (1, 3, 6, 200):
        z = rng.uniform(-1.5, 1.5, size=2)
        value, grad, (h_aa, h_ab, h_bb) = _objective_terms(counts[:size], z)
        expected = calibration_oracle.objective_terms(np.array(counts[:size]), z)
        np.testing.assert_allclose(value, expected[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(grad, expected[1], rtol=1e-12, atol=0)
        np.testing.assert_allclose([[h_aa, h_ab], [h_ab, h_bb]], expected[2], rtol=1e-12, atol=0)
        np.testing.assert_allclose(_ratio_seed(counts[:size]),
                                   calibration_oracle.ratio_seed(np.array(counts[:size])),
                                   rtol=0, atol=1e-13)
    for group in counts[:17]:
        expected = calibration_oracle.ratio_seed(np.array([group]))
        np.testing.assert_allclose(_ratio_seed([group]), expected, rtol=0, atol=1e-13)


def test_noiseless_calibration_matches_the_oracle(tmp_path):
    # the default noiseless run as `calibrate` reads it: counts kept to 12
    # significant digits fit the model to rounding, so the pooled objective
    # at its minimum is about 1e-25
    path = tmp_path / "records.csv"
    write_records((rec for n in range(6)
                   for rec in run_experiment(np.sqrt(n / 5), ETA_PAPER, 1e5, noiseless=True)), path)
    records = read_records(path)
    groups = [records[i : i + 6] for i in range(0, len(records), 6)]
    counts = stacked_counts(groups)
    pooled = calibrate_pooled(counts)
    assert pooled.objective_value < 1e-20
    _assert_matches_the_oracle(counts, calibration_oracle.calibrate_groups(groups))
    # the pooled row of the table prints the true efficiencies
    assert [f"{eta:.12g}" for eta in pooled.eta] == ["1.046", "0.84"]
    for group, recs in zip(counts, groups):
        _assert_matches_the_oracle([group], calibration_oracle.calibrate_groups([recs]))

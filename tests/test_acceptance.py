"""End-to-end acceptance checks.  Each test prints a PASS line when its
criterion holds at the stated tolerance."""

import numpy as np
from channel_oracle import (
    catalog_states,
    channel_probabilities,
    clone_states,
    fidelity,
    mub_bases,
    orthogonal_state,
)
from report_oracle import fidelities_from_counts

from qclone.cloner import MachineTriple, clone_fidelities, machine_triple, tradeoff_residual
from qclone.detection import EfficiencyPair, bias_counts, run_experiment
from qclone.estimation import calibrate, report
from qclone.robustness import (
    biased_fidelity_psi,
    biased_fidelity_psi_perp,
    biased_mean,
    eta_from_mismatch,
    taylor_form,
)
from qclone.states import projector

T_SETTINGS = [float(np.sqrt(n / 5)) for n in range(6)]
ETA_CAL = EfficiencyPair(1.046, 0.840)


def random_ket(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def test_criterion_1_tradeoff_reproduction():
    for t in T_SETTINGS:
        fa, fb = clone_fidelities(t)
        assert abs(tradeoff_residual(fa, fb)) < 1e-12, t
    fa0, fb0 = clone_fidelities(0.0)
    assert fa0 == 5 / 6 and fb0 == 5 / 6
    fa1, fb1 = clone_fidelities(1.0)
    assert fa1 == 0.5 and fb1 == 1.0
    print("PASS criterion 1: trade-off residual < 1e-12 at all six settings, endpoints exact")


def test_criterion_2_channel_equals_closed_form():
    rng = np.random.default_rng(101)
    for _ in range(50):
        psi, t = random_ket(rng), rng.uniform()
        rho_a, rho_b = clone_states(psi, t)
        pp, pq = projector(psi), projector(orthogonal_state(psi))
        denom = 2 * (3 + t * t)
        exp_a = ((5 - 2 * t + t * t) * pp + (1 + t) ** 2 * pq) / denom
        exp_b = ((5 + 2 * t + t * t) * pp + (1 - t) ** 2 * pq) / denom
        assert np.max(np.abs(rho_a - exp_a)) < 1e-12
        assert np.max(np.abs(rho_b - exp_b)) < 1e-12
    print("PASS criterion 2: channel output equals closed forms within 1e-12, 50 random (psi, t)")


def test_criterion_3_universality():
    for t in T_SETTINGS:
        fas, fbs = [], []
        for psi in catalog_states():
            rho_a, rho_b = clone_states(psi, t)
            fas.append(fidelity(rho_a, psi))
            fbs.append(fidelity(rho_b, psi))
        assert max(fas) - min(fas) < 1e-12
        assert max(fbs) - min(fbs) < 1e-12
    print("PASS criterion 3: per-state fidelities identical across the six states within 1e-12")


def test_criterion_4_bias_model_cross_check():
    rng = np.random.default_rng(202)
    basis = mub_bases()[2]
    for _ in range(50):
        t = rng.uniform()
        eta = EfficiencyPair(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        m = machine_triple(t)
        sim = {}
        for role, psi_in in (("psi", basis.psi), ("perp", basis.psi_perp)):
            counts = bias_counts(channel_probabilities(psi_in, basis, t), eta, 1e4)
            sim[role] = fidelities_from_counts(counts, role)[0]
        assert abs(sim["psi"] - biased_fidelity_psi(m, eta)) < 1e-12
        assert abs(sim["perp"] - biased_fidelity_psi_perp(m, eta)) < 1e-12
        basis_mean = 0.5 * (sim["psi"] + sim["perp"])
        assert abs(basis_mean - biased_mean(m, eta)) < 1e-12
    print("PASS criterion 4: simulation path equals exact bias formulas within 1e-12, 50 random (t, eta)")


def test_criterion_5_calibration_round_trip():
    t = float(np.sqrt(2 / 5))
    recs = run_experiment(t, ETA_CAL, 1e5, noiseless=True)
    res = calibrate(recs)
    assert abs(res.eta.eta_a - 1.046) < 1e-6
    assert abs(res.eta.eta_b - 0.840) < 1e-6
    fa = [p[0] for p in res.report.per_state]
    fb = [p[1] for p in res.report.per_state]
    assert max(fa) - min(fa) < 1e-10
    assert max(fb) - min(fb) < 1e-10
    # Poisson N = 1e5: the eta_B error has a spread of about 0.008, so the
    # worst of 100 seeds is gated loosely (about 5 sigma) and the RMS and mean
    # errors tightly
    errors = np.array([
        np.subtract(calibrate(run_experiment(t, ETA_CAL, 1e5, seed=seed)).eta, ETA_CAL)
        for seed in range(100)
    ])
    rms = np.sqrt(np.mean(errors * errors, axis=0))
    mean = errors.mean(axis=0)
    worst = np.abs(errors).max()
    assert np.all(rms <= 0.012), rms
    assert np.all(np.abs(mean) <= 0.004), mean
    assert worst < 0.04, worst
    print(
        "PASS criterion 5: noiseless recovery < 1e-6, spread < 1e-10; Poisson N=1e5 over "
        f"100 seeds: RMS error (eta_A, eta_B) = ({rms[0]:.4f}, {rms[1]:.4f}) <= 0.012, "
        f"|mean| <= {np.abs(mean).max():.4f} <= 0.004, worst {worst:.4f} < 0.04"
    )


def test_criterion_6_robustness_numbers():
    form = taylor_form(machine_triple(0.0))
    assert abs(form.coeff_aa - (-5 / 108)) < 1e-15
    assert abs(form.coeff_ab - 1 / 54) < 1e-15
    assert abs(form.coeff_bb - 1 / 108) < 1e-15
    assert abs(form.max_eigenvalue() - (2 + np.sqrt(10)) / 108) < 1e-15
    err = abs(biased_mean(machine_triple(0.0), eta_from_mismatch(0.1, 0.0)) - 5 / 6)
    assert 0.5 * 5e-4 < err < 2 * 5e-4
    print(
        "PASS criterion 6: symmetric coefficients (-5/108, 1/54, 1/108), "
        f"bound factor (2+sqrt(10))/108, exact error at (0.1, 0) = {err:.2e}"
    )


def test_criterion_7_linear_term_cancellation():
    rng = np.random.default_rng(303)
    step = 1e-5
    machines = []
    while len(machines) < 50:
        p = rng.uniform(0.2, 0.9)
        fa = rng.uniform(p, 1.0)
        fb = rng.uniform(p, 1.0)
        if 1 + p - fa - fb > 0.01:
            machines.append(MachineTriple(fa, fb, p))
    for m in machines:
        ga = (
            biased_mean(m, eta_from_mismatch(step, 0.0))
            - biased_mean(m, eta_from_mismatch(-step, 0.0))
        ) / (2 * step)
        gb = (
            biased_mean(m, eta_from_mismatch(0.0, step))
            - biased_mean(m, eta_from_mismatch(0.0, -step))
        ) / (2 * step)
        assert abs(ga) < 1e-8 and abs(gb) < 1e-8
    print("PASS criterion 7: finite-difference gradient at zero mismatch < 1e-8, 50 random machines")


def test_criterion_8_mean_fidelity_resilience():
    worst = 0.0
    for t in T_SETTINGS:
        m = machine_triple(t)
        for ea in np.linspace(-0.2, 0.2, 9):
            for eb in np.linspace(-0.2, 0.2, 9):
                eta = eta_from_mismatch(ea, eb)
                # calibrated mean on noiseless data is the true fidelity
                shift = abs(biased_mean(m, eta) - m.fid_a)
                worst = max(worst, shift)
                assert shift < 0.005
    print(
        "PASS criterion 8: |calibrated - uncalibrated mean| < 0.005 for eta within "
        f"+-20% at every setting (worst {worst:.2e})"
    )

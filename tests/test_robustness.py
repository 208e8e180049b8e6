import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import robustness_oracle as oracle
from channel_oracle import channel_probabilities, mub_bases
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from report_oracle import fidelities_from_counts

from qclone.cloner import MachineTriple, machine_triple
from qclone.detection import EfficiencyPair, bias_counts
from qclone.tables import linspace
from qclone.robustness import (
    QuadraticErrorForm,
    biased_fidelity_psi,
    biased_fidelity_psi_perp,
    biased_mean,
    biased_mean_b,
    error_bound,
    eta_from_mismatch,
    sweep_blocks,
    taylor_form,
    taylor_form_b,
)

SYMMETRIC = MachineTriple(5 / 6, 5 / 6, 2 / 3)
UNIT = EfficiencyPair(1.0, 1.0)


def random_machine(rng):
    # rejection-sample a valid covariant triple with all diagonal entries > 0
    while True:
        p = rng.uniform(0.2, 0.9)
        fa = rng.uniform(p, 1.0)
        fb = rng.uniform(p, 1.0)
        if 1 + p - fa - fb > 0.01:
            return MachineTriple(fa, fb, p)


def random_eta(rng):
    return EfficiencyPair(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))


def test_unbiased_detectors_recover_fidelities():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = random_machine(rng)
        assert abs(biased_fidelity_psi(m, UNIT) - m.fid_a) < 1e-14
        assert abs(biased_fidelity_psi_perp(m, UNIT) - m.fid_a) < 1e-14
        assert abs(biased_mean(m, UNIT) - m.fid_a) < 1e-14
        assert abs(biased_mean_b(m, UNIT) - m.fid_b) < 1e-14


def test_underestimation_direction():
    f = biased_fidelity_psi(SYMMETRIC, EfficiencyPair(1.0, 0.9))
    assert f < 5 / 6


def test_saw_tooth_direction():
    eta = EfficiencyPair(1.0, 0.9)
    f_psi = biased_fidelity_psi(SYMMETRIC, eta)
    f_perp = biased_fidelity_psi_perp(SYMMETRIC, eta)
    assert f_psi < 5 / 6 < f_perp


def test_perp_formula_is_inverse_substitution():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = random_machine(rng)
        eta = random_eta(rng)
        inv = EfficiencyPair(1 / eta.eta_a, 1 / eta.eta_b)
        assert abs(
            biased_fidelity_psi(m, inv) - biased_fidelity_psi_perp(m, eta)
        ) < 1e-13


def _simulated_biased_fidelities(t, eta):
    # matrix channel -> biased counts -> count-ratio estimators, for both
    # input roles in one basis
    basis = mub_bases()[1]
    out = {}
    for role, psi_in in (("psi", basis.psi), ("perp", basis.psi_perp)):
        probs = channel_probabilities(psi_in, basis, t)
        counts = bias_counts(probs, eta, 1e6)
        out[role] = fidelities_from_counts(counts, role)
    return out


def test_exact_formulas_match_simulation_path():
    # the central cross-module identity of the model
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.uniform()
        eta = random_eta(rng)
        m = machine_triple(t)
        sim = _simulated_biased_fidelities(t, eta)
        assert abs(sim["psi"][0] - biased_fidelity_psi(m, eta)) < 1e-12
        assert abs(sim["perp"][0] - biased_fidelity_psi_perp(m, eta)) < 1e-12
        # clone B: the clone-A formulas with both label pairs interchanged
        swapped = EfficiencyPair(eta.eta_b, eta.eta_a)
        assert abs(sim["psi"][1] - biased_fidelity_psi(m.swapped(), swapped)) < 1e-12
        assert abs(sim["perp"][1] - biased_fidelity_psi_perp(m.swapped(), swapped)) < 1e-12


def test_biased_mean_worked_example():
    # 10% mismatch on one detector pair shifts the symmetric mean by ~5e-4
    val = biased_mean(SYMMETRIC, eta_from_mismatch(0.1, 0.0))
    err = abs(val - 5 / 6)
    assert 0.25e-3 < err < 1.0e-3


def test_linear_terms_cancel():
    step = 1e-5
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = random_machine(rng)
        for direction in ((1, 0), (0, 1)):
            plus = biased_mean(m, eta_from_mismatch(step * direction[0], step * direction[1]))
            minus = biased_mean(m, eta_from_mismatch(-step * direction[0], -step * direction[1]))
            grad = (plus - minus) / (2 * step)
            assert abs(grad) < 1e-8


def test_taylor_form_symmetric_machine():
    form = taylor_form(SYMMETRIC)
    assert abs(form.coeff_aa - (-5 / 108)) < 5e-16
    assert abs(form.coeff_ab - 1 / 54) < 5e-16
    assert abs(form.coeff_bb - 1 / 108) < 5e-16


def test_taylor_form_trivial_machine():
    form = taylor_form(MachineTriple(0.5, 1.0, 0.5))
    assert abs(form.coeff_aa) < 1e-15
    assert abs(form.coeff_ab) < 1e-15
    assert abs(form.coeff_bb) < 1e-15


def test_taylor_form_matches_numerical_hessian():
    # printed coefficients vs central second differences of the exact mean
    rng = np.random.default_rng(5)
    h = 1e-4
    for _ in range(20):
        m = random_machine(rng)
        form = taylor_form(m)

        def mean(ea, eb):
            return biased_mean(m, eta_from_mismatch(ea, eb))

        f0 = mean(0, 0)
        d2a = (mean(h, 0) - 2 * f0 + mean(-h, 0)) / h**2
        d2b = (mean(0, h) - 2 * f0 + mean(0, -h)) / h**2
        dab = (mean(h, h) - mean(h, -h) - mean(-h, h) + mean(-h, -h)) / (4 * h**2)
        assert abs(0.5 * d2a - form.coeff_aa) < 1e-6
        assert abs(0.5 * d2b - form.coeff_bb) < 1e-6
        assert abs(dab - form.coeff_ab) < 1e-6


def test_cubic_residual_scaling():
    # |exact - quadratic| should decay as the cube of the mismatch size
    form = taylor_form(SYMMETRIC)
    grid = np.linspace(-0.05, 0.05, 9)
    ratios = []
    for ea in grid:
        for eb in grid:
            size = abs(ea) + abs(eb)
            if size < 1e-3:
                continue
            exact = biased_mean(SYMMETRIC, eta_from_mismatch(ea, eb)) - 5 / 6
            resid = abs(exact - form.evaluate(ea, eb))
            ratios.append(resid / size**3)
    k = max(ratios)
    assert k < 1.0  # the cubic coefficient is small for this machine
    # now verify the fitted cubic bound holds on a wider grid
    wide = np.linspace(-0.1, 0.1, 11)
    for ea in wide:
        for eb in wide:
            exact = biased_mean(SYMMETRIC, eta_from_mismatch(ea, eb)) - 5 / 6
            resid = abs(exact - form.evaluate(ea, eb))
            assert resid <= 5 * k * (abs(ea) + abs(eb)) ** 3 + 1e-12


def test_error_bound_symmetric_factor():
    form = taylor_form(SYMMETRIC)
    assert abs(form.max_eigenvalue() - (2 + np.sqrt(10)) / 108) < 5e-16


def test_error_bound_dominates_form():
    rng = np.random.default_rng(6)
    form = taylor_form(SYMMETRIC)
    for _ in range(1000):
        ea, eb = rng.uniform(-0.5, 0.5, size=2)
        assert abs(form.evaluate(ea, eb)) <= error_bound(form, ea, eb) + 1e-15
    assert error_bound(form, 0.0, 0.0) == 0.0


def test_exact_error_at_ten_percent():
    # the 0.05% worked value, reproduced within a factor of two
    err = abs(biased_mean(SYMMETRIC, eta_from_mismatch(0.1, 0.0)) - 5 / 6)
    assert 0.5 * 5e-4 < err < 2 * 5e-4


def test_clone_b_symmetric_swap():
    eta = EfficiencyPair(1.1, 0.9)
    swapped = EfficiencyPair(0.9, 1.1)
    assert abs(
        biased_mean_b(SYMMETRIC, eta) - biased_mean(SYMMETRIC, swapped)
    ) < 1e-14
    form_a = taylor_form(SYMMETRIC)
    form_b = taylor_form_b(SYMMETRIC)
    assert abs(form_b.coeff_aa - form_a.coeff_bb) < 1e-15
    assert abs(form_b.coeff_bb - form_a.coeff_aa) < 1e-15
    assert abs(form_b.coeff_ab - form_a.coeff_ab) < 1e-15


def test_quadratic_form_evaluates_zero_at_origin():
    form = QuadraticErrorForm(-0.3, 0.2, 0.1)
    assert form.evaluate(0.0, 0.0) == 0.0


def test_mismatch_validation():
    with pytest.raises(ValueError):
        eta_from_mismatch(-1.0, 0.0)
    with pytest.raises(ValueError):
        oracle.eta_from_mismatch(np.array([0.0, 0.5]), np.array([0.1, -1.2]))


@st.composite
def machines(draw):
    # a valid covariant triple: all four diagonal entries nonnegative
    p = draw(st.floats(0.0, 1.0))
    fa = draw(st.floats(p, 1.0))
    fb = draw(st.floats(p, max(p, 1.0 + p - fa)))
    return MachineTriple(fa, fb, p)


MISMATCHES = arrays(
    np.float64, st.integers(1, 30),
    elements=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)


@given(machines(), st.floats(0.0, 2.0 * np.pi))
def test_linear_terms_cancel_property(m, angle):
    # the basis mean of either clone has no first-order term in the
    # mismatches: its central difference along any direction vanishes
    step = 1e-5
    da, db = step * np.cos(angle), step * np.sin(angle)
    for mean in (biased_mean, biased_mean_b):
        slope = (mean(m, eta_from_mismatch(da, db)) - mean(m, eta_from_mismatch(-da, -db))) / (2 * step)
        assert abs(slope) < 1e-8


# 0.343805606955381**2 through the C pow() of glibc is one unit in the last
# place off the correctly rounded product that numpy's array square gives
@example(SYMMETRIC, np.array([0.343805606955381, 0.0]), np.array([0.0, 0.343805606955381]))
# an efficiency of 1.1e-16 on a machine with zero diagonal entries: the
# perp-role denominator rounds to 0 unless its constant term is grouped
@example(MachineTriple(1.0, 0.0, 0.0), np.array([-0.9999999999999999]), np.array([0.0]))
@example(MachineTriple(1.0, 1.0, 1.0), np.array([0.0]), np.array([-0.9999999999999999]))
@given(machines(), MISMATCHES, MISMATCHES)
def test_array_calls_equal_scalar_calls(m, eps_a, eps_b):
    # the oracle's one call per column must give the per-point floats exactly
    n = min(len(eps_a), len(eps_b))
    eps_a, eps_b = eps_a[:n], eps_b[:n]
    form_a, form_b = taylor_form(m), taylor_form_b(m)
    eta = oracle.eta_from_mismatch(eps_a, eps_b)
    columns = [
        oracle.biased_mean(m, eta), oracle.biased_mean_b(m, eta),
        oracle.evaluate(form_a, eps_a, eps_b), oracle.error_bound(form_a, eps_a, eps_b),
        oracle.evaluate(form_b, eps_a, eps_b), oracle.error_bound(form_b, eps_a, eps_b),
    ]
    for i, (ea, eb) in enumerate(zip(eps_a.tolist(), eps_b.tolist())):
        eta_i = eta_from_mismatch(ea, eb)
        scalars = [
            biased_mean(m, eta_i), biased_mean_b(m, eta_i),
            form_a.evaluate(ea, eb), error_bound(form_a, ea, eb),
            form_b.evaluate(ea, eb), error_bound(form_b, ea, eb),
        ]
        assert [c[i] for c in columns] == scalars


def _bits(rows):
    # repr tells -0.0 from 0.0, which == does not and a table prints apart
    return [repr(row) for row in rows]


def sweep_rows(machine, eps_max, eps_points):
    """The rows of `sweep_blocks`' grid, eps_a outer and eps_b inner."""
    eps, blocks = sweep_blocks(machine, eps_max, eps_points)
    return [(ea, eb, *values) for ea, block in zip(eps, blocks) for eb, *values in zip(eps, *block)]


# the three cases above as sweeps: eps_max 0.343805606955381 squared, and an
# efficiency of 1.1e-16 (the three-point grid holds -eps_max, 0 and eps_max)
@example(SYMMETRIC, 0.343805606955381, 2)
@example(MachineTriple(1.0, 0.0, 0.0), 0.9999999999999999, 3)
@example(MachineTriple(1.0, 1.0, 1.0), 0.9999999999999999, 3)
@given(machines(), st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 41))
def test_sweep_rows_equal_the_oracle(m, eps_max, eps_points):
    rows, expected = sweep_rows(m, eps_max, eps_points), oracle.sweep_rows(m, eps_max, eps_points)
    assert len(rows) == eps_points**2
    assert rows == expected
    assert _bits(rows) == _bits(expected)


def test_sweep_rows_reject_a_mismatch_of_minus_one():
    with pytest.raises(ValueError):
        sweep_blocks(SYMMETRIC, 1.0, 3)


def assert_max_eigenvalue_is_close(form):
    # the closed form lies within 2 ulp of numpy's eigvalsh and of the
    # spectral radius of the form's matrix to 60 significant digits
    value = form.max_eigenvalue()
    half = form.coeff_ab / 2.0
    lapack = np.linalg.eigvalsh(np.array([[form.coeff_aa, half], [half, form.coeff_bb]]))
    with localcontext() as ctx:
        ctx.prec = 60
        a, b, c = Decimal(form.coeff_aa), Decimal(form.coeff_ab) / 2, Decimal(form.coeff_bb)
        exact = abs(a + c) / 2 + (((a - c) / 2) ** 2 + b * b).sqrt()
        for reference in (Decimal(float(np.max(np.abs(lapack)))), exact):
            ulp = Decimal(math.ulp(float(reference)))
            assert abs(Decimal(value) - reference) <= 2 * ulp, (value, reference)


@given(machines())
def test_max_eigenvalue_equals_eigvalsh(m):
    for form in (taylor_form(m), taylor_form_b(m)):
        assert_max_eigenvalue_is_close(form)


@pytest.mark.parametrize("form", [
    QuadraticErrorForm(0.0, 0.0, 0.0),
    QuadraticErrorForm(-0.3, 0.0, 0.1),  # coeff_ab == 0: the diagonal
    QuadraticErrorForm(0.1, 0.2, 0.1),  # coeff_aa == coeff_bb
    QuadraticErrorForm(-0.1, 0.2, -0.1),
    QuadraticErrorForm(0.1, -0.2, -0.1),  # coeff_aa == -coeff_bb
    QuadraticErrorForm(1e-17, 1.0, 1e-17),
    # an off-diagonal entry that LAPACK's dsterf neglects, where its dlae2
    # would give one ulp more: by its first test alone, then by its second
    QuadraticErrorForm(1.7315213382920627, 2 * 1.922374857401613e-16, -1.731521338292063),
    QuadraticErrorForm(*(float.fromhex(x) for x in (
        "0x1.d9f21f378763ap+0", "0x1.d9f21f378763ap-52", "0x1.d9f21f378763ap+0"))),
    # eigenvalues of nearly opposite sign, where dlae2's second one is the
    # larger in magnitude by one ulp
    QuadraticErrorForm(0.8232217538370984, 0.01569672166469764, -0.8232217538370983),
    # beyond LAPACK's scaling thresholds, 2**485 above, 2**-405 and 2**-485
    # below, and subnormal entries
    QuadraticErrorForm(3e300, -7e299, 1e299),
    QuadraticErrorForm(3e-130, 7e-131, -2e-130),
    QuadraticErrorForm(3e-300, -7e-301, 5e-324),
    QuadraticErrorForm(5e-324, 1e-323, 5e-324),
    QuadraticErrorForm(1.4455012634517346e-286, -0.0, 3.4512079561628115e-286),
    QuadraticErrorForm(6.955260898434175e-251, 6.179050823583781e-253, 1.7572216087129635e-251),
])
def test_max_eigenvalue_pinned_forms(form):
    assert_max_eigenvalue_is_close(form)


@pytest.mark.parametrize("t", [math.sqrt(n / 5.0) for n in range(6)])
def test_max_eigenvalue_on_the_paper_grid(t):
    m = machine_triple(t)
    for form in (taylor_form(m), taylor_form_b(m)):
        assert_max_eigenvalue_is_close(form)


@given(st.builds(QuadraticErrorForm, *(st.floats(-1e300, 1e300),) * 3))
def test_max_eigenvalue_invariances(form):
    # exact: swapping the diagonal entries or flipping the sign of the
    # off-diagonal one leaves the spectrum, and the closed form, unchanged
    a, ab, c = form
    value = form.max_eigenvalue()
    assert QuadraticErrorForm(c, ab, a).max_eigenvalue() == value
    assert QuadraticErrorForm(a, -ab, c).max_eigenvalue() == value


@given(machines())
def test_clone_b_bound_factor_is_the_swapped_machines(m):
    assert taylor_form_b(m).max_eigenvalue() == taylor_form(m.swapped()).max_eigenvalue()


@pytest.mark.parametrize("num", [1, 2, 3, 21, 200, 201, 501])
@pytest.mark.parametrize("eps_max", [0.0, 0.2, 0.9999999999999999])
def test_linspace_equals_numpy(num, eps_max):
    for start, stop in ((-eps_max, eps_max), (0.0, 1.0)):
        points = linspace(start, stop, num)
        expected = np.linspace(start, stop, num).tolist()
        assert points == expected
        assert list(map(float.hex, points)) == list(map(float.hex, expected))

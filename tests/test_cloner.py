import numpy as np
import pytest
from channel_oracle import channel_probabilities

from qclone.cloner import (
    MachineTriple,
    apply_cloner,
    clone_fidelities,
    clone_states,
    machine_triple,
    success_probability,
    symmetrizer,
    tradeoff_residual,
)
from qclone.states import (
    KET_H,
    SINGLET,
    BasisPair,
    catalog_states,
    check_density,
    fidelity,
    orthogonal_state,
    projector,
)

T_GRID = [np.sqrt(n / 5) for n in range(6)]


def random_ket(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def closed_form_clones(psi, t):
    # reduced clone states written out directly from the amplitudes
    pp = projector(psi)
    pq = projector(orthogonal_state(psi))
    denom = 2 * (3 + t * t)
    rho_a = ((5 - 2 * t + t * t) * pp + (1 + t) ** 2 * pq) / denom
    rho_b = ((5 + 2 * t + t * t) * pp + (1 - t) ** 2 * pq) / denom
    return rho_a, rho_b


def test_symmetrizer_endpoints():
    np.testing.assert_allclose(symmetrizer(1.0), np.eye(4), atol=1e-15)
    pi_plus = symmetrizer(0.0)
    np.testing.assert_allclose(pi_plus @ pi_plus, pi_plus, atol=1e-14)


def test_symmetrizer_singlet_eigenvector():
    for t in (0.0, 0.3, 0.8):
        np.testing.assert_allclose(symmetrizer(t) @ SINGLET, t * SINGLET, atol=1e-14)


def test_symmetrizer_eigenvalues():
    ev = np.sort(np.linalg.eigvalsh(symmetrizer(0.25)))
    np.testing.assert_allclose(ev, [0.25, 1, 1, 1], atol=1e-14)


def test_symmetrizer_rejects_bad_t():
    for t in (-0.1, 1.1):
        with pytest.raises(ValueError):
            symmetrizer(t)
        with pytest.raises(ValueError):
            apply_cloner(KET_H, t)
        with pytest.raises(ValueError):
            clone_fidelities(t)


def test_success_probability():
    rng = np.random.default_rng(21)
    for t in T_GRID:
        for _ in range(20):
            _, prob = apply_cloner(random_ket(rng), t)
            assert abs(prob - (3 + t * t) / 4) < 1e-12
            assert abs(prob - success_probability(t)) < 1e-12
    _, prob = apply_cloner(random_ket(rng), 1.0)
    assert abs(prob - 1.0) < 1e-12


def test_apply_cloner_full_symmetrization_oracle():
    # independent arithmetic: project I/2 x |H><H| onto the symmetric subspace
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    pi_plus = np.eye(4) - np.outer(singlet, singlet.conj())
    rho_in = np.kron(np.eye(2) / 2, projector(KET_H))
    expected = pi_plus @ rho_in @ pi_plus
    rho_out, prob = apply_cloner(KET_H, 0.0)
    np.testing.assert_allclose(rho_out, expected, atol=1e-14)
    assert abs(prob - 0.75) < 1e-12


def test_clone_states_endpoints():
    rng = np.random.default_rng(2)
    psi = random_ket(rng)
    rho_a, rho_b = clone_states(psi, 1.0)
    np.testing.assert_allclose(rho_a, np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(rho_b, projector(psi), atol=1e-12)
    rho_a, rho_b = clone_states(psi, 0.0)
    sym = (5 * projector(psi) + projector(orthogonal_state(psi))) / 6
    np.testing.assert_allclose(rho_a, sym, atol=1e-12)
    np.testing.assert_allclose(rho_b, sym, atol=1e-12)


def test_clone_states_match_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(50):
        psi = random_ket(rng)
        t = rng.uniform()
        rho_a, rho_b = clone_states(psi, t)
        exp_a, exp_b = closed_form_clones(psi, t)
        np.testing.assert_allclose(rho_a, exp_a, atol=1e-12)
        np.testing.assert_allclose(rho_b, exp_b, atol=1e-12)
        check_density(rho_a)
        check_density(rho_b)


def test_clone_fidelities_values():
    fa, fb = clone_fidelities(0.0)
    assert abs(fa - 5 / 6) < 1e-15 and abs(fb - 5 / 6) < 1e-15
    fa, fb = clone_fidelities(1.0)
    assert abs(fa - 0.5) < 1e-15 and abs(fb - 1.0) < 1e-15
    fa, fb = clone_fidelities(np.sqrt(3 / 5))
    assert abs(tradeoff_residual(fa, fb)) < 1e-12


def test_tradeoff_residual_examples():
    assert abs(tradeoff_residual(5 / 6, 5 / 6)) < 1e-15
    assert abs(tradeoff_residual(0.5, 1.0)) < 1e-15
    assert abs(tradeoff_residual(0.8, 0.8) - 0.03) < 1e-15


def test_tradeoff_holds_along_curve():
    for t in np.linspace(0, 1, 100):
        assert abs(tradeoff_residual(*clone_fidelities(t))) < 1e-12


def test_fidelity_monotonicity():
    ts = np.linspace(0, 1, 101)
    fa = np.array([clone_fidelities(t)[0] for t in ts])
    fb = np.array([clone_fidelities(t)[1] for t in ts])
    assert np.all(np.diff(fa) < 0)
    assert np.all(np.diff(fb) > 0)


def test_universality_across_inputs():
    rng = np.random.default_rng(4)
    for t in T_GRID:
        fa_ref, fb_ref = clone_fidelities(t)
        inputs = catalog_states() + [random_ket(rng) for _ in range(50)]
        for psi in inputs:
            rho_a, rho_b = clone_states(psi, t)
            assert abs(fidelity(rho_a, psi) - fa_ref) < 1e-12
            assert abs(fidelity(rho_b, psi) - fb_ref) < 1e-12


def test_machine_triple_values():
    m = machine_triple(0.0)
    assert abs(m.fid_a - 5 / 6) < 1e-15
    assert abs(m.fid_b - 5 / 6) < 1e-15
    assert abs(m.p - 2 / 3) < 1e-15
    m = machine_triple(1.0)
    np.testing.assert_allclose(m.diagonal(), [0.5, 0, 0.5, 0], atol=1e-15)


def test_machine_diagonal_sums_to_one():
    for t in np.linspace(0, 1, 20):
        assert abs(np.array(machine_triple(t).diagonal()).sum() - 1.0) < 1e-14


def test_machine_diagonal_matches_rotated_output():
    rng = np.random.default_rng(9)
    for _ in range(20):
        psi = random_ket(rng)
        t = rng.uniform()
        diag = channel_probabilities(psi, BasisPair(psi, orthogonal_state(psi)), t)
        np.testing.assert_allclose(diag, machine_triple(t).diagonal(), atol=1e-12)


def test_machine_triple_validate():
    MachineTriple(5 / 6, 5 / 6, 2 / 3).validate()
    with pytest.raises(ValueError):
        MachineTriple(0.9, 0.9, 0.95).validate()  # fid_a < p

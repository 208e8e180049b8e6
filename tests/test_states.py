import numpy as np
import pytest
from channel_oracle import (
    KET_D,
    KET_H,
    catalog_states,
    check_density,
    fidelity,
    mub_bases,
    partial_trace,
)

from qclone.states import SINGLET, projector, tensor

I2 = np.eye(2, dtype=complex)


def random_density(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_ket(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def test_catalog_values():
    states = catalog_states()
    assert len(states) == 6
    np.testing.assert_allclose(states[0], [1, 0], atol=1e-15)
    np.testing.assert_allclose(states[2], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)
    # R and L are orthogonal
    assert abs(np.vdot(states[4], states[5])) < 1e-12


def test_catalog_normalized():
    for psi in catalog_states():
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12


def test_catalog_cross_overlaps():
    # all 15 pairwise overlaps are 0 (same basis), 1/2 (different basis)
    states = catalog_states()
    for i in range(6):
        for j in range(i + 1, 6):
            ov = abs(np.vdot(states[i], states[j])) ** 2
            expected = 0.0 if i // 2 == j // 2 else 0.5
            assert abs(ov - expected) < 1e-12, (i, j, ov)


def test_mub_bases():
    bases = mub_bases()
    assert len(bases) == 3
    assert abs(abs(np.vdot(bases[0].psi, bases[1].psi)) ** 2 - 0.5) < 1e-12
    assert abs(abs(np.vdot(bases[1].psi, bases[2].psi)) ** 2 - 0.5) < 1e-12
    for b in bases:
        assert abs(np.vdot(b.psi, b.psi_perp)) < 1e-12


def test_tensor_examples():
    got = tensor(I2 / 2, projector(KET_H))
    np.testing.assert_allclose(got, np.diag([0.5, 0, 0.5, 0]), atol=1e-15)
    np.testing.assert_allclose(tensor(I2 / 2, I2 / 2), np.eye(4) / 4, atol=1e-15)


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(10):
        rho, sigma = random_density(rng), random_density(rng)
        assert abs(
            np.trace(tensor(rho, sigma)) - np.trace(rho) * np.trace(sigma)
        ) < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    for _ in range(100):
        rho, sigma = random_density(rng), random_density(rng)
        np.testing.assert_allclose(partial_trace(tensor(rho, sigma), "A"), rho, atol=1e-12)
        np.testing.assert_allclose(partial_trace(tensor(rho, sigma), "B"), sigma, atol=1e-12)


def test_partial_trace_singlet():
    np.testing.assert_allclose(partial_trace(projector(SINGLET), "A"), I2 / 2, atol=1e-12)
    np.testing.assert_allclose(partial_trace(projector(SINGLET), "B"), I2 / 2, atol=1e-12)


def _ptrace_oracle(rho, keep):
    # independent element-wise summation oracle
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for ap in range(2):
            for b in range(2):
                if keep == "A":
                    out[a, ap] += rho[2 * a + b, 2 * ap + b]
                else:
                    out[a, ap] += rho[2 * b + a, 2 * b + ap]
    return out


def test_partial_trace_linear_against_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        # random convex mixture of two-qubit states
        w = rng.uniform()
        rho = w * random_density(rng, 4) + (1 - w) * random_density(rng, 4)
        for keep in ("A", "B"):
            np.testing.assert_allclose(
                partial_trace(rho, keep), _ptrace_oracle(rho, keep), atol=1e-12
            )


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 4)
    for keep in ("A", "B"):
        assert abs(np.trace(partial_trace(rho, keep)) - 1.0) < 1e-12


def test_partial_trace_bad_selector():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, "C")


def test_fidelity_examples():
    assert abs(fidelity(projector(KET_H), KET_H) - 1.0) < 1e-12
    assert abs(fidelity(I2 / 2, KET_D) - 0.5) < 1e-12
    assert abs(fidelity(projector(KET_H), KET_D) - 0.5) < 1e-12


def test_fidelity_rejects_unnormalized():
    with pytest.raises(ValueError):
        fidelity(0.5 * projector(KET_H), KET_H)


def test_check_density():
    check_density(I2 / 2)
    check_density(0.75 * I2 / 2, normalized=False)
    with pytest.raises(ValueError):
        check_density(np.array([[1.0, 0.5], [0.1, 0.0]]))
    with pytest.raises(ValueError):
        check_density(np.diag([1.5, -0.5]))


def test_operation_outputs_are_valid_densities():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        joint = tensor(rho, sigma)
        check_density(joint)
        check_density(partial_trace(joint, "A"))

import numpy as np
import pytest

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
    sample_counts,
    write_records,
)
from qclone.estimation import fidelities_from_counts
from qclone.states import catalog_states, mub_bases

T_GRID = [np.sqrt(n / 5) for n in range(6)]
UNIT = EfficiencyPair(1.0, 1.0)


def test_ideal_probabilities_symmetric():
    basis = mub_bases()[0]
    probs = ideal_probabilities(basis.psi, basis, 0.0)
    np.testing.assert_allclose(probs, [2 / 3, 1 / 6, 1 / 6, 0], atol=1e-12)


def test_ideal_probabilities_identity_channel():
    basis = mub_bases()[1]
    probs = ideal_probabilities(basis.psi, basis, 1.0)
    np.testing.assert_allclose(probs, [0.5, 0, 0.5, 0], atol=1e-12)


def test_ideal_probabilities_normalized():
    states = catalog_states()
    bases = mub_bases()
    for t in T_GRID:
        for i, psi in enumerate(states):
            probs = ideal_probabilities(psi, bases[i // 2], t)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert probs.min() >= 0


def test_ideal_probabilities_match_machine_diagonal():
    # covariance: for input psi the probabilities are the machine diagonal
    for t in np.linspace(0, 1, 7):
        diag = machine_triple(t).diagonal()
        for basis in mub_bases():
            np.testing.assert_allclose(
                ideal_probabilities(basis.psi, basis, t), diag, atol=1e-12
            )


def test_ideal_probabilities_perp_input_flips_indices():
    for t in (0.0, 0.45, 1.0):
        for basis in mub_bases():
            p_psi = ideal_probabilities(basis.psi, basis, t)
            p_perp = ideal_probabilities(basis.psi_perp, basis, t)
            # flipping + and - in both blocks reverses the 4-outcome order
            np.testing.assert_allclose(p_perp, p_psi[::-1], atol=1e-12)


def test_ideal_probabilities_rejects_foreign_input():
    with pytest.raises(ValueError):
        ideal_probabilities(catalog_states()[2], mub_bases()[0], 0.5)


def test_bias_counts_examples():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    np.testing.assert_allclose(bias_counts(p, UNIT, 1000.0), 1000 * p, atol=1e-12)
    got = bias_counts(np.array([0.5, 0, 0.5, 0]), EfficiencyPair(1.3, 1.0), 100.0)
    np.testing.assert_allclose(got, [50, 0, 65, 0], atol=1e-12)


def test_rescale_counts_examples():
    c = np.full(4, 100.0)
    np.testing.assert_allclose(rescale_counts(c, UNIT), c, atol=1e-15)
    got = rescale_counts(c, EfficiencyPair(1.046, 0.840))
    np.testing.assert_allclose(got, [87.864, 104.6, 84.0, 100.0], atol=1e-12)


def test_bias_rescale_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = rng.uniform(0.01, 1.0, size=4)
        p /= p.sum()
        eta = EfficiencyPair(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        n = rng.uniform(10, 1e6)
        back = rescale_counts(bias_counts(p, eta, n), eta)
        expected = eta.eta_a * eta.eta_b * n * p
        np.testing.assert_allclose(back, expected, rtol=1e-12)


def test_sample_counts_zero_and_determinism():
    np.testing.assert_array_equal(sample_counts(np.zeros(4), 1), np.zeros(4))
    a = sample_counts(np.array([10.0, 20.0, 30.0, 40.0]), 42)
    b = sample_counts(np.array([10.0, 20.0, 30.0, 40.0]), 42)
    np.testing.assert_array_equal(a, b)
    c = sample_counts(np.array([10.0, 20.0, 30.0, 40.0]), 43)
    assert not np.array_equal(a, c)


def test_sample_counts_mean():
    rng_seeds = range(10_000)
    draws = np.array([sample_counts(np.array([100.0]), s)[0] for s in rng_seeds])
    assert abs(draws.mean() - 100.0) < 0.3


def test_sample_counts_variance_matches_mean():
    draws = np.array([sample_counts(np.array([1000.0]), s)[0] for s in range(10_000)])
    assert abs(draws.var() / 1000.0 - 1.0) < 0.05


def test_run_experiment_shape():
    recs = run_experiment(0.4, UNIT, 1e4, seed=1, noiseless=True)
    assert len(recs) == 6
    assert [r.state_label for r in recs] == ["H", "V", "D", "A", "R", "L"]
    assert [r.role for r in recs] == [ROLE_PSI, ROLE_PERP] * 3
    assert [r.basis_label for r in recs] == ["HV", "HV", "DA", "DA", "RL", "RL"]


def test_run_experiment_symmetric_fidelities():
    recs = run_experiment(0.0, UNIT, 1e4, noiseless=True)
    for rec in recs:
        fa, fb = fidelities_from_counts(rec.counts, rec.role)
        assert abs(fa - 5 / 6) < 1e-12
        assert abs(fb - 5 / 6) < 1e-12


def test_run_experiment_identity_channel():
    recs = run_experiment(1.0, UNIT, 1e4, noiseless=True)
    for rec in recs:
        fa, fb = fidelities_from_counts(rec.counts, rec.role)
        assert abs(fa - 0.5) < 1e-12
        assert abs(fb - 1.0) < 1e-12


def test_run_experiment_seed_reproducible():
    a = run_experiment(0.5, UNIT, 1e3, seed=77)
    b = run_experiment(0.5, UNIT, 1e3, seed=77)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.counts, rb.counts)


def test_efficiency_pair_validation():
    EfficiencyPair(1.046, 0.840).validate()
    with pytest.raises(ValueError):
        EfficiencyPair(0.1, 1.0).validate()
    with pytest.raises(ValueError):
        EfficiencyPair(1.0, 6.0).validate()


def test_record_role_consistency():
    with pytest.raises(ValueError):
        MeasurementRecord(0.5, "H", "HV", ROLE_PERP, np.ones(4))
    with pytest.raises(ValueError):
        MeasurementRecord(0.5, "V", "HV", ROLE_PSI, np.ones(4))


def test_record_file_round_trip(tmp_path):
    recs = run_experiment(np.sqrt(0.4), EfficiencyPair(1.1, 0.9), 1e4, seed=5)
    path = tmp_path / "records.csv"
    write_records(recs, path)
    back = read_records(path)
    assert len(back) == 6
    for orig, rec in zip(recs, back):
        assert rec.state_label == orig.state_label
        assert rec.basis_label == orig.basis_label
        assert rec.role == orig.role
        assert abs(rec.t - orig.t) < 1e-11
        np.testing.assert_allclose(rec.counts, orig.counts, rtol=1e-11)


def test_read_records_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,H,HV,psi,1,2,3\n")
    with pytest.raises(ValueError):
        read_records(path)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -0.1, 1.5])
def test_record_rejects_bad_t(t):
    with pytest.raises(ValueError, match="outside"):
        MeasurementRecord(t, "H", "HV", ROLE_PSI, np.ones(4))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_record_rejects_nonfinite_or_negative_counts(bad):
    with pytest.raises(ValueError, match="finite nonnegative"):
        MeasurementRecord(0.5, "H", "HV", ROLE_PSI, [1.0, bad, 1.0, 1.0])


def test_read_records_names_the_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    write_records(run_experiment(0.5, UNIT, 1e4, seed=1), path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv:4: counts must be four finite"):
        read_records(path)

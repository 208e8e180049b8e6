import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import sampling_oracle
from channel_oracle import catalog_states, channel_probabilities, mub_bases
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from report_oracle import fidelities_from_counts, rescale_counts
from stream_steps import next_double, next_uint64
from table_oracle import dump_table

from qclone.cli import COUNTS_MAX
from qclone.cloner import machine_triple
from qclone.detection import (
    CATALOG_ROLES,
    RECORD_COUNT_MAX,
    ROLE_PERP,
    ROLE_PSI,
    EfficiencyPair,
    MeasurementRecord,
    bias_counts,
    ideal_probabilities,
    read_records,
    run_experiment,
    sample_counts,
    write_records,
)
from qclone.labels import BASIS_LABELS, CATALOG_LABELS, ETA_MAX, ETA_MIN, RECORD_FIELDS
from qclone.sampler import POISSON_LAM_MAX, PCG64, seed_sequence_pool, spawned_streams

T_ORACLE = [0.0, *np.linspace(0.05, 0.95, 19), *(np.sqrt(n / 5) for n in range(1, 5)), 1.0]
UNIT = EfficiencyPair(1.0, 1.0)


def test_ideal_probabilities_symmetric():
    probs = ideal_probabilities(0.0, ROLE_PSI)
    np.testing.assert_allclose(probs, [2 / 3, 1 / 6, 1 / 6, 0], atol=1e-15)
    assert probs[3] == 0.0
    assert ideal_probabilities(0.0, ROLE_PERP)[0] == 0.0


def test_ideal_probabilities_identity_channel():
    probs = ideal_probabilities(1.0, ROLE_PSI)
    np.testing.assert_array_equal(probs, [0.5, 0, 0.5, 0])
    np.testing.assert_array_equal(ideal_probabilities(1.0, ROLE_PERP), probs[::-1])


def test_ideal_probabilities_normalized():
    for t in T_ORACLE:
        for role in (ROLE_PSI, ROLE_PERP):
            probs = np.array(ideal_probabilities(t, role))
            assert abs(probs.sum() - 1.0) < 1e-15
            assert probs.min() >= 0


def test_ideal_probabilities_match_machine_diagonal():
    for t in T_ORACLE:
        np.testing.assert_allclose(
            ideal_probabilities(t, ROLE_PSI), machine_triple(t).diagonal(), atol=1e-15
        )


def test_ideal_probabilities_match_channel_oracle():
    # every catalog state through the 4x4 matrix channel and basis rotation
    for t in T_ORACLE:
        for i, psi in enumerate(catalog_states()):
            np.testing.assert_allclose(
                ideal_probabilities(t, CATALOG_ROLES[i]),
                channel_probabilities(psi, mub_bases()[i // 2], t),
                rtol=0, atol=1e-12,
            )


def test_ideal_probabilities_perp_input_flips_indices():
    # the oracle's psi_perp input in each basis: + and - swapped in both blocks
    for t in T_ORACLE:
        for basis in mub_bases():
            np.testing.assert_allclose(
                ideal_probabilities(t, ROLE_PERP),
                channel_probabilities(basis.psi, basis, t)[::-1],
                rtol=0, atol=1e-12,
            )


def test_model_zero_outcomes_are_exact_zeros():
    # an outcome the channel forbids is an exact 0.0, not rounding residue:
    # a positive residue would shift the seeded Poisson draws of the record
    for t in T_ORACLE:
        noiseless = run_experiment(t, EfficiencyPair(1.046, 0.840), 1e4, noiseless=True)
        for i, psi in enumerate(catalog_states()):
            forbidden = channel_probabilities(psi, mub_bases()[i // 2], t) < 1e-12
            assert forbidden.any()
            probs = np.array(ideal_probabilities(t, CATALOG_ROLES[i]))
            assert np.all(probs[forbidden] == 0.0), (t, i)
            assert np.all(np.array(noiseless[i].counts)[forbidden] == 0.0), (t, i)


def test_ideal_probabilities_rejects_unknown_role():
    with pytest.raises(ValueError, match="unknown role 'phi'"):
        ideal_probabilities(0.5, "phi")


@pytest.mark.parametrize("t", [-0.1, 1.5, float("nan")])
def test_ideal_probabilities_rejects_t_out_of_range(t):
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        ideal_probabilities(t, ROLE_PSI)


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


@given(
    arrays(np.float64, 4, elements=st.just(0.0) | st.floats(1e-300, 1.0)),
    st.floats(ETA_MIN, ETA_MAX),
    st.floats(ETA_MIN, ETA_MAX),
    st.floats(1e-3, 1e15),
)
def test_rescale_inverts_bias_property(p, eta_a, eta_b, n):
    eta = EfficiencyPair(eta_a, eta_b)
    back = rescale_counts(bias_counts(p, eta, n), eta)
    np.testing.assert_allclose(back, eta_a * eta_b * n * p, rtol=1e-12, atol=0)


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


# the largest Poisson rate a run can ask for: the perp-role C-- at eta = 5
LAM_AT_COUNTS_MAX = bias_counts(ideal_probabilities(0.0, ROLE_PERP), EfficiencyPair(5.0, 5.0),
                                COUNTS_MAX)[3]
# seeds of one, two, three, five, six, 21 and 64 32-bit words; from five
# words on, the pool and the children hash with constants past the end of the
# table built at import
WIDE_SEEDS = [0, 1, 911, 12345, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 3, 2**128 + 7, 2**150 - 1,
              2**160 + 3, 3**420, 2**2048 - 1]


@pytest.mark.parametrize("seed", WIDE_SEEDS)
def test_seed_sequence_pool_equals_numpy(seed):
    for key in [(), (0,), (5,), (3, 2**40)]:
        pool = np.random.SeedSequence(seed, spawn_key=key).pool.tolist()
        assert seed_sequence_pool(seed, key) == pool, key


@pytest.mark.parametrize("seed", WIDE_SEEDS)
def test_pcg64_words_equal_numpy(seed):
    expected = np.random.PCG64(seed).random_raw(1000).tolist()
    stream = PCG64(seed_sequence_pool(seed))
    assert [next_uint64(stream) for _ in range(1000)] == expected
    streams = spawned_streams(seed, 12)
    assert len(streams) == 12
    for stream, child in zip(streams, np.random.SeedSequence(seed).spawn(12)):
        expected = np.random.PCG64(child).random_raw(1000).tolist()
        assert [next_uint64(stream) for _ in range(1000)] == expected
    doubles = np.random.Generator(np.random.PCG64(seed)).random(100).tolist()
    stream = PCG64(seed_sequence_pool(seed))
    assert [next_double(stream) for _ in range(100)] == doubles


# rates at the sampler's switches: zero, the smallest subnormal, the double
# below 10 (multiplication method) and 10 (PTRS), and the cap's largest rate
PINNED_RATES = [0.0, 5e-324, 9.999999999999998, 10.0, LAM_AT_COUNTS_MAX, POISSON_LAM_MAX]


@pytest.mark.parametrize("lam", PINNED_RATES)
def test_sample_counts_equal_numpy_at_the_switches(lam):
    for seed in [*range(200), 2**32 + 1, 2**64 + 1]:
        rates = [lam, 10.0, lam, 3.5]
        expected = tuple(sampling_oracle.sample_counts(rates, seed).tolist())
        assert sample_counts(rates, seed) == expected


def test_sampler_vector_digests_equal_numpy():
    # the digests of data/sampler_vectors.json, which pin qclone's own
    # stream, are those of numpy's draws too
    vectors = json.loads((Path(__file__).parent / "data" / "sampler_vectors.json").read_text())
    for case in vectors["poisson"]:
        draws = sampling_oracle.sample_counts([case["lam"]] * vectors["digest_draws"], case["seed"])
        text = ",".join(map(repr, draws.tolist()))
        assert hashlib.sha256(text.encode()).hexdigest() == case["sha256"], case


@settings(deadline=None)
@given(
    st.lists(st.just(0.0) | st.floats(0.0, 10.0) | st.floats(10.0, 1e3)
             | st.floats(0.0, 16.0).map(lambda e: 10.0**e), min_size=1, max_size=8),
    st.integers(0, 2**140),
)
def test_sample_counts_equal_numpy(rates, seed):
    assert sample_counts(rates, seed) == tuple(sampling_oracle.sample_counts(rates, seed).tolist())


@settings(deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.2, 5.0),
    st.floats(0.2, 5.0),
    st.floats(1.0, COUNTS_MAX) | st.floats(0.0, 15.0).map(lambda e: 10.0**e),
    st.integers(0, 2**140),
    st.booleans(),
)
@example(0.0, 5.0, 5.0, COUNTS_MAX, 2**32, False)
@example(1.0, 0.2, 0.2, 1.0, 2**64, False)
@example(0.5, 1.046, 0.84, 1e5, 12345, True)
def test_run_experiment_equals_numpy(t, eta_a, eta_b, counts, seed, noiseless):
    eta = EfficiencyPair(eta_a, eta_b)
    expected = sampling_oracle.run_experiment(t, eta, counts, seed=seed, noiseless=noiseless)
    assert run_experiment(t, eta, counts, seed=seed, noiseless=noiseless) == expected


@pytest.mark.parametrize("lam", [-1.0, -5e-324, math.nan, math.nextafter(POISSON_LAM_MAX, math.inf),
                                 math.inf])
def test_sample_counts_rejects_what_numpy_rejects(lam):
    with pytest.raises(ValueError, match="lam"):
        np.random.default_rng(1).poisson([1.0, lam])
    with pytest.raises(ValueError, match="lam"):
        sample_counts([1.0, lam], 1)


def test_negative_seed_is_rejected_as_numpy_does():
    with pytest.raises(ValueError, match="non-negative"):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match="non-negative"):
        sample_counts([1.0], -1)
    for noiseless in (False, True):
        with pytest.raises(ValueError, match="non-negative"):
            run_experiment(0.5, UNIT, 1e3, seed=-1, noiseless=noiseless)


# run_experiment's error for each malformed input: (t, eta, counts, seed),
# the error type, and its message when drawn and when noiseless.  eta is
# checked first, then the seed, then t, then the counts.
RUN_EXPERIMENT_ERRORS = [
    ((1.5, UNIT, 1e3, 0), ValueError, "t = 1.5 outside [0, 1]", None),
    ((math.nan, UNIT, 1e3, 0), ValueError, "t = nan outside [0, 1]", None),
    ((0.5, (9, 1), 1e3, 0), ValueError, "eta_a = 9 outside plausible range [0.2, 5.0]", None),
    ((0.5, (1, 9), 1e3, 0), ValueError, "eta_b = 9 outside plausible range [0.2, 5.0]", None),
    ((1.5, (9, 1), 1e3, -1), ValueError, "eta_a = 9 outside plausible range [0.2, 5.0]", None),
    ((0.5, UNIT, 0.0, 0), ValueError, "overall rate must be positive", None),
    ((1.5, UNIT, 0.0, 0), ValueError, "t = 1.5 outside [0, 1]", None),
    ((0.5, UNIT, math.nan, 0), ValueError, "lam value too large",
     "counts must be four finite nonnegative numbers"),
    ((0.5, UNIT, math.inf, 0), ValueError, "lam value too large",
     "counts must be four finite nonnegative numbers"),
    ((0.5, UNIT, 1e300, 0), ValueError, "lam value too large",
     "count 6.15385e+299 above the cap 1e+150"),
    ((0.5, UNIT, 1e3, -1), ValueError, "expected non-negative integer", None),
    ((0.5, UNIT, 1e3, 1.5), TypeError, "'float' object cannot be interpreted as an integer", None),
    ((1.5, UNIT, 1e3, -1), ValueError, "expected non-negative integer", None),
]


@pytest.mark.parametrize("noiseless", [False, True])
@pytest.mark.parametrize("args, error, drawn, noiseless_message", RUN_EXPERIMENT_ERRORS)
def test_run_experiment_errors_keep_type_and_message(args, error, drawn, noiseless_message,
                                                     noiseless):
    t, eta, counts, seed = args
    message = (noiseless and noiseless_message) or drawn
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        run_experiment(t, eta, counts, seed=seed, noiseless=noiseless)


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


def test_record_is_immutable_and_equal_by_value():
    rec = MeasurementRecord(0.5, "H", "HV", ROLE_PSI, np.array([1, 2, 3, 4]))
    assert rec.counts == (1.0, 2.0, 3.0, 4.0)
    assert all(type(c) is float for c in rec.counts)
    assert rec == MeasurementRecord(0.5, "H", "HV", ROLE_PSI, [1.0, 2.0, 3.0, 4.0])
    assert rec != MeasurementRecord(0.5, "H", "HV", ROLE_PSI, [1.0, 2.0, 3.0, 5.0])
    assert hash(rec) == hash(MeasurementRecord(0.5, "H", "HV", ROLE_PSI, (1, 2, 3, 4)))
    for name, value in (("t", 0.6), ("counts", (0.0, 0.0, 0.0, 1.0)), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
    assert rec.t == 0.5 and rec.counts == (1.0, 2.0, 3.0, 4.0)
    # a copy with a field replaced is validated like a new record
    with pytest.raises(ValueError, match="outside"):
        rec._replace(t=1.5)


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


def _record(t, state, counts):
    return MeasurementRecord(t, CATALOG_LABELS[state], BASIS_LABELS[state // 2],
                             CATALOG_ROLES[state], counts)


RECORDS = st.lists(
    st.builds(
        _record,
        st.floats(0.0, 1.0),
        st.integers(0, len(CATALOG_LABELS) - 1),
        st.lists(st.floats(0.0, RECORD_COUNT_MAX) | st.integers(0, 10**15).map(float),
                 min_size=4, max_size=4),
    ),
    max_size=12,
)


def _oracle_record_file(records) -> str:
    """A record file as the value-by-value table oracle writes it."""
    fh = io.StringIO()
    rows = [(rec.t, rec.state_label, rec.basis_label, rec.role, *rec.counts) for rec in records]
    dump_table(RECORD_FIELDS, rows, fh, "csv", None)
    return fh.getvalue()


@settings(deadline=None)
@given(RECORDS)
def test_write_read_records_round_trip(tmp_path_factory, records):
    # a record file keeps 12 significant digits, so compare the formatted lines
    path = tmp_path_factory.mktemp("records") / "records.csv"
    write_records(records, path)
    assert _oracle_record_file(read_records(path)) == _oracle_record_file(records)


def test_write_records_matches_oracle(tmp_path):
    # noisy and noiseless groups, and the counts and t that %.12g writes in
    # exponent notation
    eta = EfficiencyPair(1.046, 0.84)
    records = [
        *run_experiment(0.3, eta, 1e4, seed=7),
        *run_experiment(1e-05, eta, 1e4, seed=8, noiseless=True),
        *(_record(t, state, counts) for t, state, counts in (
            (1e-05, 0, [0.0, 5e-324, 1e150, 5.0]),
            (1.0, 3, [1e150, 0.0, 5e-324, 0.0]),
            (0.0, 5, [0.0, 0.0, 0.0, 0.0]),
        )),
    ]
    path = tmp_path / "records.csv"
    write_records(iter(records), path)
    assert path.read_bytes() == _oracle_record_file(records).encode()
    assert "1e-05,H,HV,psi,0,4.94065645841e-324,1e+150,5\n" in path.read_text()


def _read_records_per_field(path):
    """A record file reader `read_records` must agree with, written line by
    line: the field count, every count then t through float(), and the
    record through `MeasurementRecord`."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("t,state"):
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise ValueError(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
            try:
                counts = tuple(float(x) for x in parts[4:])
                records.append(MeasurementRecord(float(parts[0]), *parts[1:4], counts))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return records


def _read_outcome(read, path):
    """The records a reader returns, as text that tells -0.0 from 0.0, or
    the message of its ValueError."""
    try:
        records = read(path)
    except ValueError as exc:
        return f"ValueError: {exc}"
    assert all(type(rec) is MeasurementRecord for rec in records)
    return [repr(tuple(rec)) for rec in records]


def _record_fields(t, state, counts):
    return [repr(t), CATALOG_LABELS[state], BASIS_LABELS[state // 2], CATALOG_ROLES[state],
            *map(repr, counts)]


VALID_FIELDS = st.builds(
    _record_fields,
    st.floats(0.0, 1.0),
    st.integers(0, len(CATALOG_LABELS) - 1),
    st.lists(st.floats(0.0, RECORD_COUNT_MAX) | st.sampled_from([-0.0, 0.0, RECORD_COUNT_MAX]),
             min_size=4, max_size=4),
)
NOT_A_NUMBER = st.sampled_from(["", "abc", "1e", "0x1", "--1"])
BAD_T = (st.floats().filter(lambda t: not 0.0 <= t <= 1.0).map(repr)
         | st.sampled_from(["nan", "-inf", "1.0000000001"]) | NOT_A_NUMBER)
BAD_COUNT = (
    st.floats(max_value=-5e-324).map(repr)
    | st.floats(min_value=math.nextafter(RECORD_COUNT_MAX, math.inf)).map(repr)
    | st.sampled_from(["inf", "nan", "-nan", "1e151"]) | NOT_A_NUMBER
)
UNKNOWN_STATE = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                      blacklist_characters=","), max_size=3).filter(
    lambda s: s not in CATALOG_LABELS)


@st.composite
def mutated_lines(draw):
    """A valid record line with one field mutated: an unknown state, another
    state's basis, the other role, a bad t or count, or 7 or 9 fields."""
    fields = draw(VALID_FIELDS)
    state = CATALOG_LABELS.index(fields[1])
    kind = draw(st.sampled_from(["state", "basis", "role", "t", "count", "fields"]))
    if kind == "state":
        fields[1] = draw(UNKNOWN_STATE)
    elif kind == "basis":
        fields[2] = draw(st.sampled_from([b for b in BASIS_LABELS if b != fields[2]]))
    elif kind == "role":
        fields[3] = ROLE_PERP if CATALOG_ROLES[state] == ROLE_PSI else ROLE_PSI
    elif kind == "t":
        fields[0] = draw(BAD_T)
    elif kind == "count":
        fields[draw(st.integers(4, 7))] = draw(BAD_COUNT)
    elif draw(st.booleans()):
        del fields[draw(st.integers(0, 7))]
    else:
        fields.insert(draw(st.integers(0, 8)), draw(VALID_FIELDS)[4])
    return ",".join(fields)


@settings(deadline=None, max_examples=300)
@given(st.lists(VALID_FIELDS.map(",".join), max_size=6), st.none() | mutated_lines(),
       st.integers(0, 6), st.booleans())
@example([], "0.5,H,HV,psi,1,2,3", 0, False)
@example(["0.5,H,HV,psi,1,2,3,4"], "0.5,H,HV,psi,1,nan,3,4", 1, True)
@example([], "0.5,V,HV,psi,1,2,3,4", 0, False)
@example([], "0.5,H,DA,psi,1,2,3,4", 0, False)
@example([], "0.5,X,HV,psi,abc,2,3,4", 0, False)
@example([], "nan,H,HV,psi,1,2,3,1e151", 0, False)
def test_read_records_agrees_with_the_per_field_checks(tmp_path_factory, valid, bad, at, header):
    # read_records accepts exactly the lines the line-by-line reader
    # accepts, reads the same records and words a bad line's error alike,
    # with its line number
    lines = list(valid)
    if bad is not None:
        lines.insert(min(at, len(lines)), bad)
    if header:
        lines.insert(0, ",".join(RECORD_FIELDS))
    path = tmp_path_factory.mktemp("records") / "records.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = _read_outcome(_read_records_per_field, path)
    assert _read_outcome(read_records, path) == expected
    assert isinstance(expected, str) == (bad is not None)


def _number(field):
    """The float a field reads as, or None where float() does not read it."""
    try:
        return float(field)
    except ValueError:
        return None


@st.composite
def record_arguments(draw):
    """The kind of mutation and the arguments `read_records` passes to
    `MeasurementRecord` (t a float, the counts strings): of a valid record,
    or with one field mutated: an unknown state, another state's basis, the
    other role, a bad t or count, or three or five counts."""
    t, state, basis, role, *counts = draw(VALID_FIELDS)
    kind = draw(st.sampled_from([None, "state", "basis", "role", "t", "count", "length"]))
    if kind == "state":
        state = draw(UNKNOWN_STATE)
    elif kind == "basis":
        basis = draw(st.sampled_from([b for b in BASIS_LABELS if b != basis]))
    elif kind == "role":
        role = ROLE_PERP if role == ROLE_PSI else ROLE_PSI
    elif kind == "t":
        t = draw(BAD_T)
    elif kind == "count":
        counts[draw(st.integers(0, 3))] = draw(BAD_COUNT)
    elif kind == "length" and draw(st.booleans()):
        del counts[draw(st.integers(0, 3))]
    elif kind == "length":
        counts.insert(draw(st.integers(0, 4)), draw(VALID_FIELDS)[4])
    # a t that float() does not read never reaches the constructor
    assume(_number(t) is not None)
    return kind, (float(t), state, basis, role, counts)


def _is_record(t, state, basis, role, counts):
    """A catalog state in its basis and role, 0 <= t <= 1, and four counts,
    each a number in [0, RECORD_COUNT_MAX]."""
    if state not in CATALOG_LABELS:
        return False
    index = CATALOG_LABELS.index(state)
    values = [_number(c) for c in counts]
    return (basis == BASIS_LABELS[index // 2] and role == CATALOG_ROLES[index]
            and 0.0 <= t <= 1.0 and len(values) == 4
            and all(v is not None and 0.0 <= v <= RECORD_COUNT_MAX for v in values))


def _rejection(kind, t, state, basis, role, counts):
    """The message that names the field a mutation of `kind` made bad."""
    if kind == "state":
        return f"unknown state {state!r}"
    index = CATALOG_LABELS.index(state)
    if kind == "basis":
        return f"state {state} belongs to basis {BASIS_LABELS[index // 2]}, got {basis}"
    if kind == "role":
        return f"state {state} has role {CATALOG_ROLES[index]}, got {role}"
    if kind == "t":
        return f"t = {t} outside [0, 1]"
    values = [_number(c) for c in counts]
    if None in values:
        return f"could not convert string to float: {counts[values.index(None)]!r}"
    if len(values) == 4 and all(0.0 <= v < math.inf for v in values):
        return f"count {max(values):g} above the cap {RECORD_COUNT_MAX:g}"
    return "counts must be four finite nonnegative numbers"


@settings(deadline=None, max_examples=300)
@given(record_arguments())
@example((None, (0.0, "H", "HV", ROLE_PSI, ["0", "-0.0", repr(RECORD_COUNT_MAX), "5e-324"])))
@example(("count", (1.0, "L", "RL", ROLE_PERP, ["1", "2", "nan", "1e151"])))
@example(("count", (0.5, "H", "HV", ROLE_PSI, ["1", "2", "3", repr(math.nextafter(1e150, 2e150))])))
@example(("length", (0.5, "D", "DA", ROLE_PSI, ["1", "2", "3"])))
def test_record_constructor_accepts_exactly_the_records_its_checks_pass(case):
    # construction succeeds exactly on a record as the test states it, and
    # a rejection names the one bad field; the last check, the cap, never
    # names a record whose counts are within it
    kind, args = case
    assert _is_record(*args) == (kind is None)
    try:
        record = MeasurementRecord(*args)
    except ValueError as exc:
        assert kind is not None
        assert str(exc) == _rejection(kind, *args)
        if "above the cap" in str(exc):
            assert max(map(float, args[4])) > RECORD_COUNT_MAX
    else:
        assert kind is None
        assert tuple(record) == (*args[:4], tuple(map(float, args[4])))


def test_write_records_failure_keeps_target(tmp_path):
    out = tmp_path / "records.csv"
    out.write_text("old records\n")
    recs = run_experiment(0.5, UNIT, 1e4, seed=1)

    def failing():  # the second record fails after the first is written
        yield recs[0]
        raise RuntimeError("cannot format")

    with pytest.raises(RuntimeError, match="cannot format"):
        write_records(failing(), out)
    assert out.read_text() == "old records\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


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


def test_record_count_cap():
    # the largest rate simulate draws from, at COUNTS_MAX and eta = 5, lies
    # far below the cap; a count at the cap is a count, one above it is not
    eta = EfficiencyPair(ETA_MAX, ETA_MAX)
    largest = max(max(bias_counts(ideal_probabilities(t, role), eta, COUNTS_MAX))
                  for t in (0.0, 0.5, 1.0) for role in (ROLE_PSI, ROLE_PERP))
    assert 2.0 * largest < RECORD_COUNT_MAX
    MeasurementRecord(0.5, "H", "HV", ROLE_PSI, [RECORD_COUNT_MAX, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="above the cap 1e"):
        above = math.nextafter(RECORD_COUNT_MAX, math.inf)
        MeasurementRecord(0.5, "H", "HV", ROLE_PSI, [1.0, above, 0.0, 0.0])


def test_read_records_names_the_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    write_records(run_experiment(0.5, UNIT, 1e4, seed=1), path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv:4: counts must be four finite"):
        read_records(path)

"""The seeded sampler against its known-answer vectors, without numpy.

`data/sampler_vectors.json` was generated once from qclone's
standard-library sampler, when it drew bit for bit what numpy 2.4's
`SeedSequence`, `PCG64` and `Generator.poisson` draw.  The seeded record
files are defined by these vectors: a change that moves any of them changes
every seeded run, whatever a later numpy draws.
"""

import hashlib
import json
from pathlib import Path

from qclone.sampler import PCG64, sample_counts, seed_sequence_pool, spawned_streams

VECTORS = json.loads((Path(__file__).parent / "data" / "sampler_vectors.json").read_text())


def test_seed_sequence_pools_equal_the_vectors():
    for case in VECTORS["seed_sequence_pool"]:
        assert seed_sequence_pool(case["entropy"], tuple(case["spawn_key"])) == case["pool"], case


def test_pcg64_words_equal_the_vectors():
    for case in VECTORS["pcg64_words"]:
        if case["child"] is None:
            stream = PCG64(seed_sequence_pool(case["seed"]))
        else:
            stream = spawned_streams(case["seed"], case["child"] + 1)[case["child"]]
        assert [stream.next_uint64() for _ in case["words"]] == case["words"], case


def draws_digest(draws) -> str:
    """sha256 of draws as text: each repr, comma-joined."""
    return hashlib.sha256(",".join(map(repr, draws)).encode()).hexdigest()


def test_poisson_draws_equal_the_vectors():
    # both branches of the sampler (multiplication below 10, PTRS from 10)
    # and the largest rate it accepts; the digest of the first digest_draws
    # draws catches a changed PTRS constant that the first eight miss
    # (us >= 0.07, us < 0.013 and lam + 0.43 each moved by 0.001 or 0.01)
    rates = {case["lam"] for case in VECTORS["poisson"]}
    assert {0.0, 9.999, 10.0, max(rates)} <= rates
    for case in VECTORS["poisson"]:
        draws = sample_counts([case["lam"]] * VECTORS["digest_draws"], case["seed"])
        assert list(draws[:len(case["draws"])]) == case["draws"], case
        assert draws_digest(draws) == case["sha256"], case

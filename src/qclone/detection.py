"""Coincidence detection model: ideal click probabilities, efficiency bias,
Poisson shot noise and the six-state fidelity report.

Counts are four floats ordered (C++, C+-, C-+, C--): first index is the
detector in block A, second in block B.  Within each analysis basis the "+"
detectors project onto the basis's psi-role state (H, D or R) and the "-"
detectors onto its perp-role state (V, A or L), for both input roles.

This module imports nothing but the standard library.  The Poisson
sampler, a port of numpy's seeded stream, is `qclone.sampler`; only a draw
loads it, so reading records compiles none of it.
"""

import math
import operator
from typing import Iterable, NamedTuple, Sequence

# defined in labels; callers may import them from here too
from .labels import (
    BASIS_LABELS,
    CATALOG_LABELS,
    CATALOG_ROLES,
    RECORD_FIELDS,
    RECORD_SHAPES,
    ROLE_PERP,
    ROLE_PSI,
    STATE_COLUMNS,
    EfficiencyPair,
    Shaped,
    dump_table,
    write_atomic,
)


# The largest count a record may hold.  The count-ratio calibration sums a
# state's four counts, and a report rescales a count by up to
# eta_a * eta_b = 25 and sums four, so every sum stays finite; `simulate`
# writes counts of about 1.7e16 at most (COUNTS_MAX = 1e15 counts at eta = 5).
RECORD_COUNT_MAX = 1e150


class _RecordFields(NamedTuple):
    t: float
    state_label: str
    basis_label: str
    role: str  # ROLE_PSI or ROLE_PERP
    counts: tuple[float, float, float, float]


class MeasurementRecord(_RecordFields):
    """One measurement setting: input state, analysis basis and the four counts.

    Immutable and equal by value; the counts are kept as a tuple of floats.
    """

    __slots__ = ()

    def __new__(cls, t, state_label, basis_label, role, counts):
        if role not in (ROLE_PSI, ROLE_PERP):
            raise ValueError(f"unknown role {role!r}")
        if state_label not in CATALOG_LABELS:
            raise ValueError(f"unknown state {state_label!r}")
        index = CATALOG_LABELS.index(state_label)
        expected_role = CATALOG_ROLES[index]
        if role != expected_role:
            raise ValueError(f"state {state_label} has role {expected_role}, got {role}")
        # the catalog pairs each basis's two states: H,V in HV, D,A in DA, R,L in RL
        expected_basis = BASIS_LABELS[index // 2]
        if basis_label != expected_basis:
            raise ValueError(
                f"state {state_label} belongs to basis {expected_basis}, got {basis_label}"
            )
        # the chained comparisons are false for nan as well
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t = {t} outside [0, 1]")
        counts = tuple(map(float, counts))
        if len(counts) != 4 or not all(0.0 <= c < math.inf for c in counts):
            raise ValueError("counts must be four finite nonnegative numbers")
        if max(counts) > RECORD_COUNT_MAX:
            raise ValueError(f"count {max(counts):g} above the cap {RECORD_COUNT_MAX:g}")
        return tuple.__new__(cls, (t, state_label, basis_label, role, counts))

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through here; it validates as the constructor does
        return cls(*iterable)


def ideal_probabilities(t: float, role: str) -> tuple[float, float, float, float]:
    """Unit-efficiency coincidence probabilities (p++, p+-, p-+, p--).

    The cloner is covariant, so in every analysis basis they depend on t
    alone: (4, (1-t)^2, (1+t)^2, 0) / (2(3+t^2)) for the basis state psi,
    reversed for psi_perp.  The outcome the model forbids is an exact zero.
    """
    if role not in (ROLE_PSI, ROLE_PERP):
        raise ValueError(f"unknown role {role!r}")
    if not 0.0 <= t <= 1.0:  # false for nan as well
        raise ValueError(f"t = {t} outside [0, 1]")
    minus, plus = 1.0 - t, 1.0 + t
    norm = 2.0 * (3.0 + t * t)
    probs = (4.0 / norm, minus * minus / norm, plus * plus / norm, 0.0)
    return probs if role == ROLE_PSI else probs[::-1]


def bias_counts(probs: Sequence[float], eta: EfficiencyPair, rate: float) -> tuple[float, ...]:
    """Expected coincidence rates seen by miscalibrated detectors.

    A "-" click in block A scales by eta_a, in block B by eta_b.
    """
    if rate <= 0:
        raise ValueError("overall rate must be positive")
    ea, eb = eta
    return tuple(rate * p * s for p, s in zip(probs, (1.0, eb, ea, ea * eb)))


def sample_counts(expected: Iterable[float], seed) -> tuple[float, ...]:
    """Poisson-distributed integer counts around the expected rates, as
    ``np.random.default_rng(seed).poisson(expected)`` draws them:
    `sampler.sample_counts`, loaded by the first draw.

    ``seed`` is a nonnegative int or a `sampler.PCG64` stream, which the
    draws advance.  A rate above `sampler.POISSON_LAM_MAX`, negative or nan
    raises ValueError before anything is drawn.
    """
    from . import sampler

    return sampler.sample_counts(expected, seed)


def run_experiment(
    t: float,
    eta: EfficiencyPair,
    counts_per_setting: float,
    seed: int = 0,
    noiseless: bool = False,
) -> list[MeasurementRecord]:
    """Simulate the full six-state protocol at one asymmetry setting.

    For each of the three analysis bases, both basis states are cloned with
    the detector assignment held fixed.  Returns six records in catalog order
    (H, V, D, A, R, L).  State i draws its counts from child i of
    ``np.random.SeedSequence(seed)``.
    """
    eta = EfficiencyPair(*eta)
    eta.validate()
    if noiseless:
        # nothing is drawn, so no stream is spawned; the seed is still one
        # the sampler would take
        if operator.index(seed) < 0:
            raise ValueError("expected non-negative integer")
    else:
        from .sampler import draw, poisson_plan, spawned_streams

        streams = spawned_streams(seed, len(CATALOG_LABELS))
    # the psi role's probabilities check t; the perp role's are their reverse
    probs = ideal_probabilities(t, ROLE_PSI)
    expected = {ROLE_PSI: bias_counts(probs, eta, counts_per_setting),
                ROLE_PERP: bias_counts(probs[::-1], eta, counts_per_setting)}
    if noiseless:
        return [MeasurementRecord(t, *columns, expected[columns[2]]) for columns in STATE_COLUMNS]
    # each role's rates are checked, and their sampler constants computed, once;
    # a draw is a valid count
    plans = {role: poisson_plan(counts) for role, counts in expected.items()}
    return [tuple.__new__(MeasurementRecord, (t, *columns, draw(stream, plans[columns[2]])))
            for columns, stream in zip(STATE_COLUMNS, streams)]


# --- six-state report ------------------------------------------------------------


class NoDataError(ValueError):
    """A record carries zero total counts; fidelities are undefined."""


class FidelityReport(NamedTuple):
    """Per-state clone fidelities with their six-state means and variances."""

    per_state: list[tuple[float, float]]  # (f_A, f_B) in catalog order
    mean_a: float
    mean_b: float
    variance_a: float
    variance_b: float


def _moments(f: list[float]) -> tuple[float, float]:
    """Mean and population (divide-by-n) variance of f, in centered form:
    the mean-of-squares expression loses everything below ~1e-16 to
    cancellation.  Each sum runs in order from 0.0, as numpy sums six
    values; the builtin sum of Python 3.12 and later compensates its
    rounding."""
    total = 0.0
    for v in f:
        total += v
    mean = total / len(f)
    total = 0.0
    for v in f:
        total += (v - mean) * (v - mean)
    return mean, total / len(f)


def six_state_report(
    counts: Sequence[Sequence[float]], eta: EfficiencyPair | None = None
) -> FidelityReport:
    """Fidelity report of one six-state group: its counts, four per state in
    catalog order, rescaled first by the efficiencies eta when given.
    """
    if eta is not None:
        ea, eb = eta
        eab = ea * eb
        counts = [(c_pp * eab, c_pm * ea, c_mp * eb, c_mm) for c_pp, c_pm, c_mp, c_mm in counts]
    f_a, f_b = [], []
    for (c_pp, c_pm, c_mp, c_mm), role in zip(counts, CATALOG_ROLES):
        total = c_pp + c_pm + c_mp + c_mm
        if total <= 0:
            raise NoDataError("all four coincidence counts are zero")
        if role == ROLE_PSI:
            f_a.append((c_pp + c_pm) / total)
            f_b.append((c_pp + c_mp) / total)
        else:
            f_a.append((c_mm + c_mp) / total)
            f_b.append((c_mm + c_pm) / total)
    mean_a, variance_a = _moments(f_a)
    mean_b, variance_b = _moments(f_b)
    return FidelityReport(list(zip(f_a, f_b)), mean_a, mean_b, variance_a, variance_b)


# --- record file I/O -------------------------------------------------------
# One record per line, in the order of RECORD_FIELDS


# The (state, basis, role) triples a record may hold.
_CATALOG_TRIPLES = frozenset(STATE_COLUMNS)


def write_records(records: Iterable[MeasurementRecord], path) -> None:
    """Atomically write a record file, streamed one record per line: the CSV
    table of RECORD_FIELDS whose rows have the shapes RECORD_SHAPES."""
    rows = Shaped(RECORD_SHAPES, ((rec.state_label, (rec.t, *rec.counts)) for rec in records))
    write_atomic(path, lambda fh: dump_table(RECORD_FIELDS, rows, fh, "csv"))


def read_records(path) -> list[MeasurementRecord]:
    """The records of a record file, in file order.

    Raises ValueError naming ``path:lineno`` at the first line that is not a
    valid record.  A line is split once; a known (state, basis, role) triple,
    t in [0, 1] and four counts in [0, RECORD_COUNT_MAX] make its record
    without `MeasurementRecord`'s per-field checks, which word the error of
    any other line.
    """
    header = ",".join(RECORD_FIELDS[:2])
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith(header):
                continue
            parts = line.split(",")
            if len(parts) == 8 and (parts[1], parts[2], parts[3]) in _CATALOG_TRIPLES:
                try:
                    t, c_pp, c_pm, c_mp, c_mm = map(float, (parts[0], *parts[4:]))
                except ValueError:
                    pass
                else:
                    # the chained comparisons are false for nan as well
                    if (0.0 <= t <= 1.0 and 0.0 <= c_pp <= RECORD_COUNT_MAX
                            and 0.0 <= c_pm <= RECORD_COUNT_MAX
                            and 0.0 <= c_mp <= RECORD_COUNT_MAX
                            and 0.0 <= c_mm <= RECORD_COUNT_MAX):
                        records.append(tuple.__new__(MeasurementRecord, (
                            t, parts[1], parts[2], parts[3], (c_pp, c_pm, c_mp, c_mm))))
                        continue
            # not a valid record: the per-field checks word what is wrong
            try:
                if len(parts) != 8:
                    raise ValueError(f"expected 8 fields, got {len(parts)}")
                counts = tuple(float(x) for x in parts[4:])
                records.append(MeasurementRecord(float(parts[0]), *parts[1:4], counts))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return records

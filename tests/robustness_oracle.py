"""The vectorized numpy robustness sweep: the test oracle of
`qclone.robustness.sweep_blocks` and of the per-point robustness functions.

Each function broadcasts over numpy arrays of mismatches and gives, element
by element, what the per-point function of `qclone.robustness` gives for one
point; the eigenvalue bound is numpy's `eigvalsh`.  `sweep_rows` evaluates
the whole (eps_a, eps_b) grid in one call per column.
"""

from __future__ import annotations

import numpy as np

from qclone.labels import EfficiencyPair
from qclone.robustness import taylor_form, taylor_form_b


def max_eigenvalue(form) -> float:
    m = np.array([[form.coeff_aa, form.coeff_ab / 2.0], [form.coeff_ab / 2.0, form.coeff_bb]])
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def eta_from_mismatch(eps_a, eps_b) -> EfficiencyPair:
    if np.any(np.asarray(eps_a) <= -1.0) or np.any(np.asarray(eps_b) <= -1.0):
        raise ValueError("mismatch must be > -1")
    return EfficiencyPair(1.0 + eps_a, 1.0 + eps_b)


def biased_fidelity_psi(machine, eta):
    fa, fb, p = machine
    ea, eb = eta
    num = p + (fa - p) * eb
    den = num + (fb - p) * ea + (1.0 + p - fa - fb) * ea * eb
    return num / den


def biased_fidelity_psi_perp(machine, eta):
    fa, fb, p = machine
    ea, eb = eta
    num = p * ea * eb + (fa - p) * ea
    den = num + (fb - p) * eb + 1.0 + p - fa - fb
    den = np.where(den == 0.0, num + (fb - p) * eb + (1.0 + p - fa - fb), den)
    return num / den


def biased_mean(machine, eta):
    return 0.5 * (biased_fidelity_psi(machine, eta) + biased_fidelity_psi_perp(machine, eta))


def biased_mean_b(machine, eta):
    return biased_mean(machine.swapped(), EfficiencyPair(eta.eta_b, eta.eta_a))


def evaluate(form, eps_a, eps_b):
    return (
        form.coeff_aa * (eps_a * eps_a)
        + form.coeff_ab * eps_a * eps_b
        + form.coeff_bb * (eps_b * eps_b)
    )


def error_bound(form, eps_a, eps_b):
    return max_eigenvalue(form) * (eps_a * eps_a + eps_b * eps_b)


def sweep_rows(machine, eps_max: float, eps_points: int) -> list[tuple]:
    """The robustness table rows, eps_a outer and eps_b inner, as Python floats."""
    form_a, form_b = taylor_form(machine), taylor_form_b(machine)
    eps = np.linspace(-eps_max, eps_max, eps_points)
    ea, eb = (g.ravel() for g in np.meshgrid(eps, eps, indexing="ij"))
    eta = eta_from_mismatch(ea, eb)
    columns = (
        ea, eb,
        biased_mean(machine, eta) - machine.fid_a,
        evaluate(form_a, ea, eb),
        error_bound(form_a, ea, eb),
        biased_mean_b(machine, eta) - machine.fid_b,
        evaluate(form_b, ea, eb),
        error_bound(form_b, ea, eb),
    )
    return list(zip(*(c.tolist() for c in columns)))

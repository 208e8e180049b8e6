"""Closed-form analysis of detector-miscalibration bias on clone fidelities.

All formulas are exact for any covariant machine (fid_a, fid_b, p); the
quadratic expansion and eigenvalue bound quantify how weakly the basis-mean
fidelity depends on the efficiency mismatch.

The formulas broadcast: the mismatches (and the efficiencies built from
them) may be floats or numpy arrays of any common shape, and an array call
gives, element by element, exactly the floats of the scalar calls.  Squares
are written as products because ``x**2`` on a Python float calls the C
``pow``, which is not always correctly rounded, while numpy squares arrays
by multiplication.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cloner import MachineTriple
from .detection import EfficiencyPair


class QuadraticErrorForm(NamedTuple):
    """Second-order coefficients of the mean-fidelity error in the mismatches.

    error ~ coeff_aa*eps_a^2 + coeff_ab*eps_a*eps_b + coeff_bb*eps_b^2
    """

    coeff_aa: float
    coeff_ab: float
    coeff_bb: float

    def evaluate(self, eps_a, eps_b):
        return (
            self.coeff_aa * (eps_a * eps_a)
            + self.coeff_ab * eps_a * eps_b
            + self.coeff_bb * (eps_b * eps_b)
        )

    def max_eigenvalue(self) -> float:
        """Largest-magnitude eigenvalue of the symmetric form matrix."""
        m = np.array(
            [[self.coeff_aa, self.coeff_ab / 2.0], [self.coeff_ab / 2.0, self.coeff_bb]]
        )
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def eta_from_mismatch(eps_a, eps_b) -> EfficiencyPair:
    if np.any(np.asarray(eps_a) <= -1.0) or np.any(np.asarray(eps_b) <= -1.0):
        raise ValueError("mismatch must be > -1")
    return EfficiencyPair(1.0 + eps_a, 1.0 + eps_b)


def biased_fidelity_psi(machine: MachineTriple, eta: EfficiencyPair) -> float:
    """Exact clone-A fidelity read off miscalibrated counts, input = basis state."""
    fa, fb, p = machine
    ea, eb = eta
    num = p + (fa - p) * eb
    den = num + (fb - p) * ea + (1.0 + p - fa - fb) * ea * eb
    return num / den


def biased_fidelity_psi_perp(machine: MachineTriple, eta: EfficiencyPair) -> float:
    """Same, for the orthogonal input with the detector assignment unchanged."""
    fa, fb, p = machine
    ea, eb = eta
    num = p * ea * eb + (fa - p) * ea
    den = num + (fb - p) * eb + 1.0 + p - fa - fb
    # den is a sum of nonnegative terms, but 1.0 is added before p - fa - fb
    # cancels it, so terms below 1e-16 (an efficiency near 0) can round den
    # to 0; only there is the constant term grouped first, which leaves
    # every other value bit for bit as it was
    den = np.where(den == 0.0, num + (fb - p) * eb + (1.0 + p - fa - fb), den)
    return num / den


def biased_mean(machine: MachineTriple, eta: EfficiencyPair) -> float:
    """Mean of the two in-basis biased fidelities; linear mismatch terms cancel."""
    return 0.5 * (
        biased_fidelity_psi(machine, eta) + biased_fidelity_psi_perp(machine, eta)
    )


def taylor_form(machine: MachineTriple) -> QuadraticErrorForm:
    """Quadratic expansion of biased_mean - fid_a in the mismatches."""
    fa, fb, p = machine
    return QuadraticErrorForm(
        coeff_aa=0.5 * fa * (1.0 - fa) * (1.0 - 2.0 * fa),
        coeff_ab=(2.0 * fa - 1.0) * (fa * fb - p),
        coeff_bb=0.5 * (p - fa * fb) * (1.0 - 2.0 * fb),
    )


def error_bound(form: QuadraticErrorForm, eps_a, eps_b):
    """Rigorous bound |quadratic error| <= lambda_max * (eps_a^2 + eps_b^2)."""
    return form.max_eigenvalue() * (eps_a * eps_a + eps_b * eps_b)


def biased_mean_b(machine: MachineTriple, eta: EfficiencyPair) -> float:
    """Clone-B analogue of biased_mean (clone and detector labels interchanged)."""
    return biased_mean(machine.swapped(), EfficiencyPair(eta.eta_b, eta.eta_a))


def taylor_form_b(machine: MachineTriple) -> QuadraticErrorForm:
    """Clone-B quadratic form; note its coefficients are in (eps_b, eps_a) order
    of the swapped labels, returned here re-expressed in (eps_a, eps_b)."""
    form = taylor_form(machine.swapped())
    return QuadraticErrorForm(form.coeff_bb, form.coeff_ab, form.coeff_aa)

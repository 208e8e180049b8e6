"""Closed-form analysis of detector-miscalibration bias on clone fidelities.

All formulas are exact for any covariant machine (fid_a, fid_b, p); the
quadratic expansion and eigenvalue bound quantify how weakly the basis-mean
fidelity depends on the efficiency mismatch.

Everything here is float arithmetic on the standard library; the module
imports no numpy.  The functions take one mismatch pair at a time.
`sweep_blocks` computes a whole (eps_a, eps_b) grid, a block of columns per
eps_a: it repeats the operations of the per-point functions in their order,
so every value is exactly the float of the per-point call.  Squares are
written as products because ``x**2`` on a Python float calls the C ``pow``,
which is not always correctly rounded.  The tests check the sweep bit for
bit against the vectorized numpy sweep of `tests/robustness_oracle.py`.

No command calls the per-point functions (`eta_from_mismatch`,
`biased_fidelity_psi`, `biased_fidelity_psi_perp`, `biased_mean`,
`biased_mean_b`, `QuadraticErrorForm.evaluate` and `error_bound`).  They
stay here as the documented definitions of the bias model, which the README
cites and `sweep_blocks` restates; the benchmark's tracer also wraps five of
them by name, so they cannot move to the tests while it does.
"""

import math
from typing import Iterator, NamedTuple

from .labels import EfficiencyPair, MachineTriple
from .tables import linspace


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
        """Largest-magnitude eigenvalue of the symmetric form matrix
        [[a, b], [b, c]], b = coeff_ab / 2: its spectral radius
        |a + c| / 2 + hypot((a - c) / 2, b), in closed form."""
        a, c = self.coeff_aa, self.coeff_bb
        return 0.5 * abs(a + c) + math.hypot(0.5 * (a - c), self.coeff_ab / 2.0)


def eta_from_mismatch(eps_a: float, eps_b: float) -> EfficiencyPair:
    if eps_a <= -1.0 or eps_b <= -1.0:
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
    if den == 0.0:
        den = num + (fb - p) * eb + (1.0 + p - fa - fb)
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


def sweep_blocks(
    machine: MachineTriple, eps_max: float, eps_points: int
) -> tuple[list, Iterator[tuple]]:
    """The robustness table over the grid of mismatches
    ``eps = linspace(-eps_max, eps_max, eps_points)`` on each axis, as
    ``(eps, blocks)``.  Block i holds the columns (exact_a, quad_a, bound_a,
    exact_b, quad_b, bound_b) at eps_a = eps[i], each over eps_b = eps:
    exact is the biased mean minus the clone's fidelity, quad the quadratic
    form and bound the eigenvalue bound.  The blocks are computed as they
    are read.

    Each value is what `biased_mean`, `biased_mean_b`, `evaluate` and
    `error_bound` give for that point, bit for bit: the columns perform
    their operations in their order, with the terms that depend on one
    mismatch alone computed once.
    """
    eps = linspace(-eps_max, eps_max, eps_points)
    if eps and eps[0] <= -1.0:
        raise ValueError("mismatch must be > -1")
    fa, fb, p = machine
    fa_p, fb_p = fa - p, fb - p
    rest_a, rest_b = 1.0 + p - fa - fb, 1.0 + p - fb - fa  # the fourth diagonal entry
    form_a, form_b = taylor_form(machine), taylor_form_b(machine)
    aa_a, ab_a, bb_a = form_a
    aa_b, ab_b, bb_b = form_b
    lam_a, lam_b = form_a.max_eigenvalue(), form_b.max_eigenvalue()
    # per mismatch: its efficiency, its square and the terms of the biased
    # fidelities and quadratic forms that depend on it alone
    xs, sqs = [1.0 + e for e in eps], [e * e for e in eps]
    fa_p_x, fb_p_x, p_x, rest_b_x = ([c * x for x in xs] for c in (fa_p, fb_p, p, rest_b))
    num_a_psi = [p + v for v in fa_p_x]
    bb_a_sq, bb_b_sq = [bb_a * v for v in sqs], [bb_b * v for v in sqs]

    def block(ea, xa, sq_a, fa_p_xa, fb_p_xa):
        rest_a_xa, p_xa, num_b_psi = rest_a * xa, p * xa, p + fb_p_xa
        quad_a_aa, quad_a_ab, quad_b_aa, quad_b_ab = aa_a * sq_a, ab_a * ea, aa_b * sq_a, ab_b * ea
        sq = [sq_a + v for v in sqs]
        # exact_a and exact_b: `biased_fidelity_psi` and
        # `biased_fidelity_psi_perp` at (xa, xb), clone B's with the clone
        # labels and efficiencies interchanged; `x or y` takes the grouped
        # denominator y where x rounds to 0, as `biased_fidelity_psi_perp` does
        return (
            [0.5 * (num / (num + fb_p_xa + rest_a_xa * xb)
                    + (perp := p_xa * xb + fa_p_xa)
                    / (perp + fb_p_xb + 1.0 + p - fa - fb or perp + fb_p_xb + rest_a)) - fa
             for xb, num, fb_p_xb in zip(xs, num_a_psi, fb_p_x)],
            [quad_a_aa + quad_a_ab * eb + quad_a_bb for eb, quad_a_bb in zip(eps, bb_a_sq)],
            [lam_a * v for v in sq],
            [0.5 * (num_b_psi / (num_b_psi + fa_p_xb + rest_b_xb * xa)
                    + (perp := p_xb * xa + fb_p_xb)
                    / (perp + fa_p_xa + 1.0 + p - fb - fa or perp + fa_p_xa + rest_b)) - fb
             for fa_p_xb, fb_p_xb, p_xb, rest_b_xb in zip(fa_p_x, fb_p_x, p_x, rest_b_x)],
            [quad_b_aa + quad_b_ab * eb + quad_b_bb for eb, quad_b_bb in zip(eps, bb_b_sq)],
            [lam_b * v for v in sq],
        )

    return eps, map(block, eps, xs, sqs, fa_p_x, fb_p_x)

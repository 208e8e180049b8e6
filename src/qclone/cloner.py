"""Partial-symmetrization cloning channel and its closed-form results.

The channel attenuates the antisymmetric (singlet) component of the joint
state of a maximally mixed blank copy (arm A) and the signal (arm B) by an
amplitude factor t, then post-selects on coincidence.  Clone A is the
blank-copy arm, clone B the signal arm; for t > 0 clone B is the better one.

The closed forms are float arithmetic, and the commands use them alone.
The matrix channel (`symmetrizer`, `apply_cloner`) imports numpy, when
called: it is the tests' oracle of the closed forms (the reduced clone
states are `tests/channel_oracle.py`'s), and stays here only because the
benchmark's tracer looks up `apply_cloner` by name.
"""

from typing import TYPE_CHECKING

from .labels import MachineTriple

if TYPE_CHECKING:
    import numpy as np


def _check_t(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmittance t must be in [0, 1], got {t}")


def symmetrizer(t: float) -> "np.ndarray":
    """The filtration operator I - (1 - t)|singlet><singlet| (eigenvalues 1,1,1,t)."""
    import numpy as np

    from .states import SINGLET, projector

    _check_t(t)
    return np.eye(4, dtype=complex) - (1.0 - t) * projector(SINGLET)


def apply_cloner(psi: "np.ndarray", t: float) -> "tuple[np.ndarray, float]":
    """Run the channel on input ket psi.

    Returns the unnormalized post-selected two-clone state (arm A first) and
    the success probability (its trace).
    """
    import numpy as np

    from .states import projector, tensor

    _check_t(t)
    vs = symmetrizer(t)
    rho_in = tensor(0.5 * np.eye(2, dtype=complex), projector(psi))
    rho_out = vs @ rho_in @ vs.conj().T
    return rho_out, float(np.trace(rho_out).real)


def clone_fidelities(t: float) -> tuple[float, float]:
    """Closed-form clone fidelities (F_A, F_B) as a function of the asymmetry t."""
    _check_t(t)
    denom = 2.0 * (3.0 + t * t)
    return (5.0 - 2.0 * t + t * t) / denom, (5.0 + 2.0 * t + t * t) / denom


def tradeoff_residual(fid_a: float, fid_b: float) -> float:
    """Deviation from the optimal asymmetric-cloning trade-off curve.

    Zero iff (fid_a, fid_b) is an optimal pair:
    (1 - F_A)(1 - F_B) = (F_A + F_B - 3/2)^2.
    """
    return (1.0 - fid_a) * (1.0 - fid_b) - (fid_a + fid_b - 1.5) ** 2


def success_probability(t: float) -> float:
    """Coincidence post-selection probability (3 + t^2)/4."""
    _check_t(t)
    return (3.0 + t * t) / 4.0


def machine_triple(t: float) -> MachineTriple:
    """Covariant-machine parameters of the optimal cloner at asymmetry t."""
    fid_a, fid_b = clone_fidelities(t)
    return MachineTriple(fid_a, fid_b, 2.0 / (3.0 + t * t))

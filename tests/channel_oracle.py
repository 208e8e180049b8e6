"""The general matrix channel, the oracle the closed forms are tested
against: the six catalog kets and the three analysis bases, partial traces,
fidelities, the reduced clone states of `cloner.apply_cloner`, and the
coincidence probabilities that `detection.ideal_probabilities` must equal.

Pure states are length-2 complex arrays (amplitudes of H and V); density
matrices are plain 2x2 / 4x4 complex arrays in the (HH, HV, VH, VV)
ordering of `qclone.states`, first letter = arm A.
"""

from typing import NamedTuple

import numpy as np

from qclone.cloner import apply_cloner
from qclone.states import tensor

ATOL = 1e-12
EIG_ATOL = 1e-10

_S2 = 1.0 / np.sqrt(2.0)

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_D = np.array([_S2, _S2], dtype=complex)
KET_A = np.array([_S2, -_S2], dtype=complex)
KET_R = np.array([_S2, 1j * _S2], dtype=complex)
KET_L = np.array([_S2, -1j * _S2], dtype=complex)


class BasisPair(NamedTuple):
    """An orthonormal analysis basis (psi, psi_perp)."""

    psi: np.ndarray
    psi_perp: np.ndarray


def catalog_states() -> list[np.ndarray]:
    """The six preparation states H, V, D, A, R, L, in that order."""
    return [KET_H, KET_V, KET_D, KET_A, KET_R, KET_L]


def mub_bases() -> list[BasisPair]:
    """The three mutually unbiased analysis bases (H,V), (D,A), (R,L)."""
    return [
        BasisPair(KET_H, KET_V),
        BasisPair(KET_D, KET_A),
        BasisPair(KET_R, KET_L),
    ]


def orthogonal_state(psi: np.ndarray) -> np.ndarray:
    """The (unique up to phase) state orthogonal to a one-qubit ket."""
    return np.array([-psi[1].conj(), psi[0].conj()])


def check_density(rho: np.ndarray, normalized: bool = True) -> None:
    """Validate Hermiticity, positivity and (optionally) unit trace.

    Raises ValueError on violation.  Post-selected states may carry trace < 1;
    pass normalized=False for those.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > ATOL:
        raise ValueError("density matrix is not Hermitian")
    ev = np.linalg.eigvalsh(rho)
    if ev.min() < -EIG_ATOL:
        raise ValueError(f"density matrix has negative eigenvalue {ev.min()}")
    tr = float(np.trace(rho).real)
    if normalized and abs(tr - 1.0) > ATOL:
        raise ValueError(f"density matrix trace {tr} != 1")


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduce a 4x4 two-qubit matrix to the kept arm ("A" or "B").

    Trace is preserved; no normalization is applied.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected 4x4 matrix, got shape {rho.shape}")
    m = rho.reshape(2, 2, 2, 2)  # indices: (rowA, rowB, colA, colB)
    if keep == "A":
        return np.einsum("abcb->ac", m)
    if keep == "B":
        return np.einsum("abac->bc", m)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Overlap <target|rho|target> of a normalized 2x2 state with a pure ket."""
    rho = np.asarray(rho)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > ATOL:
        raise ValueError(f"fidelity requires a normalized state, trace = {tr}")
    val = complex(np.vdot(target, rho @ target))
    return float(val.real)


def clone_states(psi: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized reduced states of the two clones for input ket psi."""
    rho_out, prob = apply_cloner(psi, t)
    rho_a = partial_trace(rho_out, "A") / prob
    rho_b = partial_trace(rho_out, "B") / prob
    return rho_a, rho_b


def channel_probabilities(psi_in: np.ndarray, basis: BasisPair, t: float) -> np.ndarray:
    """(p++, p+-, p-+, p--) of input ket psi_in analysed in `basis`: the
    diagonal of the normalized two-clone state in the basis-aligned product
    basis, "+" projecting onto basis.psi and "-" onto basis.psi_perp."""
    rho_out, prob = apply_cloner(psi_in, t)
    q = np.column_stack([basis.psi, basis.psi_perp])
    u = tensor(q, q)
    return np.diag(u.conj().T @ (rho_out / prob) @ u).real

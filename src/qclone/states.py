"""One- and two-qubit polarization states: kets, density matrices, products, reductions.

Pure states are length-2 complex arrays (amplitudes of H and V).  Density
matrices are plain 2x2 / 4x4 complex arrays.  The two-qubit basis ordering is
fixed once and for all as (HH, HV, VH, VV), first letter = arm A.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# defined in labels; callers may import them from here too
from .labels import BASIS_LABELS, CATALOG_LABELS

ATOL = 1e-12
EIG_ATOL = 1e-10

_S2 = 1.0 / np.sqrt(2.0)

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_D = np.array([_S2, _S2], dtype=complex)
KET_A = np.array([_S2, -_S2], dtype=complex)
KET_R = np.array([_S2, 1j * _S2], dtype=complex)
KET_L = np.array([_S2, -1j * _S2], dtype=complex)

#: singlet (|HV> - |VH>)/sqrt(2) in the fixed (HH,HV,VH,VV) ordering
SINGLET = np.array([0.0, _S2, -_S2, 0.0], dtype=complex)


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


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-one projector |psi><psi|."""
    return np.outer(psi, psi.conj())


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


def tensor(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Kronecker product in the fixed (HH,HV,VH,VV) ordering, arm A first."""
    return np.kron(left, right)


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

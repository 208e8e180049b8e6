"""Coincidence probabilities from the general matrix channel, the oracle the
closed-form `detection.ideal_probabilities` is tested against."""

import numpy as np

from qclone.cloner import apply_cloner
from qclone.states import BasisPair, tensor


def channel_probabilities(psi_in: np.ndarray, basis: BasisPair, t: float) -> np.ndarray:
    """(p++, p+-, p-+, p--) of input ket psi_in analysed in `basis`: the
    diagonal of the normalized two-clone state in the basis-aligned product
    basis, "+" projecting onto basis.psi and "-" onto basis.psi_perp."""
    rho_out, prob = apply_cloner(psi_in, t)
    q = np.column_stack([basis.psi, basis.psi_perp])
    u = tensor(q, q)
    return np.diag(u.conj().T @ (rho_out / prob) @ u).real

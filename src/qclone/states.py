"""Two-qubit products for the matrix channel of `qclone.cloner`; needs numpy.

Kets are length-2 complex arrays (amplitudes of H and V), and density
matrices plain 2x2 / 4x4 complex arrays.  The two-qubit basis ordering is
fixed once and for all as (HH, HV, VH, VV), first letter = arm A.  No
command loads this module: the tests' kets, bases, partial trace and
fidelity are in `tests/channel_oracle.py`.
"""

import numpy as np

_S2 = 1.0 / np.sqrt(2.0)

#: singlet (|HV> - |VH>)/sqrt(2) in the fixed (HH,HV,VH,VV) ordering
SINGLET = np.array([0.0, _S2, -_S2, 0.0], dtype=complex)


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-one projector |psi><psi|."""
    return np.outer(psi, psi.conj())


def tensor(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Kronecker product in the fixed (HH,HV,VH,VV) ordering, arm A first."""
    return np.kron(left, right)

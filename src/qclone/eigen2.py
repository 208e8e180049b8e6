"""Eigenvalues of a symmetric 2x2 matrix as LAPACK computes them.

The robustness bound (`robustness.QuadraticErrorForm.max_eigenvalue`) and
the calibration descent (`estimation.minimize`) both use them; kept apart
from both, so that `calibrate` does not load `robustness`.
"""

import math

# LAPACK's eps (dlamch) and the scaling thresholds that dsyevd and dsterf
# derive from it and from the safe minimum 2**-1022
_EPS = 2.0**-53
_RMIN, _RMAX = 2.0**-485, 2.0**485  # dsyevd: sqrt(safmin / (2 eps)), its inverse
_SSFMIN = 2.0**-405  # dsterf: sqrt(safmin) / eps**2


def _dlae2(a: float, b: float, c: float) -> tuple[float, float]:
    """Eigenvalues of [[a, b], [b, c]], as LAPACK's dlae2 computes them."""
    sm, adf, ab = a + c, abs(a - c), abs(b + b)
    acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
    if adf > ab:
        ratio = ab / adf
        rt = adf * math.sqrt(1.0 + ratio * ratio)
    elif adf < ab:
        ratio = adf / ab
        rt = ab * math.sqrt(1.0 + ratio * ratio)
    else:
        rt = ab * math.sqrt(2.0)
    if sm == 0.0:
        return 0.5 * rt, -0.5 * rt
    rt1 = 0.5 * (sm - rt) if sm < 0.0 else 0.5 * (sm + rt)
    return rt1, (acmx / rt1) * acmn - (b / rt1) * b


def _eigvalsh2(a: float, b: float, c: float) -> tuple[float, float]:
    """Eigenvalues of the finite symmetric [[a, b], [b, c]], computed as
    ``np.linalg.eigvalsh`` computes them: LAPACK's dsyevd scales the matrix
    into range and hands it to dsterf, which returns the diagonal where the
    off-diagonal entry is negligible and otherwise calls dlae2, on a matrix
    scaled up once more if it is below 2**-405.  (dsterf's scaling of a
    matrix above 2**511 / 3 cannot follow dsyevd's.)"""
    norm = max(abs(a), abs(b), abs(c))
    sigma = _RMIN / norm if 0.0 < norm < _RMIN else _RMAX / norm if norm > _RMAX else 1.0
    a, b, c = a * sigma, b * sigma, c * sigma
    if abs(b) <= math.sqrt(abs(a)) * math.sqrt(abs(c)) * _EPS:
        w = (a, c)
    else:
        norm = max(abs(a), abs(b), abs(c))
        mul = _SSFMIN / norm if norm < _SSFMIN else 1.0
        a, b, c = a * mul, b * mul, c * mul
        b2 = b * b
        w = (a, c) if b2 <= _EPS * _EPS * abs(a * c) else _dlae2(a, math.sqrt(b2), c)
        if mul != 1.0:
            w = (w[0] * (norm / _SSFMIN), w[1] * (norm / _SSFMIN))
    if sigma != 1.0:
        w = (w[0] * (1.0 / sigma), w[1] * (1.0 / sigma))
    return w

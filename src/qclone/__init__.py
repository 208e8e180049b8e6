"""Optimal universal asymmetric 1->2 qubit cloning by partial symmetrization:
exact model, coincidence-counting simulation, detector calibration and
miscalibration robustness analysis.

Import names from the submodules (`qclone.cli`, `qclone.labels`,
`qclone.cloner`, `qclone.detection`, `qclone.sampler`, `qclone.estimation`,
`qclone.robustness`); the package itself loads none of them.  They run on
the standard library alone.  Only the matrix channel, the tests' oracle
(`cloner.apply_cloner` and `qclone.states`), needs numpy, a test
dependency.
"""

__version__ = "0.1.0"

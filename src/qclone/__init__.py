"""Optimal universal asymmetric 1->2 qubit cloning by partial symmetrization:
exact model, coincidence-counting simulation, detector calibration and
miscalibration robustness analysis.

Import names from the submodules (`qclone.cloner`, `qclone.detection`,
`qclone.estimation`, `qclone.robustness`, `qclone.states`, `qclone.labels`,
`qclone.cli`); the package itself loads none of them, so `import qclone`
does not load numpy.
"""

__version__ = "0.1.0"

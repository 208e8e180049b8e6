"""Optimal universal asymmetric 1->2 qubit cloning by partial symmetrization:
exact model, coincidence-counting simulation, detector calibration and
miscalibration robustness analysis.

Import names from the submodules (`qclone.cli`, `qclone.labels`,
`qclone.tables`, `qclone.cloner`, `qclone.detection`, `qclone.sampler`,
`qclone.estimation`, `qclone.robustness`); the package itself loads none of
them.  The command line is `qclone.cli`, with one module per table command
in `qclone.commands`.  They run on
the standard library alone.  Only the matrix channel, the tests' oracle
(`cloner.apply_cloner` and `qclone.states`), needs numpy, a test
dependency.
"""

__version__ = "0.1.0"

"""`qclone analytic`: the closed-form fidelities, triple and success
probability of the optimal machine at the given t values and on a 200-point
curve."""

from ..cli import EXIT_OK, RunConfig, write_table
from . import _distinct_files


def run(cfg: RunConfig, config: dict, config_file: str | None) -> int:
    _distinct_files([("--config", config_file)], [("--out", cfg.out)])
    from ..cloner import clone_fidelities, machine_triple, success_probability, tradeoff_residual
    from ..tables import linspace

    rows = []
    for kind, ts in (("grid", cfg.t_values), ("curve", linspace(0.0, 1.0, 200))):
        for t in ts:
            fa, fb = clone_fidelities(t)
            rows.append(
                (kind, (t, fa, fb, machine_triple(t).p, success_probability(t),
                        tradeoff_residual(fa, fb)))
            )
    write_table("analytic", rows, cfg.out, cfg.format, config)
    return EXIT_OK

"""`qclone robustness`: the miscalibration bias of the mean fidelities of one
machine, the optimal one at a single t or an explicit triple, over a square
grid of efficiency mismatches, with its quadratic form and bound."""

from ..cli import EXIT_OK, ConfigError, RunConfig, note, write_table
from ..labels import MachineTriple
from . import _distinct_files


def _machine_from_config(cfg: RunConfig) -> MachineTriple:
    if cfg.triple is not None and len(cfg.triple) != 3:
        raise ConfigError("--triple needs three comma-separated values f_a,f_b,p")
    if cfg.triple is None and len(cfg.t_values) != 1:
        raise ConfigError("robustness needs a single --t value or an explicit --triple")
    if cfg.triple is None:
        from ..cloner import machine_triple

        return machine_triple(cfg.t_values[0])
    m = MachineTriple(*cfg.triple)
    try:
        m.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    return m


def run(cfg: RunConfig, config: dict, config_file: str | None) -> int:
    _distinct_files([("--config", config_file)], [("--out", cfg.out)])
    m = _machine_from_config(cfg)
    from ..robustness import sweep_blocks, taylor_form, taylor_form_b

    for clone, form in (("A", taylor_form(m)), ("B", taylor_form_b(m))):
        note(
            f"# clone {clone} quadratic coefficients: "
            f"{form.coeff_aa:.12g}, {form.coeff_ab:.12g}, {form.coeff_bb:.12g}; "
            f"bound factor {form.max_eigenvalue():.12g}"
        )
    rows = sweep_blocks(m, cfg.eps_max, cfg.eps_points)
    write_table("robustness", rows, cfg.out, cfg.format, config)
    return EXIT_OK

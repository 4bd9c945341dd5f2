"""Parallel experiment sweeps: grids of seeded runs across processes.

See :mod:`repro.sweep.runner` for the execution model and
:mod:`repro.sweep.grids` for the shipped E1/E2/E5 grids.  CLI entry:
``python -m repro sweep --grid e2 --workers 4``.
"""

from repro._exports import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "grids": ("GRIDS", "build_grid", "smoke_grid"),
    "runner": ("SCHEMA_ID", "Task", "deterministic_view", "run_sweep", "task_seed"),
})

"""Experiment drivers: one module per table/figure of the paper's evaluation.

Every driver exposes a ``run_*`` function returning a small result object
with the rows/series the corresponding paper artifact reports, plus a
``format_*`` helper producing a plain-text table.  Drivers that train
models accept ``scale="ci"`` (default: minutes on a laptop) or
``scale="paper"`` (Table-1-sized problems).  The analytic hardware
experiments (Figures 5-6, Tables 2-3) are cheap at any scale.

See DESIGN.md section 4 for the experiment index.
"""

from repro.experiments.base import ExperimentResult, format_table
from repro.experiments.fig5_execution_time import run_figure5, format_figure5
from repro.experiments.fig6_energy import run_figure6, format_figure6
from repro.experiments.table2_area_power import run_table2, format_table2
from repro.experiments.table3_accelerators import run_table3, format_table3
from repro.experiments.fig7_logprob import run_figure7, format_figure7
from repro.experiments.table4_accuracy import run_table4, format_table4
from repro.experiments.fig8_noise import run_figure8, format_figure8
from repro.experiments.fig9_mae_noise import run_figure9, format_figure9
from repro.experiments.fig10_roc_noise import run_figure10, format_figure10
from repro.experiments.fig11_bias_kl import run_figure11, format_figure11

__all__ = [
    "ExperimentResult",
    "format_table",
    "run_figure5",
    "format_figure5",
    "run_figure6",
    "format_figure6",
    "run_table2",
    "format_table2",
    "run_table3",
    "format_table3",
    "run_figure7",
    "format_figure7",
    "run_table4",
    "format_table4",
    "run_figure8",
    "format_figure8",
    "run_figure9",
    "format_figure9",
    "run_figure10",
    "format_figure10",
    "run_figure11",
    "format_figure11",
]

"""Experiment harness: standardized runners for every table and figure."""

from repro.harness.analysis import accuracy_at_time
from repro.harness.breakdown import breakdown_row, render_table3, Table3Row
from repro.harness.experiment import ExperimentSpec, run_method, run_methods
from repro.harness.plots import ascii_plot
from repro.harness.results import result_to_dict, results_from_json, results_to_json
from repro.harness.sweeps import best_point, grid_sweep, SweepPoint
from repro.harness.tables import render_table1, render_table2, render_table4

__all__ = [
    "ExperimentSpec",
    "run_method",
    "run_methods",
    "Table3Row",
    "breakdown_row",
    "render_table3",
    "render_table1",
    "render_table2",
    "render_table4",
    "result_to_dict",
    "results_to_json",
    "results_from_json",
    "SweepPoint",
    "grid_sweep",
    "best_point",
    "ascii_plot",
    "accuracy_at_time",
]

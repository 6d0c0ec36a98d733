"""Shared figure constants for the ``benchmarks/bench_fig*.py`` regenerators.

Each figure bench runs its own training loop through
:func:`repro.harness.experiment.run_method`; this module holds what they
share: Figure 6's method pairs, Figure 8's lineup, and Figure 8's
log10-error y-axis.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["FIG6_PAIRS", "FIG8_METHODS", "log10_error_series"]

#: Figure 6's four panels: (our method, existing counterpart).
FIG6_PAIRS = (
    ("async-easgd", "async-sgd"),  # 6.1
    ("async-measgd", "async-msgd"),  # 6.2
    ("hogwild-easgd", "hogwild-sgd"),  # 6.3
    ("sync-easgd3", "original-easgd"),  # 6.4
)

#: Figure 8's full lineup (existing + ours).
FIG8_METHODS = (
    "original-easgd",
    "async-sgd",
    "async-msgd",
    "hogwild-sgd",
    "async-easgd",
    "async-measgd",
    "hogwild-easgd",
    "sync-easgd3",
)


def log10_error_series(
    series: Dict[str, Tuple[np.ndarray, np.ndarray]], floor: float = 1e-3
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Figure 8's y-axis: log10 of the error rate (1 - accuracy), floored."""
    out = {}
    for name, (times, accs) in series.items():
        err = np.maximum(1.0 - accs, floor)
        out[name] = (times, np.log10(err))
    return out

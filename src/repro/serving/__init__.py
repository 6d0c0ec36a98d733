"""Parameter-server serving tier: inference from live center weights.

The production half of the paper's story — training keeps running while
this package answers inference traffic from the freshest center weights:

- :mod:`repro.serving.snapshot` — :class:`ModelSnapshotter` publishes
  packed center weights into a seqlock-guarded double buffer;
  :class:`SnapshotReader` pulls torn-free, staleness-tagged copies.
- :mod:`repro.serving.frontend` — the threaded request front-end: adaptive
  micro-batching and staleness-bounded weight refresh.
- :mod:`repro.serving.loadgen` — Poisson and on/off-bursty arrival
  processes with open- and closed-loop drivers.
- :mod:`repro.serving.session` — :func:`serve_while_training`, the one
  protocol that trains in a thread while a front-end serves load from
  the snapshots it publishes.

See ``docs/serving.md`` for the architecture and staleness semantics.
"""

from repro.serving.frontend import ServedRequest, ServeStats, ServingFrontend
from repro.serving.loadgen import (
    ClosedLoopLoadGen,
    OpenLoopLoadGen,
    onoff_arrivals,
    poisson_arrivals,
)
from repro.serving.session import serve_while_training
from repro.serving.snapshot import ModelSnapshotter, SnapshotReader

__all__ = [
    "ModelSnapshotter",
    "SnapshotReader",
    "ServingFrontend",
    "ServedRequest",
    "ServeStats",
    "poisson_arrivals",
    "onoff_arrivals",
    "OpenLoopLoadGen",
    "ClosedLoopLoadGen",
    "serve_while_training",
]

"""Async EASGD over the rank runtimes: the import path of its entry point.

The rank-runtime twin of the simulated ``async-easgd`` method is that
row of :data:`repro.engine.ps.PS_FAMILIES` run by the one asynchronous
rank program in :mod:`repro.algorithms.ps_runner`, where it is defined: the
workers take round-robin turns at a center in the cell's shared arena,
and no rank is a master.
"""

from repro.algorithms.ps_runner import run_mpi_async_easgd

__all__ = ["run_mpi_async_easgd"]

"""Async EASGD over the rank runtimes: the import path of its entry point.

The message-passing twin of :class:`repro.algorithms.async_ps
.AsyncEASGDTrainer` is the ``async-easgd`` row of
:data:`repro.engine.ps.PS_FAMILIES` run by the one asynchronous rank
program in :mod:`repro.algorithms.ps_runner`, where it is defined.
"""

from repro.algorithms.ps_runner import run_mpi_async_easgd

__all__ = ["run_mpi_async_easgd"]

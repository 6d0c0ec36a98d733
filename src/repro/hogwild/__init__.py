"""Real shared-memory Hogwild (substrate S7).

The DES trainers in :mod:`repro.algorithms.async_ps` *model* lock-free
master service; this package *implements* it: workers (Python threads
or forked processes) update one shared center through the same
:data:`repro.engine.ps.PS_FAMILIES` row the simulator reads, lock-free
or behind the master's lock as the row says. Used to demonstrate that
the lock-free Hogwild EASGD update rule converges on real concurrent
hardware, per the paper's convergence claim (Section 5.1 and the proof
appendix).
"""

from repro.hogwild.threads import HOGWILD_METHODS, HogwildResult, HogwildRunner

__all__ = ["HOGWILD_METHODS", "HogwildRunner", "HogwildResult"]

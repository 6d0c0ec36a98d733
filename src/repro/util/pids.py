"""Whether a process id still names a running process."""

from __future__ import annotations

import os

__all__ = ["pid_alive"]


def pid_alive(pid: int) -> bool:
    """True while ``pid`` names a process, this user's or another's.

    Signal 0 probes without sending anything: ``ProcessLookupError``
    means no such process, ``PermissionError`` a live one of another uid.
    Names stamped with a pid (shm segments, staged checkpoint files) are
    debris once this turns False.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign uid, but alive
        return True
    return True

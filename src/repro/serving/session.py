"""Serving during training: :func:`serve_while_training` is the one copy
of the protocol, behind ``repro serve``, the serving bench and the tests.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Tuple

from repro.serving.frontend import ServingFrontend
from repro.serving.snapshot import ModelSnapshotter

__all__ = ["serve_while_training"]


def serve_while_training(
    train: Callable[[ModelSnapshotter], Any],
    snapshotter: ModelSnapshotter,
    frontend: ServingFrontend,
    load: Callable[[ServingFrontend], List[Any]],
) -> Tuple[Any, List[Any]]:
    """Run ``train(snapshotter)`` in a thread while ``frontend`` serves
    ``load(frontend)`` from the snapshots it publishes — EASGD's center
    as an always-available read point, under the front-end's
    staleness-bounded reads.

    The front-end starts at the first publish.  If training ends first,
    its error (or a ``RuntimeError`` if it published nothing) is raised
    and the front-end never starts.  However the load ends, the
    front-end is stopped and the thread joined; a training error is then
    re-raised.  Returns ``(train's result, the finished requests)``.
    """
    outcome: dict = {}

    def train_main() -> None:
        try:
            outcome["result"] = train(snapshotter)
        except BaseException as exc:  # ferried to the caller's thread
            outcome["error"] = exc

    thread = threading.Thread(target=train_main, name="training")
    thread.start()
    try:
        while snapshotter.buffer.version == 0 and thread.is_alive():
            time.sleep(0.001)
        if "error" in outcome or snapshotter.buffer.version == 0:
            raise outcome.get("error") or RuntimeError(
                "training ended before its first snapshot publish")
        frontend.start()
        try:
            finished = load(frontend)
        finally:
            frontend.stop()
    finally:
        thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"], finished

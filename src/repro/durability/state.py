"""Capture/restore helpers for hidden stochastic state.

Packed parameters cover most of a network, but two kinds of state live
outside the parameter vector and still influence the forward pass:

- per-layer dropout RNG positions (each :class:`~repro.nn.regularization.
  Dropout` owns an independent generator whose position advances every
  training-mode forward);
- batch-norm running statistics (EMA buffers updated in training mode,
  read at inference — i.e. at every evaluation snapshot).

A resume that restored only the packed weights would silently diverge on
any model using either layer. These helpers walk ``Network.layers``, and
the inner layers of every block (``ResidualBlock``'s batch norms,
``InceptionBlock``'s branches), and round-trip that hidden state as plain
picklable dicts keyed by layer index + name (``"3:res1/b1:bn1"`` for an
inner layer), so a structural change shows up as a hard error instead of
a silent misassignment.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Tuple

import numpy as np

__all__ = [
    "network_stochastic_state",
    "restore_network_stochastic_state",
    "platform_jitter_state",
    "restore_platform_jitter_state",
]


def _keyed_layers(
    layers: Iterable[Tuple[Any, Any]], parent: str = ""
) -> Iterator[Tuple[str, Any]]:
    """Every layer with its state key, the inner layers of blocks included."""
    for tag, layer in layers:
        key = f"{parent}{tag}:{layer.name}"
        yield key, layer
        yield from _keyed_layers(getattr(layer, "sublayers", tuple)(), key + "/")


def network_stochastic_state(net: Any) -> Dict[str, Any]:
    """Collect dropout RNG positions and batch-norm running stats."""
    state: Dict[str, Any] = {}
    for key, layer in _keyed_layers(enumerate(net.layers)):
        entry: Dict[str, Any] = {}
        rng = getattr(layer, "_rng", None)
        if rng is not None and hasattr(rng, "bit_generator"):
            entry["rng"] = rng.bit_generator.state
        if getattr(layer, "running_mean", None) is not None:
            entry["running_mean"] = np.array(layer.running_mean, copy=True)
            entry["running_var"] = np.array(layer.running_var, copy=True)
        if entry:
            state[key] = entry
    return state


def restore_network_stochastic_state(net: Any, state: Dict[str, Any]) -> None:
    """Inverse of :func:`network_stochastic_state`.

    Raises ``KeyError`` if the captured state names a layer the network
    does not have — a structure change between save and resume, which
    the fingerprint check should already have caught.
    """
    by_key = dict(_keyed_layers(enumerate(net.layers)))
    for key, entry in state.items():
        layer = by_key[key]
        if "rng" in entry:
            layer._rng.bit_generator.state = entry["rng"]
        if "running_mean" in entry:
            layer.running_mean[:] = entry["running_mean"]
            layer.running_var[:] = entry["running_var"]


def platform_jitter_state(platform: Any) -> Dict[int, Any]:
    """Positions of the platform's per-worker compute-jitter streams.

    The streams are created lazily on first use, so the captured dict
    holds exactly the workers that have drawn — re-running the same
    steps recreates the same population. Sorted for stable serialization.
    """
    jitters = getattr(platform, "_jitters", None)
    if not jitters:
        return {}
    return {int(w): j.getstate() for w, j in sorted(jitters.items())}


def restore_platform_jitter_state(platform: Any, state: Dict[int, Any]) -> None:
    """Inverse of :func:`platform_jitter_state` (streams re-created on demand)."""
    for worker, st in state.items():
        platform.jitter_for(int(worker)).setstate(st)

"""Message plans: packed single-buffer vs per-layer communication (Sec 5.2).

Current deep-learning systems "allocate noncontiguous memory for different
layers... and conduct multiple rounds of communication for different layers";
the paper instead packs all layers into one contiguous buffer and sends one
message. A :class:`MessagePlan` is the list of message sizes one model
exchange requires; its cost on a link follows directly from alpha-beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.comm.alphabeta import LinkModel

__all__ = ["MessagePlan", "packed_plan", "per_layer_plan"]


@dataclass(frozen=True)
class MessagePlan:
    """A sequence of message sizes implementing one weight exchange."""

    name: str
    sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("a message plan needs at least one message")
        if any(s < 0 for s in self.sizes):
            raise ValueError("message sizes must be non-negative")

    @property
    def total_bytes(self) -> int:
        return sum(self.sizes)

    @property
    def num_messages(self) -> int:
        return len(self.sizes)

    def cost(self, link: LinkModel) -> float:
        """Back-to-back transfer time: ``L * alpha + beta * total_bytes``."""
        return link.cost_many(self.sizes)


def packed_plan(layer_sizes: Sequence[int]) -> MessagePlan:
    """One message carrying every layer (the paper's optimized scheme)."""
    return MessagePlan("packed", (int(sum(layer_sizes)),))


def per_layer_plan(layer_sizes: Sequence[int]) -> MessagePlan:
    """One message per layer (the conventional scheme the paper replaces)."""
    return MessagePlan("per-layer", tuple(int(s) for s in layer_sizes))


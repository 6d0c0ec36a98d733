"""The KNL chip model (Section 2.1).

Captures the architectural features the paper's Section 6.2 optimization
exploits: 68 cores (4 hardware threads each), 16 GB of MCDRAM at 475 GB/s
(measured STREAM), 384 GB of DDR4 at 90 GB/s, the three MCDRAM modes
(cache / flat / hybrid) and the clustering modes (all-to-all, quadrant /
hemisphere, SNC-4/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["ClusterMode", "McdramMode", "KnlChip", "KNL_7250_CHIP"]


class ClusterMode(Enum):
    """On-chip cache-clustering modes (Section 2.1 item 3)."""

    ALL_TO_ALL = "a2a"
    QUADRANT = "quad"
    HEMISPHERE = "hemi"
    SNC4 = "snc-4"
    SNC2 = "snc-2"

    @property
    def coherence_overhead(self) -> float:
        """Relative cache-coherence cost of the mode (Section 2.1).

        All-to-all spreads every address across every tag directory on the
        chip (longest average round trip); quadrant/hemisphere keep a
        memory controller's addresses in nearby TDs; SNC modes expose the
        locality to software so NUMA-aware pinning (exactly what the
        Section 6.2 partitioning does) pays the least coherence tax. The
        multipliers scale the per-core synchronization overhead.
        """
        return {"a2a": 1.4, "hemi": 1.15, "quad": 1.0, "snc-2": 0.9, "snc-4": 0.8}[self.value]


class McdramMode(Enum):
    """MCDRAM usage modes (Figure 2)."""

    CACHE = "cache"
    FLAT = "flat"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class KnlChip:
    """Static description of one KNL chip."""

    cores: int = 68
    threads_per_core: int = 4
    peak_flops: float = 6.0e12  # single precision (Section 1)
    mcdram_bytes: int = 16 * 1024**3
    mcdram_bandwidth: float = 475e9  # STREAM (Section 2.1)
    ddr4_bytes: int = 384 * 1024**3
    ddr4_bandwidth: float = 90e9
    cluster_mode: ClusterMode = ClusterMode.QUADRANT
    mcdram_mode: McdramMode = McdramMode.FLAT
    #: Per-core synchronization overhead of one parallel region: the larger a
    #: core group, the lower its parallel efficiency (barriers, cache-line
    #: ping-pong across tag directories). Calibrated against Figure 12's
    #: 3.3x speedup at 16 groups.
    sync_overhead_per_core: float = 0.035

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.sync_overhead_per_core < 0:
            raise ValueError("sync_overhead_per_core must be non-negative")

    def parallel_efficiency(self, cores_in_group: float) -> float:
        """Efficiency of one OpenMP-style group of ``cores_in_group`` cores.

        A single core is fully efficient; each extra core in the same
        synchronization domain adds a fixed relative overhead, scaled by
        the cluster mode's coherence cost. This is the lever that makes
        partitioning the chip (SNC-4-style) profitable.
        """
        if cores_in_group <= 0:
            raise ValueError("group must contain at least a fraction of a core")
        overhead = self.sync_overhead_per_core * self.cluster_mode.coherence_overhead
        return 1.0 / (1.0 + overhead * cores_in_group)

    def group_flops(self, parts: int, efficiency: float = 0.25) -> float:
        """Effective flops/s of one of ``parts`` equal core groups.

        ``efficiency`` is the kernel efficiency (fraction of peak a DNN
        kernel reaches, matching :data:`repro.cluster.devices.KNL_7250`);
        the group's *parallel* efficiency multiplies on top.
        """
        if parts <= 0:
            raise ValueError("parts must be positive")
        cores_per_group = self.cores / parts
        return (
            self.peak_flops
            * (cores_per_group / self.cores)
            * efficiency
            * self.parallel_efficiency(cores_per_group)
        )

    def fits_in_mcdram(self, nbytes: int) -> bool:
        """Whether a working set fits in the 16 GB fast memory."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes <= self.mcdram_bytes

    def working_set_bandwidth(self, nbytes: int) -> float:
        """Bandwidth the working set sees, per MCDRAM mode (Figure 2).

        - **flat**: the software places the working set explicitly —
          MCDRAM speed while it fits, DDR4 after the spill (the Figure 12
          gate);
        - **cache**: MCDRAM is the last-level cache — an over-capacity
          working set degrades *gradually* with the hit ratio instead of
          falling off a cliff;
        - **hybrid**: half the MCDRAM as cache, half as flat memory —
          modeled as flat behaviour with half the capacity, cache
          behaviour beyond.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.mcdram_mode is McdramMode.FLAT:
            return self.mcdram_bandwidth if self.fits_in_mcdram(nbytes) else self.ddr4_bandwidth
        if self.mcdram_mode is McdramMode.CACHE:
            hit = min(1.0, self.mcdram_bytes / max(nbytes, 1))
            return hit * self.mcdram_bandwidth + (1.0 - hit) * self.ddr4_bandwidth
        # hybrid: half flat, half cache
        half = self.mcdram_bytes // 2
        if nbytes <= half:
            return self.mcdram_bandwidth
        hit = min(1.0, half / max(nbytes - half, 1))
        return hit * self.mcdram_bandwidth + (1.0 - hit) * self.ddr4_bandwidth


#: The paper's chip ("Our version has 68 cores", Figure 1).
KNL_7250_CHIP = KnlChip()

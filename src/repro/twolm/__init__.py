"""2LM: the hardware-managed DRAM cache baseline (Intel Memory Mode).

In Memory Mode, Cascade Lake exposes NVRAM as main memory and uses all of
DRAM as a transparent direct-mapped, write-allocate, writeback cache in front
of it [4]. The paper's baseline runs the exact same workload on this
configuration; Figures 2-6 compare against it.

:class:`~repro.twolm.dramcache.DramCacheSim` reproduces the tag-array
behaviour (hits, clean misses, dirty misses — Figure 4's counters) over
bulk address ranges on a run-length tag store, and
:class:`~repro.twolm.system.TwoLMSystem` wraps it with the same
preallocated-heap allocator CachedArrays uses (the paper uses the
CachedArrays allocator as the 2LM baseline allocator too, Section IV-A).
"""

from repro.twolm.dramcache import CacheStats, DramCacheSim
from repro.twolm.system import TwoLMSystem

__all__ = ["CacheStats", "DramCacheSim", "TwoLMSystem"]

"""Cache substrate: blocks, set-associative arrays, hierarchy, write buffer."""

from repro.cache.block import CacheBlock
from repro.cache.hierarchy import DL1Outcome, HierarchyConfig, MemoryHierarchy
from repro.cache.set_assoc import (
    CacheGeometry,
    Eviction,
    PlainArrayCache,
    SetAssociativeCache,
)
from repro.cache.stats import CacheStats, HierarchyStats
from repro.cache.write_buffer import CoalescingWriteBuffer, WriteBufferStats

__all__ = [
    "CacheBlock",
    "DL1Outcome",
    "HierarchyConfig",
    "MemoryHierarchy",
    "CacheGeometry",
    "Eviction",
    "SetAssociativeCache",
    "PlainArrayCache",
    "CacheStats",
    "HierarchyStats",
    "CoalescingWriteBuffer",
    "WriteBufferStats",
]

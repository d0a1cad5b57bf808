"""Tests for the generic set-associative cache and its geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set_assoc import CacheGeometry, PlainArrayCache, SetAssociativeCache


class TestCacheGeometry:
    def test_table1_dl1(self):
        g = CacheGeometry(16 * 1024, 4, 64)
        assert g.n_sets == 64
        assert g.block_offset_bits == 6

    def test_table1_l2(self):
        g = CacheGeometry(256 * 1024, 4, 64)
        assert g.n_sets == 1024

    def test_table1_il1(self):
        g = CacheGeometry(16 * 1024, 1, 32)
        assert g.n_sets == 512

    def test_block_addr(self):
        g = CacheGeometry(16 * 1024, 4, 64)
        assert g.block_addr(0) == 0
        assert g.block_addr(63) == 0
        assert g.block_addr(64) == 1

    def test_set_index_wraps(self):
        g = CacheGeometry(16 * 1024, 4, 64)
        assert g.set_index(0) == 0
        assert g.set_index(64) == 0
        assert g.set_index(65) == 1

    def test_word_index(self):
        g = CacheGeometry(16 * 1024, 4, 64)
        assert g.word_index(0) == 0
        assert g.word_index(8) == 1
        assert g.word_index(56) == 7
        assert g.word_index(64) == 0

    @pytest.mark.parametrize(
        "size,assoc,block",
        [(1000, 4, 64), (16384, 3, 64), (16384, 4, 48), (0, 1, 64)],
    )
    def test_invalid_geometry_rejected(self, size, assoc, block):
        with pytest.raises(ValueError):
            CacheGeometry(size, assoc, block)


@pytest.fixture
def cache():
    return SetAssociativeCache(CacheGeometry(4 * 1024, 2, 64))  # 32 sets, 2-way


class TestAccessPath:
    def test_cold_miss_then_hit(self, cache):
        assert cache.access(0x1000, False, 0) is False
        assert cache.access(0x1000, False, 1) is True

    def test_same_block_different_offset_hits(self, cache):
        cache.access(0x1000, False, 0)
        assert cache.access(0x103F, False, 1) is True

    def test_adjacent_block_misses(self, cache):
        cache.access(0x1000, False, 0)
        assert cache.access(0x1040, False, 1) is False

    def test_write_allocates(self, cache):
        assert cache.access(0x2000, True, 0) is False
        assert cache.access(0x2000, False, 1) is True

    def test_write_sets_dirty(self, cache):
        cache.access(0x2000, True, 0)
        block = cache.probe(cache.geometry.block_addr(0x2000))
        assert block.dirty

    def test_read_does_not_set_dirty(self, cache):
        cache.access(0x2000, False, 0)
        block = cache.probe(cache.geometry.block_addr(0x2000))
        assert not block.dirty

    def test_stats_counters(self, cache):
        cache.access(0x0, False, 0)
        cache.access(0x0, False, 1)
        cache.access(0x0, True, 2)
        s = cache.stats
        assert s.loads == 2 and s.stores == 1
        assert s.load_misses == 1 and s.load_hits == 1 and s.store_hits == 1
        assert s.miss_rate == pytest.approx(1 / 3)


class TestLRUReplacement:
    def _same_set_addrs(self, cache, count):
        n_sets = cache.geometry.n_sets
        block = cache.geometry.block_size
        return [i * n_sets * block for i in range(count)]

    def test_lru_evicts_least_recent(self, cache):
        a, b, c = self._same_set_addrs(cache, 3)
        cache.access(a, False, 0)
        cache.access(b, False, 1)
        cache.access(a, False, 2)  # a is now MRU
        cache.access(c, False, 3)  # evicts b
        assert cache.access(a, False, 4) is True
        assert cache.access(b, False, 5) is False

    def test_invalid_ways_fill_first(self, cache):
        a, b = self._same_set_addrs(cache, 2)
        cache.access(a, False, 0)
        cache.access(b, False, 1)
        assert cache.access(a, False, 2) is True  # both resident

    def test_dirty_eviction_reports_writeback(self, cache):
        evictions = []
        cache.on_evict = evictions.append
        a, b, c = self._same_set_addrs(cache, 3)
        cache.access(a, True, 0)  # dirty
        cache.access(b, False, 1)
        cache.access(c, False, 2)  # evicts dirty a
        dirty = [e for e in evictions if e.dirty]
        assert len(dirty) == 1
        assert dirty[0].block_addr == cache.geometry.block_addr(a)
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self, cache):
        a, b, c = self._same_set_addrs(cache, 3)
        for i, addr in enumerate((a, b, c)):
            cache.access(addr, False, i)
        assert cache.stats.writebacks == 0


class TestContentsSummary:
    def test_census(self, cache):
        cache.access(0x0, True, 0)
        cache.access(0x40, False, 1)
        summary = cache.contents_summary()
        assert summary["valid"] == 2
        assert summary["dirty"] == 1
        assert summary["primaries"] == 2
        assert summary["replicas"] == 0


class TestAgainstReferenceModel:
    """Property test: the cache must agree with a brute-force LRU model."""

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=255),  # block index
                st.booleans(),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_hit_miss_sequence_matches_reference(self, accesses):
        geometry = CacheGeometry(2 * 1024, 2, 64)  # 16 sets, 2-way
        cache = SetAssociativeCache(geometry)
        # Reference: per-set list of block addrs in MRU order.
        reference: dict[int, list[int]] = {}
        for now, (block, is_write) in enumerate(accesses):
            addr = block * geometry.block_size
            block_addr = geometry.block_addr(addr)
            set_index = geometry.set_index(block_addr)
            mru = reference.setdefault(set_index, [])
            expected_hit = block_addr in mru
            got_hit = cache.access(addr, is_write, now)
            assert got_hit == expected_hit
            if expected_hit:
                mru.remove(block_addr)
            mru.insert(0, block_addr)
            del mru[geometry.associativity :]


class TestPlainArrayCache:
    """The flat-array L2/iL1 cache against ``SetAssociativeCache``.

    ``SetAssociativeCache`` stays the oracle: ``ICRCache`` subclasses it,
    so its demand path is the one the object kernel's semantics rest on.
    """

    @pytest.mark.parametrize(
        "geometry",
        [
            CacheGeometry(256, 1, 32),  # 8 sets, direct-mapped, 32 B lines
            CacheGeometry(512, 2, 64),  # 4 sets, 2-way
            CacheGeometry(1024, 4, 64),  # 4 sets, 4-way
        ],
        ids=["1way-32B", "2way-64B", "4way-64B"],
    )
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),  # block index
                st.integers(min_value=0, max_value=63),  # byte offset
                st.booleans(),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_same_hits_stats_and_dirty_evictions(self, geometry, accesses):
        oracle = SetAssociativeCache(geometry)
        flat = PlainArrayCache(geometry)
        oracle_dirty = []
        flat_dirty = []
        oracle.on_evict = lambda ev: ev.dirty and oracle_dirty.append(ev.block_addr)
        flat.on_dirty_evict = lambda: flat_dirty.append(None)
        for now, (block, offset, is_write) in enumerate(accesses):
            addr = block * geometry.block_size + offset % geometry.block_size
            assert flat.access(addr, is_write, now) == oracle.access(
                addr, is_write, now
            )
        assert flat.stats.snapshot() == oracle.stats.snapshot()
        assert len(flat_dirty) == len(oracle_dirty) == oracle.stats.writebacks

    def test_now_is_optional(self):
        cache = PlainArrayCache(CacheGeometry(256, 1, 32))
        assert cache.access(0x40, False) is False
        assert cache.access(0x40, True) is True
        assert cache.stats.store_hits == 1

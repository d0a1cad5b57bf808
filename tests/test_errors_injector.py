"""Tests for the fault injector and the end-to-end recovery paths."""

import random

import pytest

from repro.core.icr_cache import ICRCache
from repro.core.schemes import make_config
from repro.errors.injector import FaultInjector, derive_stream_seed
from repro.errors.models import FaultSite, make_model


def make_cache(scheme="BaseP", **kwargs):
    kwargs.setdefault("track_data", True)
    kwargs.setdefault("decay_window", 0)
    kwargs.setdefault("replicate_into_invalid", True)
    return ICRCache(make_config(scheme, **kwargs))


def site_of(cache, byte_addr, word=0, bit=0):
    block_addr = cache.geometry.block_addr(byte_addr)
    set_index = cache.geometry.set_index(block_addr)
    for way, block in enumerate(cache.sets[set_index]):
        if block.valid and block.block_addr == block_addr and not block.is_replica:
            return FaultSite(set_index, way, word, bit)
    raise AssertionError("block not resident")


class TestInjectorMechanics:
    def test_requires_track_data(self):
        cache = ICRCache(make_config("BaseP"))
        with pytest.raises(ValueError):
            FaultInjector(cache, 0.001)

    def test_probability_validated(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            FaultInjector(cache, 1.5)

    def test_zero_rate_never_injects(self):
        cache = make_cache()
        injector = FaultInjector(cache, 0.0)
        cache.access(0, True, 0)
        assert injector.advance(10**6) == 0
        assert cache.stats.errors_injected == 0

    def test_geometric_rate_statistics(self):
        """Mean inter-arrival of faults must approximate 1/p."""
        cache = make_cache()
        for i in range(64):
            cache.access(i * 64, True, i)
        injector = FaultInjector(cache, 0.01, seed=42)
        flips = injector.advance(100_000)
        # Expect ~1000 strikes; allow generous statistical slack.
        assert 700 < flips < 1300

    def test_determinism_across_runs(self):
        counts = []
        for _ in range(2):
            cache = make_cache()
            for i in range(64):
                cache.access(i * 64, True, i)
            injector = FaultInjector(cache, 0.01, seed=7)
            counts.append(injector.advance(50_000))
        assert counts[0] == counts[1]

    def test_advance_is_monotonic(self):
        cache = make_cache()
        cache.access(0, True, 0)
        injector = FaultInjector(cache, 0.5, seed=1)
        a = injector.advance(100)
        b = injector.advance(100)  # same time: no new strikes
        assert b == 0 or a >= 0


def _flip_history(seed, model="burst", steps=40):
    """The per-step flip counts of one injector — its fault fingerprint."""
    cache = make_cache()
    for i in range(64):
        cache.access(i * 64, True, i)
    injector = FaultInjector(cache, 0.02, model=model, seed=seed)
    return [injector.advance(t * 250) for t in range(1, steps + 1)]


class TestSeedStreamIndependence:
    """Regression tests for the seed+1 stream-aliasing bug.

    The iL1 injector used to be seeded ``error_seed + 1``, so the iL1
    stream of trial *s* was bit-for-bit the dL1 stream of trial *s + 1* —
    two "independent" Monte Carlo trials shared a fault history.  Streams
    are now derived by hashing ``(seed, stream name)``.
    """

    def test_derive_stream_seed_deterministic(self):
        assert derive_stream_seed(7, "l1i") == derive_stream_seed(7, "l1i")

    def test_streams_and_seeds_decorrelated(self):
        assert derive_stream_seed(7, "l1i") != derive_stream_seed(7, "dl1")
        assert derive_stream_seed(7, "l1i") != derive_stream_seed(8, "l1i")

    def test_never_a_neighbouring_integer_seed(self):
        # The exact historical failure: derived seed == seed + 1.
        for seed in range(64):
            derived = derive_stream_seed(seed, "l1i")
            assert abs(derived - seed) > 1000

    @pytest.mark.parametrize("model", ["random", "burst"])
    def test_adjacent_trial_seeds_never_share_a_stream(self, model):
        # Trial s's derived iL1 stream vs trial s+1's plain dL1 stream:
        # identical under the old derivation, independent now — for the
        # single-draw models and the multi-draw burst model alike.
        for seed in (0, 7, 12344):
            il1 = _flip_history(derive_stream_seed(seed, "l1i"), model=model)
            dl1_next = _flip_history(seed + 1, model=model)
            assert il1 != dl1_next
            # Sanity: the fingerprint itself is deterministic.
            assert il1 == _flip_history(derive_stream_seed(seed, "l1i"), model=model)


class TestBurstModel:
    def test_sites_form_one_contiguous_run(self):
        cache = make_cache()
        for i in range(16):
            cache.access(i * 64, True, i)
        model = make_model("burst")
        rng = random.Random(3)
        for _ in range(50):
            sites = model.sites(cache, rng)
            assert 1 <= len(sites) <= model.MAX_LENGTH
            assert len({(s.set_index, s.way) for s in sites}) == 1
            # Consecutive bit positions within the line's flat bit space.
            for a, b in zip(sites, sites[1:]):
                assert (b.word_index, b.bit) > (a.word_index, a.bit)

    def test_bursts_defeat_parity_in_one_word(self):
        # An even number of flips inside one byte escapes parity; a burst
        # makes that outcome common — over many strikes at least one must
        # produce a silent corruption or a detected multi-bit error.
        cache = make_cache()
        for i in range(64):
            cache.access(i * 64, True, i)
        injector = FaultInjector(cache, 0.05, model="burst", seed=11)
        injector.advance(20_000)
        assert cache.stats.errors_injected > 0
        for i in range(64):
            cache.access(i * 64, False, 100_000 + i)
        assert (
            cache.stats.silent_corruptions
            + cache.stats.load_errors_detected
            + cache.stats.load_errors_unrecoverable
        ) > 0


class TestRecoveryPaths:
    def test_basep_clean_block_recovers_from_l2(self):
        cache = make_cache("BaseP")
        cache.access(0, False, 0)  # clean fill
        injector = FaultInjector(cache, 0.0)
        injector.force_fault(site_of(cache, 0, word=0, bit=3))
        outcome = cache.access(0, False, 1)
        assert outcome.latency > 1  # refetch charged
        assert cache.stats.load_errors_recovered_l2 == 1
        assert cache.stats.load_errors_unrecoverable == 0

    def test_basep_dirty_block_is_unrecoverable(self):
        cache = make_cache("BaseP")
        cache.access(0, True, 0)  # dirty
        injector = FaultInjector(cache, 0.0)
        injector.force_fault(site_of(cache, 0, word=0, bit=3))
        cache.access(0, False, 1)
        assert cache.stats.load_errors_unrecoverable == 1

    def test_baseecc_corrects_single_bit_in_dirty_block(self):
        cache = make_cache("BaseECC")
        cache.access(0, True, 0)
        injector = FaultInjector(cache, 0.0)
        injector.force_fault(site_of(cache, 0, word=0, bit=3))
        cache.access(0, False, 1)
        assert cache.stats.load_errors_corrected_ecc == 1
        assert cache.stats.load_errors_unrecoverable == 0

    def test_baseecc_double_bit_dirty_is_unrecoverable(self):
        cache = make_cache("BaseECC")
        cache.access(0, True, 0)
        injector = FaultInjector(cache, 0.0)
        injector.force_fault(site_of(cache, 0, word=0, bit=3))
        injector.force_fault(site_of(cache, 0, word=0, bit=9))
        cache.access(0, False, 1)
        assert cache.stats.load_errors_unrecoverable == 1

    def test_icr_recovers_dirty_block_from_replica(self):
        """The paper's headline reliability win: parity + replica recovery."""
        cache = make_cache("ICR-P-PS(S)")
        cache.access(0, True, 0)  # dirty + replicated
        assert cache.probe(0).has_replica
        injector = FaultInjector(cache, 0.0)
        injector.force_fault(site_of(cache, 0, word=0, bit=3))
        outcome = cache.access(0, False, 1)
        assert cache.stats.load_errors_recovered_replica == 1
        assert cache.stats.load_errors_unrecoverable == 0
        assert outcome.latency == 2  # one extra cycle for the replica

    def test_icr_scrubs_primary_after_replica_recovery(self):
        cache = make_cache("ICR-P-PS(S)")
        cache.access(0, True, 0)
        injector = FaultInjector(cache, 0.0)
        injector.force_fault(site_of(cache, 0, word=0, bit=3))
        cache.access(0, False, 1)
        # Second load sees no error.
        cache.access(0, False, 2)
        assert cache.stats.load_errors_detected == 1

    def test_icr_unreplicated_dirty_still_unrecoverable(self):
        cache = make_cache("ICR-P-PS(S)")
        cache.access(0, True, 0)
        primary = cache.probe(0)
        cache.evict(primary.replica_refs[0])
        injector = FaultInjector(cache, 0.0)
        injector.force_fault(site_of(cache, 0, word=0, bit=3))
        cache.access(0, False, 1)
        assert cache.stats.load_errors_unrecoverable == 1

    def test_corrupted_replica_falls_back(self):
        """Error in both primary and replica word: behave like unreplicated."""
        cache = make_cache("ICR-P-PS(S)")
        cache.access(0, True, 0)
        primary = cache.probe(0)
        replica = primary.replica_refs[0]
        injector = FaultInjector(cache, 0.0)
        injector.force_fault(site_of(cache, 0, word=0, bit=3))
        replica.words[0].flip_data_bit(5)
        cache.access(0, False, 1)
        assert cache.stats.load_errors_unrecoverable == 1

    def test_silent_corruption_detected_by_golden_compare(self):
        """Two flips in one byte escape parity; the simulator still sees it."""
        cache = make_cache("BaseP")
        cache.access(0, True, 0)
        injector = FaultInjector(cache, 0.0)
        injector.force_fault(site_of(cache, 0, word=0, bit=0))
        injector.force_fault(site_of(cache, 0, word=0, bit=1))
        cache.access(0, False, 1)
        assert cache.stats.silent_corruptions == 1
        assert cache.stats.load_errors_detected == 0

    def test_error_in_untouched_word_not_seen(self):
        cache = make_cache("BaseP")
        cache.access(0, True, 0)
        injector = FaultInjector(cache, 0.0)
        injector.force_fault(site_of(cache, 0, word=5, bit=3))
        cache.access(0, False, 1)  # loads word 0
        assert cache.stats.load_errors_detected == 0

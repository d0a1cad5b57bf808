"""Transient-error models (Kim & Somani, ISCA 1999 — paper Section 5.5).

Each model decides *where* a fault lands once the injector decides *when*
one occurs:

* ``random``   — one bit of one random word anywhere in the cache (the model
  the paper reports results for);
* ``direct``   — one bit of a recently used word (MRU line of a random
  set), modeling strikes on actively-cycling cells;
* ``adjacent`` — two horizontally adjacent bits of the same word, modeling
  a single particle upsetting neighbouring cells;
* ``column``   — the same bit position in two vertically adjacent lines of
  a set, modeling a strike along a bitline column;
* ``burst``    — a run of 2..5 adjacent bits of one word (spilling into
  the next word of the line), modeling a high-energy particle track that
  defeats single-error protection within one protection domain.

Faults are expressed as ``FaultSite`` records; the injector applies them to
the bit-accurate word storage.  Bit indices cover the *whole* protected
word — data bits and check bits alike, ``0..STORED_BITS-1`` for either
protection kind — since a real strike does not know which cells hold
parity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.coding.protection import STORED_BITS


@dataclass(frozen=True)
class FaultSite:
    """One bit flip at (set, way, word, bit-within-protected-word)."""

    set_index: int
    way: int
    word_index: int
    bit: int


class ErrorModel(Protocol):
    """Strategy choosing fault sites within a cache."""

    name: str

    def sites(self, cache, rng: random.Random) -> Iterable[FaultSite]: ...


def _random_valid_line(cache, rng: random.Random, tries: int = 64):
    """Pick a random valid line; ``None`` when the cache looks empty."""
    n_sets = cache.geometry.n_sets
    assoc = cache.geometry.associativity
    for _ in range(tries):
        set_index = rng.randrange(n_sets)
        way = rng.randrange(assoc)
        block = cache.sets[set_index][way]
        if block.valid and block.words is not None:
            return set_index, way, block
    return None


class RandomModel:
    """A random bit of a random word present in the dL1 (paper default)."""

    name = "random"

    def sites(self, cache, rng: random.Random):
        found = _random_valid_line(cache, rng)
        if found is None:
            return []
        set_index, way, block = found
        word = rng.randrange(len(block.words))
        bit = rng.randrange(STORED_BITS)
        return [FaultSite(set_index, way, word, bit)]


class DirectModel:
    """A random bit of a *recently used* word (MRU line of a random set)."""

    name = "direct"

    def sites(self, cache, rng: random.Random):
        n_sets = cache.geometry.n_sets
        for _ in range(16):
            set_index = rng.randrange(n_sets)
            candidates = [
                (way, b)
                for way, b in enumerate(cache.sets[set_index])
                if b.valid and b.words is not None
            ]
            if not candidates:
                continue
            way, block = max(candidates, key=lambda wb: wb[1].lru_stamp)
            word = rng.randrange(len(block.words))
            bit = rng.randrange(STORED_BITS)
            return [FaultSite(set_index, way, word, bit)]
        return []


class AdjacentModel:
    """Two horizontally adjacent bits of the same word."""

    name = "adjacent"

    def sites(self, cache, rng: random.Random):
        found = _random_valid_line(cache, rng)
        if found is None:
            return []
        set_index, way, block = found
        word = rng.randrange(len(block.words))
        bit = rng.randrange(STORED_BITS - 1)
        return [
            FaultSite(set_index, way, word, bit),
            FaultSite(set_index, way, word, bit + 1),
        ]


class ColumnModel:
    """The same bit position in two vertically adjacent lines of a set."""

    name = "column"

    def sites(self, cache, rng: random.Random):
        found = _random_valid_line(cache, rng)
        if found is None:
            return []
        set_index, way, block = found
        assoc = cache.geometry.associativity
        word = rng.randrange(len(block.words))
        bit = rng.randrange(STORED_BITS)
        sites = [FaultSite(set_index, way, word, bit)]
        # The vertically adjacent cell: the nearest other valid way.
        for offset in range(1, assoc):
            other_way = (way + offset) % assoc
            other = cache.sets[set_index][other_way]
            if other.valid and other.words is not None:
                sites.append(FaultSite(set_index, other_way, word, bit))
                break
        return sites


class BurstModel:
    """A multi-bit burst: a run of adjacent bits of one word, spilling
    into the next word of the same line when it crosses the word edge.

    Models a high-energy particle track upsetting a short run of
    physically contiguous cells — the worst case for per-word parity
    *and* SEC-DED, since several flips land inside one protection
    domain.  The burst length is drawn (2..5) from the caller's RNG, so
    the whole fault history — strike times, sites and lengths alike —
    is pinned by the injector's single seed.
    """

    name = "burst"

    MIN_LENGTH = 2
    MAX_LENGTH = 5

    def sites(self, cache, rng: random.Random):
        found = _random_valid_line(cache, rng)
        if found is None:
            return []
        set_index, way, block = found
        n_words = len(block.words)
        word = rng.randrange(n_words)
        start = rng.randrange(STORED_BITS)
        length = rng.randint(self.MIN_LENGTH, self.MAX_LENGTH)
        sites = []
        for offset in range(length):
            bit = start + offset
            w, b = word + bit // STORED_BITS, bit % STORED_BITS
            if w >= n_words:
                break  # burst ran off the end of the line
            sites.append(FaultSite(set_index, way, w, b))
        return sites


MODELS: dict[str, type] = {
    "random": RandomModel,
    "direct": DirectModel,
    "adjacent": AdjacentModel,
    "column": ColumnModel,
    "burst": BurstModel,
}


def make_model(name: str) -> ErrorModel:
    """Instantiate an error model by name."""
    try:
        return MODELS[name]()
    except KeyError:
        raise ValueError(
            f"unknown error model {name!r}; choose from {sorted(MODELS)}"
        ) from None

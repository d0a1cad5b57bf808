"""Content-addressed, on-disk cache for experiment results.

Re-running a figure or sweep with one changed configuration should only
simulate the delta.  To make that safe, a cached result is keyed by a
stable hash over *everything the simulation depends on*:

* the resolved :class:`~repro.workloads.generator.WorkloadProfile`
  (benchmark names are resolved to their full parameter set, so editing
  a profile invalidates its entries);
* the scheme — name plus every scheme kwarg, or a prebuilt
  :class:`~repro.core.config.ICRConfig` field-by-field;
* the run parameters (``n_instructions``, machine, error rate / model /
  seed, scrub period, trace seed, warm-up, iL1 error rate), with
  omitted arguments normalized to :func:`run_experiment`'s defaults so
  an explicit default and an omitted one share a key;
* a digest of the ``repro`` package source (the *code version*), so any
  edit to the simulator invalidates the whole cache.

Entries live under ``~/.cache/repro`` (override with ``--cache-dir`` or
the ``REPRO_CACHE_DIR`` environment variable) as one JSON file per
result, sharded by the first two hex digits of the key.  A corrupted or
truncated entry is treated as a miss — it is *quarantined* (renamed to
``<key>.corrupt`` so the damaged bytes survive for diagnosis) and the
experiment recomputed, never raised to the caller.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import threading
import time
import uuid
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path
from typing import Any, Optional, Union

from repro import recovery
from repro.chaos import runtime as _chaos

from repro.core.config import ICRConfig
from repro.core.registry import normalize_scheme_name
from repro.harness.experiment import SimulationResult
from repro.harness.spec import RUN_DEFAULTS as _RUN_DEFAULTS
from repro.harness.spec import MachineConfig
from repro.workloads.generator import WorkloadProfile
from repro.workloads.spec2000 import profile_for

#: Bumped whenever the on-disk entry format changes.
CACHE_FORMAT = 1


class UncacheableJobError(ValueError):
    """The job's parameters cannot be canonicalized to a stable key.

    Raised for values with no stable content representation (live
    objects such as :class:`~repro.core.hints.ReplicationHints`
    instances, callables, ...).  Callers fall back to running the
    experiment uncached.
    """


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every ``repro/**/*.py`` source file.

    Any edit to the simulator (or the harness itself) changes the
    version and therefore every cache key — stale results can never be
    served across code changes.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _canonical(value: Any) -> Any:
    """Reduce *value* to JSON-stable plain data (or raise Uncacheable)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips doubles exactly; NaN never equals itself, so
        # refuse it rather than silently aliasing keys.
        if value != value:
            raise UncacheableJobError("NaN parameter value")
        return repr(value)
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": value.value}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **fields}
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for k in sorted(value):
            if not isinstance(k, str):
                raise UncacheableJobError(f"non-string dict key {k!r}")
            out[k] = _canonical(value[k])
        return out
    raise UncacheableJobError(f"cannot canonicalize {type(value).__name__}")


def job_key(
    benchmark: Union[str, WorkloadProfile],
    scheme: Union[str, ICRConfig],
    kwargs: Optional[dict] = None,
) -> str:
    """Stable content hash for one :func:`run_experiment` invocation.

    Raises :class:`UncacheableJobError` when any parameter has no
    stable representation.
    """
    profile = profile_for(benchmark) if isinstance(benchmark, str) else benchmark
    if isinstance(scheme, str):
        # Canonical spelling via the registry: every accepted spelling of
        # a scheme shares one cache identity (matches ExperimentSpec).
        scheme = normalize_scheme_name(scheme)
    merged = dict(_RUN_DEFAULTS)
    merged.update(kwargs or {})
    if merged["machine"] is None:
        merged["machine"] = MachineConfig()
    payload = {
        "format": CACHE_FORMAT,
        "code": code_version(),
        "profile": _canonical(profile),
        "scheme": _canonical(scheme),
        "kwargs": _canonical(merged),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# SimulationResult <-> JSON
# ---------------------------------------------------------------------------

# The plain-data round-trip lives on SimulationResult itself
# (to_dict/from_dict); these wrappers are kept as the harness-level
# names used throughout the cache and its tests.


def result_to_dict(result: SimulationResult) -> dict:
    """Lossless plain-data form of a :class:`SimulationResult`."""
    return result.to_dict()


def result_from_dict(data: dict) -> SimulationResult:
    """Inverse of :func:`result_to_dict` (raises on malformed input)."""
    return SimulationResult.from_dict(data)


class FileLease:
    """An advisory, TTL-bounded claim on a shared resource.

    The multi-host campaign engine uses one lease file per campaign
    cell: an engine that wants to run a cell's trials must hold its
    lease, so two engines pointed at the same checkpoint/cache
    directory partition the grid between themselves instead of
    duplicating work.  The protocol is deliberately minimal and crash
    tolerant:

    * **Claim** — create the lease file with ``O_CREAT | O_EXCL`` (the
      one atomic primitive every shared filesystem offers) and write
      the owner's identity into it.
    * **Renew** — the holder refreshes the file's mtime on a heartbeat;
      a lease whose mtime is older than *ttl* seconds is *stale*.
    * **Takeover** — anyone may break a stale lease: atomically
      ``rename`` it aside (exactly one racer's rename succeeds; the
      losers see ``FileNotFoundError`` and fall back to racing the
      ``O_EXCL`` create), then race for a fresh create.  At most one
      racer wins; the dead holder's work is recoverable because all
      trial results live in the content-addressed cache and committed
      records in the published cell files.
    * **Release** — the holder unlinks the file (only while the file
      still names it as owner, so a takeover is never clobbered).

    Leases are advisory: they order *scheduling*, not correctness —
    even two engines running the same cell concurrently converge on
    identical records because trials are deterministic and
    content-addressed.
    """

    def __init__(self, path: Union[str, Path], owner: str, *, ttl: float = 30.0):
        self.path = Path(path)
        self.owner = owner
        self.ttl = ttl

    # -- state probes -----------------------------------------------------

    def holder(self) -> Optional[str]:
        """The current owner id, or None when unclaimed/unreadable."""
        try:
            data = json.loads(self.path.read_text())
            return data.get("owner")
        except (OSError, ValueError):
            return None

    def is_stale(self) -> bool:
        """True when the lease exists but stopped being renewed."""
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return False
        return age > self.ttl

    def held(self) -> bool:
        """True while this instance's owner id is on the lease file."""
        return self.holder() == self.owner

    # -- protocol ---------------------------------------------------------

    def acquire(self, *, break_stale: bool = True) -> bool:
        """Try to claim the lease; True when this owner now holds it."""
        if self.held():
            self.renew()
            return True
        for _ in range(2):  # second try: after breaking a stale lease
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                if not (break_stale and self.is_stale()):
                    return False
                if not self._break_stale():
                    return False
                continue
            except OSError:
                return False
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps({"owner": self.owner, "pid": os.getpid()}))
            # Post-create verification of the owner token.  The O_EXCL
            # create is the authoritative claim, but verifying that the
            # file still names us closes any future regression toward
            # the old unlink-based breaking, where a slow racer could
            # unlink *our* fresh lease and create its own over it.
            if self.holder() != self.owner:
                return False
            return True
        return False

    def _break_stale(self) -> bool:
        """Atomically retire a stale lease file; True when the caller
        may race for the ``O_EXCL`` create.

        The old protocol (``unlink`` then create) had a double-takeover
        race: engines A and B both observe the stale lease, A unlinks
        and creates its fresh lease, then B's queued unlink removes
        *A's* lease and B creates its own — two holders.  Breaking via
        ``os.rename`` to a unique graveyard name closes it: exactly one
        racer's rename succeeds (the losers get ``FileNotFoundError``
        and fall through to the create race, where ``O_EXCL`` arbitrates),
        and a fresh lease can never be swept away because only the
        *stale* file is ever moved.
        """
        grave = self.path.with_name(
            f"{self.path.name}.broken.{uuid.uuid4().hex[:8]}"
        )
        try:
            os.rename(self.path, grave)
        except FileNotFoundError:
            return True  # another racer broke it first; race for the create
        except OSError:
            return False
        # rename preserves mtime: confirm the file we retired really was
        # stale.  A renew may have landed between is_stale() and the
        # rename — in that case try to put the live lease back (link
        # fails harmlessly if a new claim already took the slot).
        try:
            age = time.time() - grave.stat().st_mtime
        except OSError:
            age = self.ttl + 1.0
        if age <= self.ttl:
            try:
                os.link(grave, self.path)
            except OSError:
                pass
            try:
                grave.unlink()
            except OSError:
                pass
            return False
        try:
            grave.unlink()
        except OSError:
            pass
        recovery.count("lease_takeovers")
        recovery.warn(
            "lease", f"broke stale lease {self.path.name} (holder presumed dead)"
        )
        return True

    def renew(self) -> bool:
        """Heartbeat: refresh the mtime while we still own the lease."""
        if not self.held():
            return False
        try:
            os.utime(self.path)
        except OSError:
            return False
        return True

    def release(self) -> None:
        """Give the lease up (no-op if somebody else took it over)."""
        if self.held():
            try:
                self.path.unlink()
            except OSError:
                pass


class ResultCache:
    """Persistent result store, one JSON file per job key.

    ``enabled=False`` turns every operation into a no-op (the
    ``--no-cache`` path), which keeps call sites branch-free.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path, None] = None,
        *,
        enabled: bool = True,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def path_for(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for *key*, or None (missing/corrupt/disabled)."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
            result = result_from_dict(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupted / truncated / stale-format entry: quarantine it
            # (rename preserves the damaged bytes for diagnosis, and a
            # non-.json suffix keeps it out of every future lookup) and
            # recompute.  Deleting outright would work too, but losing
            # the evidence makes "why did this cache entry rot" an
            # unanswerable question.
            self.corrupt += 1
            self.misses += 1
            try:
                os.replace(path, path.with_suffix(".corrupt"))
            except OSError:
                try:
                    path.unlink()
                except OSError:
                    pass
            recovery.count("cache_quarantined")
            recovery.warn(
                "cache", f"quarantined corrupt entry {path.name} (recomputing)"
            )
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Persist *result* atomically (rename over a temp file)."""
        if not self.enabled:
            return
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            _chaos.check_disk_full("cache", key)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(result_to_dict(result)))
            os.replace(tmp, path)
        except OSError:
            # A read-only or full cache dir never fails the run — the
            # result is simply not persisted this time.
            recovery.count("cache_write_errors")
            recovery.warn("cache", f"dropped write for {key[:12]}… (disk error)")
            return
        _chaos.damage_cache_entry(key, path)
        self.stores += 1


class _CacheShard:
    """One lock-guarded LRU segment of a :class:`ReadThroughCache`."""

    __slots__ = ("lock", "entries", "capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int):
        self.lock = threading.Lock()
        self.entries: OrderedDict[str, SimulationResult] = OrderedDict()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class ReadThroughCache:
    """Sharded in-memory LRU tier over a :class:`ResultCache`.

    This is every :class:`~repro.harness.runner.ParallelRunner`'s result
    store, and the simulation service shares one instance between its
    runner, its campaign runners and its HTTP handlers.  A memory hit
    costs one dict probe under a per-shard lock, never a disk read,
    never the simulator; the bound keeps a long-lived process's memory
    flat however many results pass through it.  Misses fall through to
    the backing disk cache (if any) and populate the memory tier on the
    way back (the *read-through* contract); :meth:`put` writes through
    to disk, so a restart loses only latency, never results.

    Keys are the content hashes of :func:`job_key` (hex), sharded by
    their leading digits: concurrent readers of different keys contend
    on different locks, and the eviction clock is per shard, so one
    scan-heavy client cannot flush another shard's hot entries.
    Capacity is ``capacity_per_shard`` entries *per shard*; the
    least-recently-used entry of a full shard is evicted on insert.

    Thread-safe; designed for one writer (the execution loop) and many
    readers (HTTP handlers), but safe for any mix.
    """

    def __init__(
        self,
        backing: Optional[ResultCache] = None,
        *,
        shards: int = 16,
        capacity_per_shard: int = 256,
    ):
        if shards < 1 or capacity_per_shard < 1:
            raise ValueError("shards and capacity_per_shard must be >= 1")
        self.backing = backing
        self._shards = [_CacheShard(capacity_per_shard) for _ in range(shards)]
        self.backing_hits = 0
        self.stores = 0

    def _shard_for(self, key: str) -> _CacheShard:
        try:
            index = int(key[:4], 16)
        except ValueError:  # non-hex key: still deterministic
            index = hash(key)
        return self._shards[index % len(self._shards)]

    def get(self, key: str) -> Optional[SimulationResult]:
        """Memory tier, then backing store, then ``None``."""
        shard = self._shard_for(key)
        with shard.lock:
            hit = shard.entries.get(key)
            if hit is not None:
                shard.entries.move_to_end(key)
                shard.hits += 1
                return hit
            shard.misses += 1
        if self.backing is None:
            return None
        result = self.backing.get(key)
        if result is not None:
            self.backing_hits += 1
            self._install(shard, key, result)
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Install in the memory tier and write through to the backing."""
        self._install(self._shard_for(key), key, result)
        self.stores += 1
        if self.backing is not None:
            self.backing.put(key, result)

    def contains_in_memory(self, key: str) -> bool:
        """True when *key* is resident (no promotion, no stat changes)."""
        shard = self._shard_for(key)
        with shard.lock:
            return key in shard.entries

    def _install(
        self, shard: _CacheShard, key: str, result: SimulationResult
    ) -> None:
        with shard.lock:
            if key in shard.entries:
                shard.entries.move_to_end(key)
                shard.entries[key] = result
                return
            while len(shard.entries) >= shard.capacity:
                shard.entries.popitem(last=False)
                shard.evictions += 1
            shard.entries[key] = result

    def stats(self) -> dict[str, Any]:
        """Aggregate and per-shard counters (the telemetry payload)."""
        per_shard = [
            {
                "entries": len(s.entries),
                "hits": s.hits,
                "misses": s.misses,
                "evictions": s.evictions,
            }
            for s in self._shards
        ]
        hits = sum(s["hits"] for s in per_shard)
        misses = sum(s["misses"] for s in per_shard)
        return {
            "shards": len(self._shards),
            "entries": sum(s["entries"] for s in per_shard),
            "memory_hits": hits,
            "memory_misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "backing_hits": self.backing_hits,
            "evictions": sum(s["evictions"] for s in per_shard),
            "stores": self.stores,
            "per_shard": per_shard,
        }

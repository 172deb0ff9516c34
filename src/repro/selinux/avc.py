"""The SELinux access vector cache.

Real SELinux answers most checks from a cache of recently computed access
vectors (``security/selinux/avc.c``); policy reloads flush it.  The
SACK-SELinux bridge relies on the flush: after a situation transition
rewrites the AV table, stale cached decisions must not survive.

:class:`AvcCore` is the cache proper, an epoch-stamped LRU: a
policy-revision change becomes an epoch bump (O(1), no walk), stale
entries are dropped by the lookup that trips over them, and capacity
eviction reclaims the rest.  :class:`AccessVectorCache` is SELinux's
interface over it: ``allowed()``, ``flush()``, the
``hits``/``misses``/``flushes`` counters and ``stats()``.

This is the simulator's only decision cache: the LSM stack itself has
none (see ``docs/avc.md``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Set, Tuple

from .policy import SelinuxPolicy


class AvcCore:
    """Epoch-stamped LRU mapping arbitrary hashable keys to values.

    An entry is *live* iff its stamp equals the current epoch;
    :meth:`bump_epoch` therefore invalidates the whole cache in O(1).
    Stale entries are dropped lazily by the lookup that finds them.
    """

    def __init__(self, capacity: int = 8192):
        if capacity < 1:
            raise ValueError("AVC capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Any, Tuple[int, Any]]" = OrderedDict()
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_drops = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- invalidation --------------------------------------------------------
    def bump_epoch(self) -> int:
        """O(1) whole-cache invalidation; returns the new epoch."""
        self.epoch += 1
        return self.epoch

    def flush(self) -> None:
        """Eager invalidation: drop every entry now (frees the memory a
        bump leaves behind; semantically equivalent)."""
        self._entries.clear()
        self.flushes += 1

    # -- lookup/insert -------------------------------------------------------
    def lookup(self, key) -> Tuple[bool, Any]:
        """Returns ``(hit, value)``; a stale entry counts as a miss and is
        dropped on the spot."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return False, None
        epoch, value = entry
        if epoch != self.epoch:
            del self._entries[key]
            self.stale_drops += 1
            self.misses += 1
            return False, None
        self._entries.move_to_end(key)
        self.hits += 1
        return True, value

    def insert(self, key, value) -> None:
        """Stamp *value* with the current epoch; LRU-evict at capacity."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        elif len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[key] = (self.epoch, value)


class AccessVectorCache:
    """Memoises ``(source, target, class) -> allowed perms``."""

    def __init__(self, policy: SelinuxPolicy, capacity: int = 4096):
        self.policy = policy
        self.capacity = capacity
        self.core = AvcCore(capacity=capacity)
        self._policy_revision = policy.revision

    # Counter façade over the core, so callers keep their names.
    @property
    def hits(self) -> int:
        return self.core.hits

    @property
    def misses(self) -> int:
        return self.core.misses

    @property
    def flushes(self) -> int:
        return self.core.flushes

    @property
    def _cache(self) -> Dict[Tuple[str, str, str], Set[str]]:
        """Live (current-epoch) entries, for tests and introspection."""
        epoch = self.core.epoch
        return {key: value for key, (entry_epoch, value)
                in self.core._entries.items() if entry_epoch == epoch}

    def _maybe_flush(self) -> None:
        if self.policy.revision != self._policy_revision:
            self.flush()
            self._policy_revision = self.policy.revision

    def flush(self) -> None:
        self.core.bump_epoch()
        self.core.flush()

    def allowed(self, source: str, target: str, tclass: str,
                perm: str) -> bool:
        self._maybe_flush()
        key = (source, target, tclass)
        hit, vector = self.core.lookup(key)
        if not hit:
            vector = set(self.policy.allowed_perms(source, target, tclass))
            self.core.insert(key, vector)
        return perm in vector

    def stats(self) -> Dict[str, int]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "flushes": self.flushes,
            "hit_rate_pct": (self.hits * 100 // total) if total else 0,
        }

"""The stack-level access vector cache (AVC), stamped by situation epoch.

Real kernels answer most security checks out of a cache of recently
computed access vectors; SELinux's ``security/selinux/avc.c`` is the
canonical example.  SACK adds a twist: decisions are only constant
*between situation transitions*, so the cache key must include the
situation.  Rather than storing the situation in every key (and paying a
full flush walk on every transition), entries are stamped with a
monotonically increasing **epoch**.  Invalidation is then O(1): the SSM
(or the AppArmor bridge, on profile reload) bumps the epoch and every
older entry becomes unreachable — stale entries are lazily dropped when a
lookup trips over them, and capacity eviction reclaims the rest.

Two layers live here:

:class:`AvcCore`
    The generic epoch-stamped LRU.  Values are opaque; the framework
    stores permission bitmasks ("access vectors"), the SELinux AVC
    (refolded onto this core) stores permission sets.

:class:`AccessVectorCache`
    The framework-facing wrapper: an :class:`AvcCore` plus the hot-path
    key extractors, the enable/disable toggle the tracefs file flips,
    and the stats rendering shared by ``SACK/avc`` and ``sackctl avc``.

Caching policy — **allows only**.  A denial always takes the full module
walk, because denials have side effects the cache must not swallow:
module audit records, denial counters, span annotations, the AVC audit
trail.  Allowed accesses have exactly one observable side effect
(per-module HookStats counters), which the framework replays on a hit so
a census is bit-identical with and without the cache.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..kernel.syscalls import MAY_EXEC, MAY_READ, MAY_WRITE
from .hooks import Hook

#: Every permission bit a file access vector can carry.
AV_ALL = MAY_READ | MAY_WRITE | MAY_EXEC

#: The single "this exact operation is allowed" bit used for hooks whose
#: decision has no mask structure (ioctl cmd, capability, socket family):
#: the operation's scalar lives in the key, the vector is just this bit.
AV_OP = 0x1


class AvcCore:
    """Epoch-stamped LRU mapping arbitrary hashable keys to values.

    An entry is *live* iff its stamp equals the current epoch;
    :meth:`bump_epoch` therefore invalidates the whole cache in O(1).
    Stale entries are dropped lazily by the lookup that finds them.

    The two ``last_hit_*`` fields exist for runtime verification (the
    chaos harness's I7 invariant): every hit records the epoch of the
    entry served and the epoch current at serve time.  If they ever
    differ — or ``stale_served`` is nonzero — a stale decision escaped.
    """

    def __init__(self, capacity: int = 8192):
        if capacity < 1:
            raise ValueError("AVC capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Any, Tuple[int, Any]]" = OrderedDict()
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.stale_drops = 0
        self.flushes = 0
        self.epoch_bumps = 0
        self.bump_reasons: Counter = Counter()
        # Runtime-verification probes (see class docstring).
        self.last_hit_entry_epoch = 0
        self.last_hit_at_epoch = 0
        self.stale_served = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- invalidation --------------------------------------------------------
    def bump_epoch(self, reason: str = "unspecified") -> int:
        """O(1) whole-cache invalidation; returns the new epoch."""
        self.epoch += 1
        self.epoch_bumps += 1
        self.bump_reasons[reason] += 1
        return self.epoch

    def flush(self) -> None:
        """Eager invalidation: drop every entry now (frees the memory a
        bump leaves behind; semantically equivalent)."""
        self._entries.clear()
        self.flushes += 1

    # -- the generic lookup/insert pair --------------------------------------
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
        self.last_hit_entry_epoch = epoch
        self.last_hit_at_epoch = self.epoch
        if epoch != self.epoch:  # defense in depth; must be impossible
            self.stale_served += 1
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
        self.insertions += 1

    # -- bitmask ("access vector") variants ----------------------------------
    def lookup_vector(self, key, mask: int) -> bool:
        """Hit iff a live entry's vector covers every bit of *mask*."""
        hit, vector = self.lookup(key)
        if not hit:
            return False
        if mask & vector == mask:
            return True
        # Live entry, but it doesn't prove these bits: a partial miss.
        # The lookup above already counted a hit; correct the books.
        self.hits -= 1
        self.misses += 1
        return False

    def extend_vector(self, key, bits: int) -> None:
        """OR *bits* into the live vector at *key* (insert if absent)."""
        entry = self._entries.get(key)
        if entry is not None and entry[0] == self.epoch:
            self._entries[key] = (self.epoch, entry[1] | bits)
            self._entries.move_to_end(key)
        else:
            self.insert(key, bits)

    def stats(self) -> Dict[str, int]:
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "epoch": self.epoch,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate_pct": (self.hits * 100 // total) if total else 0,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "stale_drops": self.stale_drops,
            "stale_served": self.stale_served,
            "flushes": self.flushes,
            "epoch_bumps": self.epoch_bumps,
            "last_hit_entry_epoch": self.last_hit_entry_epoch,
            "last_hit_at_epoch": self.last_hit_at_epoch,
        }


# -- hot-path key extraction ----------------------------------------------------
#
# Each extractor maps a hook's argument tuple to ``(object_key, mask)`` or
# None when this particular dispatch must not be cached (e.g. an anonymous
# mmap).  The subject half of the key comes from the modules themselves
# (``LsmModule.avc_subject_key``) so every task-derived decision input is
# captured by the module that consumes it.

def _k_file_open(args):
    file = args[1]
    mask = ((MAY_READ if file.wants_read else 0)
            | (MAY_WRITE if file.wants_write else 0))
    return file.path, mask


def _k_file_permission(args):
    return args[1].path, args[2]


def _k_file_ioctl(args):
    # The command is part of the object identity, not the mask: two cmds
    # on one node are two independent decisions.
    return (args[1].path, args[2]), AV_OP


def _k_mmap(args):
    file = args[1]
    if file is None:
        return None  # anonymous mapping: no stable object identity
    return (file.path, args[2]), AV_OP


def _k_bprm(args):
    return args[1], MAY_EXEC


def _k_path1(args):
    return args[1], AV_OP


def _k_path2(args):
    return args[2], AV_OP


def _k_create(args):
    return (args[2], args[3]), AV_OP


def _k_rename(args):
    return (args[1], args[2]), AV_OP


def _k_capable(args):
    return args[1], AV_OP


def _k_sock_family(args):
    return args[1], AV_OP


def _k_sock(args):
    return args[1].family, AV_OP


def _k_sock_addr(args):
    return (args[1].family, args[2]), AV_OP


#: hook -> extractor.  Hooks absent here (task_alloc, task_kill) carry
#: per-call subject pairs with no stable object identity — never cached.
KEY_EXTRACTORS = {
    Hook.FILE_OPEN: _k_file_open,
    Hook.FILE_PERMISSION: _k_file_permission,
    Hook.FILE_IOCTL: _k_file_ioctl,
    Hook.MMAP_FILE: _k_mmap,
    Hook.BPRM_CHECK_SECURITY: _k_bprm,
    Hook.INODE_CREATE: _k_create,
    Hook.INODE_MKDIR: _k_create,
    Hook.INODE_MKNOD: _k_create,
    Hook.INODE_UNLINK: _k_path2,
    Hook.INODE_RMDIR: _k_path2,
    Hook.INODE_RENAME: _k_rename,
    Hook.INODE_GETATTR: _k_path1,
    Hook.INODE_SETATTR: _k_path1,
    Hook.CAPABLE: _k_capable,
    Hook.SOCKET_CREATE: _k_sock_family,
    Hook.SOCKET_BIND: _k_sock_addr,
    Hook.SOCKET_CONNECT: _k_sock_addr,
    Hook.SOCKET_LISTEN: _k_sock,
    Hook.SOCKET_ACCEPT: _k_sock,
    Hook.SOCKET_SENDMSG: _k_sock,
    Hook.SOCKET_RECVMSG: _k_sock,
}

#: Hooks whose vectors hold MAY_* bits: the only hooks the decision
#: table precompiles (from each module's ``compute_av_for_subject()``).
VECTOR_HOOKS = frozenset({Hook.FILE_OPEN, Hook.FILE_PERMISSION})


class AccessVectorCache:
    """The framework's AVC: an :class:`AvcCore` plus the runtime toggle."""

    def __init__(self, capacity: int = 8192, enabled: bool = True):
        self.core = AvcCore(capacity=capacity)
        self.enabled = enabled
        #: Optional ``(reason, new_epoch)`` callback fired after every
        #: epoch bump that flows through this wrapper — the decision
        #: table rides it to recompile eagerly, so table invalidation
        #: shares the AVC's exact invalidation points by construction.
        self.on_bump = None

    def bump_epoch(self, reason: str = "unspecified") -> int:
        epoch = self.core.bump_epoch(reason)
        if self.on_bump is not None:
            self.on_bump(reason, epoch)
        return epoch

    def flush(self) -> None:
        self.core.flush()

    def stats(self) -> Dict[str, int]:
        stats = self.core.stats()
        stats["enabled"] = 1 if self.enabled else 0
        return stats

    def render(self) -> str:
        """``key value`` lines for the ``SACK/avc/stats`` tracefs file."""
        lines = [f"{key} {value}" for key, value in self.stats().items()]
        lines.extend(f"epoch_bumps_{reason} {count}"
                     for reason, count in
                     sorted(self.core.bump_reasons.items()))
        return "\n".join(lines) + "\n"

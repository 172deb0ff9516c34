"""Parsed policy texts, shared by every world on one host.

A fleet host boots many vehicle kernels that load the same texts: the
static AppArmor profiles at boot, then each OTA bundle's profiles and
SACK policy.  Parsing and compiling is a pure function of the text (and,
for SACK, the ioctl symbol table), so one :class:`PolicyCache` per host
does it once and every world on the host reads the result.

The cache is deliberately *not* process-global: two fleets built one
after the other in one process must do identical work, so each host (and
each stand-alone world) owns its own.  What it holds is read-only after
construction; the per-world state built from it (SSMs, live profiles)
stays on the world.  A failed build caches nothing, so a rejected text
fails the same way on every load.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")


class PolicyCache:
    """The last :attr:`CAPACITY` parsed texts, keyed by the exact text."""

    #: Entries kept; the least recently used is dropped first.
    CAPACITY = 8

    def __init__(self):
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable, build: Callable[[], T]) -> T:
        """The entry for *key*, calling *build* () on a miss.

        *key* names everything the entry depends on, the text included.
        """
        entries = self._entries
        try:
            entry = entries[key]
        except KeyError:
            entry = build()
            entries[key] = entry
            if len(entries) > self.CAPACITY:
                entries.popitem(last=False)
            return entry
        entries.move_to_end(key)
        return entry

    def __deepcopy__(self, memo) -> "PolicyCache":
        # A checkpointed world keeps reading its host's cache: the
        # entries are read-only, so sharing them is exact.
        return self

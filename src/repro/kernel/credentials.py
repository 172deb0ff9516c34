"""Task credentials: user/group ids and Linux-style capabilities.

SACK's threat model (paper §III-A) leans on the capability system: writing
policy requires ``CAP_MAC_ADMIN`` and bypassing MAC requires
``CAP_MAC_OVERRIDE``, which attackers are assumed not to hold.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import FrozenSet, Iterable


class Capability(enum.Enum):
    """Subset of Linux capabilities relevant to the simulation.

    Hashed by identity, in C, as :class:`~repro.lsm.hooks.Hook` is:
    every ``capable()`` tests membership in a credential's set.
    """

    __hash__ = object.__hash__

    CAP_CHOWN = "CAP_CHOWN"
    CAP_DAC_OVERRIDE = "CAP_DAC_OVERRIDE"
    CAP_DAC_READ_SEARCH = "CAP_DAC_READ_SEARCH"
    CAP_FOWNER = "CAP_FOWNER"
    CAP_KILL = "CAP_KILL"
    CAP_SETUID = "CAP_SETUID"
    CAP_SETGID = "CAP_SETGID"
    CAP_NET_ADMIN = "CAP_NET_ADMIN"
    CAP_NET_RAW = "CAP_NET_RAW"
    CAP_SYS_ADMIN = "CAP_SYS_ADMIN"
    CAP_SYS_MODULE = "CAP_SYS_MODULE"
    CAP_SYS_RAWIO = "CAP_SYS_RAWIO"
    CAP_MKNOD = "CAP_MKNOD"
    CAP_MAC_ADMIN = "CAP_MAC_ADMIN"
    CAP_MAC_OVERRIDE = "CAP_MAC_OVERRIDE"
    CAP_AUDIT_WRITE = "CAP_AUDIT_WRITE"


#: The full capability set granted to uid-0 tasks at world creation.
FULL_CAPS: FrozenSet[Capability] = frozenset(Capability)

#: Capabilities a plain (non-root) IVI app starts with: none.
NO_CAPS: FrozenSet[Capability] = frozenset()


@dataclasses.dataclass(frozen=True)
class Credentials:
    """Immutable credential record attached to each task.

    Mirrors ``struct cred``: real and effective ids plus the effective
    capability set.  Frozen so credential changes always go through
    :meth:`with_uid` / :meth:`with_caps`, making audit trails reliable.
    """

    uid: int = 0
    gid: int = 0
    euid: int = 0
    egid: int = 0
    caps: FrozenSet[Capability] = FULL_CAPS

    def has_cap(self, cap: Capability) -> bool:
        """True when the effective capability set contains *cap*."""
        return cap in self.caps

    @property
    def is_root(self) -> bool:
        return self.euid == 0

    def with_uid(self, uid: int, gid: int | None = None) -> "Credentials":
        """Return new credentials running as *uid* (drops caps unless root)."""
        gid = uid if gid is None else gid
        caps = self.caps if uid == 0 else NO_CAPS
        return Credentials(uid=uid, gid=gid, euid=uid, egid=gid, caps=caps)

    def with_caps(self, caps: Iterable[Capability]) -> "Credentials":
        """Return new credentials whose capability set is exactly *caps*."""
        return dataclasses.replace(self, caps=frozenset(caps))

    def adding_caps(self, *caps: Capability) -> "Credentials":
        """Return new credentials with *caps* added to the effective set."""
        return dataclasses.replace(self, caps=self.caps | frozenset(caps))

    def dropping_caps(self, *caps: Capability) -> "Credentials":
        """Return new credentials with *caps* removed from the effective set."""
        return dataclasses.replace(self, caps=self.caps - frozenset(caps))


ROOT_CREDENTIALS = Credentials()


def user_credentials(uid: int, gid: int | None = None,
                     caps: Iterable[Capability] = ()) -> Credentials:
    """Credentials for an unprivileged user, optionally with extra caps."""
    gid = uid if gid is None else gid
    return Credentials(uid=uid, gid=gid, euid=uid, egid=gid,
                       caps=frozenset(caps))

"""securityfs: the pseudo-filesystem security modules expose files through.

The paper (§III-C, §IV-C-2) transmits situation events through a
securityfs file because it "has security, integrity and efficiency
guarantees from the LSM framework": it lives in the kernel, its files are
backed by module callbacks rather than pages, and access is gated by DAC
plus capability checks.  This module reproduces that surface at
``/sys/kernel/security``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..kernel.credentials import Capability
from ..kernel.vfs.inode import PseudoFileOps

#: Where securityfs lives, as on Linux.
SECURITYFS_ROOT = "/sys/kernel/security"


class SecurityFs:
    """Manages the securityfs mount and file registration for one kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        kernel.vfs.mount("securityfs", SECURITYFS_ROOT)
        self.root = SECURITYFS_ROOT

    def create_dir(self, name: str) -> str:
        """Create (or reuse) a module directory; returns its path."""
        path = f"{self.root}/{name}"
        self.kernel.vfs.makedirs(path)
        return path

    def create_file(self, relpath: str,
                    read: Optional[Callable[[object], bytes]] = None,
                    write: Optional[Callable[[object, bytes], int]] = None,
                    mode: int = 0o600,
                    write_cap: Optional[Capability] = None) -> str:
        """Register a securityfs file backed by *read*/*write* callbacks.

        When *write_cap* is given, writes additionally require that
        capability — the kernel's write path checks ``capable()`` through
        the full LSM stack, the same way SACK's policy files demand
        ``CAP_MAC_ADMIN``.
        """
        path = f"{self.root}/{relpath}"
        parent = path.rsplit("/", 1)[0]
        self.kernel.vfs.makedirs(parent)
        ops = PseudoFileOps(read=read, write=write, write_cap=write_cap)
        self.kernel.vfs.create_pseudo(path, ops, mode=mode)
        return path

    def remove(self, relpath: str) -> None:
        self.kernel.vfs.unlink(f"{self.root}/{relpath}")

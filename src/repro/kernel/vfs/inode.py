"""Inodes: the per-object state of the simulated VFS.

An inode carries everything access control cares about — owner, mode bits,
file type, device numbers — plus a ``security`` blob dictionary where LSMs
stash per-object state (mirroring ``inode->i_security``).
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Dict, Optional, Tuple

from ..credentials import Capability
from ..errors import Errno, KernelError


class FileType(enum.Enum):
    """File types understood by the simulator (a subset of Linux's)."""

    REGULAR = "reg"
    DIRECTORY = "dir"
    CHARDEV = "chr"
    FIFO = "fifo"
    SOCKET = "sock"
    SYMLINK = "lnk"


class PseudoFileOps:
    """Callbacks backing a pseudo-file (securityfs-style).

    ``read`` produces the whole file content; ``write`` consumes the whole
    buffer.  Either may raise :class:`KernelError`.  ``task`` is the calling
    task so handlers can enforce capability checks, exactly like real
    securityfs file ops consult ``current_cred()``.  ``write_cap``, when
    set, is the capability the kernel's write path demands before it
    calls ``write`` — a check of the kernel that owns the file, so a deep
    copy of a world checks its own.
    """

    def __init__(self,
                 read: Optional[Callable[[object], bytes]] = None,
                 write: Optional[Callable[[object, bytes], int]] = None,
                 write_cap: Optional[Capability] = None):
        self.read = read
        self.write = write
        self.write_cap = write_cap


class Inode:
    """A single filesystem object.

    Inode numbers are allocated by the owning VFS (per-kernel), so two
    kernels built side by side assign identical numbers to identical
    trees.  The class-level counter only backs inodes constructed outside
    any VFS (unit tests poking at bare inodes).
    """

    _ino_counter = itertools.count(1)

    def __init__(self, file_type: FileType, mode: int = 0o644,
                 uid: int = 0, gid: int = 0,
                 rdev: Optional[Tuple[int, int]] = None,
                 symlink_target: Optional[str] = None,
                 pseudo_ops: Optional[PseudoFileOps] = None,
                 now_ns: int = 0, ino: Optional[int] = None):
        self.ino: int = ino if ino is not None else next(Inode._ino_counter)
        self.file_type = file_type
        self.mode = mode & 0o7777
        self.uid = uid
        self.gid = gid
        self.nlink = 2 if file_type is FileType.DIRECTORY else 1
        self.rdev = rdev
        self.symlink_target = symlink_target
        self.pseudo_ops = pseudo_ops
        self.data = bytearray() if file_type is FileType.REGULAR else None
        self.atime_ns = self.mtime_ns = self.ctime_ns = now_ns
        #: Per-LSM state, keyed by module name (``inode->i_security``).
        self.security: Dict[str, object] = {}

    # -- type predicates ---------------------------------------------------
    @property
    def is_dir(self) -> bool:
        return self.file_type is FileType.DIRECTORY

    @property
    def is_regular(self) -> bool:
        return self.file_type is FileType.REGULAR

    @property
    def is_chardev(self) -> bool:
        return self.file_type is FileType.CHARDEV

    @property
    def is_symlink(self) -> bool:
        return self.file_type is FileType.SYMLINK

    @property
    def is_pseudo(self) -> bool:
        return self.pseudo_ops is not None

    @property
    def size(self) -> int:
        if self.data is not None:
            return len(self.data)
        return 0

    # -- data access (regular files) ---------------------------------------
    def read_at(self, offset: int, count: int) -> bytes:
        """Read up to *count* bytes at *offset* from a regular file."""
        if self.data is None:
            raise KernelError(Errno.EINVAL, "inode has no data pages")
        if offset < 0 or count < 0:
            raise KernelError(Errno.EINVAL, "negative offset or count")
        return bytes(self.data[offset:offset + count])

    def write_at(self, offset: int, buf: bytes) -> int:
        """Write *buf* at *offset*, extending the file as needed."""
        if self.data is None:
            raise KernelError(Errno.EINVAL, "inode has no data pages")
        if offset < 0:
            raise KernelError(Errno.EINVAL, "negative offset")
        if offset > len(self.data):
            self.data.extend(b"\x00" * (offset - len(self.data)))
        self.data[offset:offset + len(buf)] = buf
        return len(buf)

    def truncate(self, length: int = 0) -> None:
        if self.data is None:
            raise KernelError(Errno.EINVAL, "inode has no data pages")
        if length < 0:
            raise KernelError(Errno.EINVAL, "negative length")
        if length <= len(self.data):
            del self.data[length:]
        else:
            self.data.extend(b"\x00" * (length - len(self.data)))

    def stat(self) -> Dict[str, object]:
        """Return a ``stat``-like mapping for this inode."""
        return {
            "ino": self.ino,
            "type": self.file_type.value,
            "mode": self.mode,
            "uid": self.uid,
            "gid": self.gid,
            "nlink": self.nlink,
            "size": self.size,
            "rdev": self.rdev,
            "atime_ns": self.atime_ns,
            "mtime_ns": self.mtime_ns,
            "ctime_ns": self.ctime_ns,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Inode(ino={self.ino}, type={self.file_type.value}, "
                f"mode={oct(self.mode)}, uid={self.uid})")

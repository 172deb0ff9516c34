"""Dentries: the name tree of the simulated VFS."""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..errors import Errno, KernelError
from .inode import Inode


class Dentry:
    """A named link from a directory to an inode.

    The dentry tree *is* the namespace; path resolution walks it.  Unlike
    Linux we keep the whole tree in memory and never evict a dentry —
    the simulator's worlds are small.  The lookup cache in front of the
    walk is ``VirtualFileSystem.dcache``; a dentry is attached and
    detached only through the VFS, which drops that cache each time.
    """

    def __init__(self, name: str, inode: Inode,
                 parent: Optional["Dentry"] = None):
        self.name = name
        self.inode = inode
        self.parent = parent
        self.children: Dict[str, "Dentry"] = {}

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def path(self) -> str:
        """Absolute path of this dentry."""
        if self.is_root:
            return "/"
        parts = []
        node: Optional[Dentry] = self
        while node is not None and not node.is_root:
            parts.append(node.name)
            node = node.parent
        return "/" + "/".join(reversed(parts))

    def lookup(self, name: str) -> "Dentry":
        """Find child *name*; raises ``ENOENT`` when absent."""
        try:
            return self.children[name]
        except KeyError:
            raise KernelError(Errno.ENOENT,
                              f"{self.path()}/{name}") from None

    def has_child(self, name: str) -> bool:
        return name in self.children

    def attach(self, name: str, inode: Inode) -> "Dentry":
        """Create a child dentry *name* pointing at *inode*."""
        if not self.inode.is_dir:
            raise KernelError(Errno.ENOTDIR, self.path())
        if name in self.children:
            raise KernelError(Errno.EEXIST, f"{self.path()}/{name}")
        child = Dentry(name, inode, parent=self)
        self.children[name] = child
        if inode.is_dir:
            self.inode.nlink += 1
        return child

    def detach(self, name: str) -> "Dentry":
        """Remove and return child dentry *name*."""
        child = self.lookup(name)
        del self.children[name]
        if child.inode.is_dir:
            self.inode.nlink -= 1
        child.inode.nlink -= 1
        child.parent = None
        return child

    def iter_children(self) -> Iterator["Dentry"]:
        return iter(self.children.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Dentry({self.path()!r}, ino={self.inode.ino})"

"""The virtual filesystem: a dentry tree plus namespace operations.

This layer is *mechanism only* — it performs no permission checks.  DAC
checks and LSM hooks live in :mod:`repro.kernel.syscalls`, mirroring the
Linux split between ``fs/namei.c`` mechanics and ``security/`` policy.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..clock import VirtualClock
from ..errors import Errno, KernelError
from .dentry import Dentry
from .inode import FileType, Inode, PseudoFileOps
from .mount import Mount, MountTable
from .path import PATH_MAX, normalize, split_components, split_parent

# File types the walk loop tests directly: the ``Inode.is_*`` properties
# are a Python call per component.
_DIRECTORY = FileType.DIRECTORY
_SYMLINK = FileType.SYMLINK

#: Maximum symlink traversals during one resolution (Linux: 40).
MAX_SYMLINK_DEPTH = 40


class VirtualFileSystem:
    """A single-namespace VFS rooted at ``/``."""

    def __init__(self, clock: Optional[VirtualClock] = None):
        self.clock = clock or VirtualClock()
        #: Per-VFS inode number allocator: two kernels built side by side
        #: must stamp identical inode numbers onto identical trees (fleet
        #: runs fingerprint them), so numbering never crosses instances.
        self._ino_alloc = itertools.count(1)
        self.root = Dentry("", Inode(FileType.DIRECTORY, mode=0o755,
                                     now_ns=self.clock.now_ns,
                                     ino=next(self._ino_alloc)))
        self.mounts = MountTable()
        self.mounts.add(Mount(fstype="ramfs", mountpoint="/"))
        #: The dcache: normalised path -> ``(dentry, resolved path,
        #: normalised path)`` of a successful symlink-following walk.
        #: Every key is an output of :func:`normalize`, which maps its
        #: own outputs to themselves, so a caller may look a path up
        #: *before* normalising it: a hit is what normalise-then-walk
        #: gives, and a relative path is never a key.  Misses,
        #: ``ENOTDIR``/``ELOOP`` and no-follow lookups are never stored.
        #: Every namespace change (each :meth:`_attach`/:meth:`_detach`)
        #: drops the whole cache.
        self.dcache: Dict[str, Tuple[Dentry, str, str]] = {}

    def __getstate__(self):
        # The dcache is derived state: a copy (a fleet checkpoint)
        # starts it empty rather than copying an entry per path.
        return {**vars(self), "dcache": {}}

    # -- resolution ---------------------------------------------------------
    def walk(self, norm_path: str, follow_symlinks: bool = True
             ) -> Tuple[Optional[Dentry], str]:
        """The one path walk: ``(dentry, path)`` for a normalised path.

        *path* is the dentry's absolute path, which is *norm_path* itself
        unless a symlink was crossed, so callers never rebuild it from
        the dentry tree.  A missing component (or a symlink with an
        empty target) gives ``(None, path)`` without raising; ``ENOTDIR``
        (a non-final component is not a directory) and ``ELOOP`` (more
        than :data:`MAX_SYMLINK_DEPTH` symlinks crossed) raise.  A final
        symlink is followed only with *follow_symlinks*; a non-final one
        always is.
        """
        path = norm_path
        depth = 0
        while True:
            comps = path[1:].split("/") if len(path) > 1 else []
            last = len(comps) - 1
            node = self.root
            for i, comp in enumerate(comps):
                if node.inode.file_type is not _DIRECTORY:
                    raise KernelError(Errno.ENOTDIR,
                                      "/" + "/".join(comps[:i]))
                node = node.children.get(comp)
                if node is None:
                    return None, path
                inode = node.inode
                if inode.file_type is _SYMLINK and (follow_symlinks
                                                    or i != last):
                    if not inode.symlink_target:
                        return None, path
                    target = normalize(inode.symlink_target,
                                       cwd="/" + "/".join(comps[:i]))
                    rest = "/".join(comps[i + 1:])
                    path = normalize(target if not rest
                                     else target.rstrip("/") + "/" + rest)
                    depth += 1
                    if depth > MAX_SYMLINK_DEPTH:
                        raise KernelError(Errno.ELOOP, path)
                    break
            else:
                return node, path

    def walk_cached(self, path: str, cwd: str = "/"
                    ) -> Tuple[Optional[Dentry], str, str]:
        """``(dentry or None, resolved path, normalised path)`` for
        *path*, following symlinks, served from the dcache when it can.

        *path* itself is looked up first, before :func:`normalize`; then
        its normalised form; only then does :meth:`walk` run, and a
        found dentry is stored.  Errors are :meth:`walk`'s.
        """
        dcache = self.dcache
        hit = dcache.get(path)
        if hit is not None:
            return hit
        norm = normalize(path, cwd)
        hit = dcache.get(norm)
        if hit is not None:
            return hit
        dentry, resolved = self.walk(norm)
        # A joined cwd + relative path may exceed PATH_MAX, which
        # normalize would refuse as a key; such a path is not stored.
        if dentry is None or len(norm) > PATH_MAX:
            return dentry, resolved, norm
        entry = dcache[norm] = (dentry, resolved, norm)
        return entry

    def lookup(self, path: str, cwd: str = "/",
               follow_symlinks: bool = True) -> Tuple[Dentry, str]:
        """``(dentry, resolved path)`` for *path*; raises ``ENOENT`` for a
        missing component, and ``ENOTDIR``/``ELOOP`` as :meth:`walk`."""
        if follow_symlinks:
            dentry, resolved, _norm = self.walk_cached(path, cwd)
        else:
            dentry, resolved = self.walk(normalize(path, cwd), False)
        if dentry is None:
            raise KernelError(Errno.ENOENT, resolved)
        return dentry, resolved

    def resolve(self, path: str, cwd: str = "/",
                follow_symlinks: bool = True) -> Dentry:
        """The dentry for *path* (errors as :meth:`lookup`)."""
        return self.lookup(path, cwd, follow_symlinks)[0]

    def try_resolve(self, path: str, cwd: str = "/") -> Optional[Dentry]:
        """Like :meth:`resolve` but returns ``None`` on ``ENOENT``."""
        if not path:
            return None          # the empty path names nothing
        return self.walk_cached(path, cwd)[0]

    def exists(self, path: str, cwd: str = "/") -> bool:
        return self.try_resolve(path, cwd) is not None

    def _resolve_parent(self, path: str, cwd: str) -> Tuple[Dentry, str]:
        norm = normalize(path, cwd)
        parent_path, name = split_parent(norm)
        # Uncached: the change this lookup serves drops the dcache, so
        # storing the parent would only add work to every create.
        parent, resolved = self.walk(parent_path)
        if parent is None:
            raise KernelError(Errno.ENOENT, resolved)
        if not parent.inode.is_dir:
            raise KernelError(Errno.ENOTDIR, parent_path)
        return parent, name

    # -- namespace changes ----------------------------------------------------
    # Every change to the dentry tree goes through these two, so none
    # can leave a stale dcache entry behind.
    def _attach(self, parent: Dentry, name: str, inode: Inode) -> Dentry:
        self.dcache.clear()
        return parent.attach(name, inode)

    def _detach(self, parent: Dentry, name: str) -> Dentry:
        self.dcache.clear()
        return parent.detach(name)

    # -- creation -----------------------------------------------------------
    def create_file(self, path: str, mode: int = 0o644, uid: int = 0,
                    gid: int = 0, cwd: str = "/") -> Dentry:
        """Create an empty regular file."""
        parent, name = self._resolve_parent(path, cwd)
        inode = Inode(FileType.REGULAR, mode=mode, uid=uid, gid=gid,
                      now_ns=self.clock.now_ns, ino=next(self._ino_alloc))
        return self._attach(parent, name, inode)

    def mkdir(self, path: str, mode: int = 0o755, uid: int = 0,
              gid: int = 0, cwd: str = "/") -> Dentry:
        parent, name = self._resolve_parent(path, cwd)
        inode = Inode(FileType.DIRECTORY, mode=mode, uid=uid, gid=gid,
                      now_ns=self.clock.now_ns, ino=next(self._ino_alloc))
        return self._attach(parent, name, inode)

    def makedirs(self, path: str, mode: int = 0o755) -> Dentry:
        """Create *path* and any missing ancestors (like ``mkdir -p``)."""
        norm = normalize(path)
        node = self.root
        for comp in split_components(norm):
            if node.has_child(comp):
                node = node.lookup(comp)
                if not node.inode.is_dir:
                    raise KernelError(Errno.ENOTDIR, node.path())
            else:
                node = self._attach(node, comp, Inode(
                    FileType.DIRECTORY, mode=mode,
                    now_ns=self.clock.now_ns, ino=next(self._ino_alloc)))
        return node

    def mknod(self, path: str, rdev: Tuple[int, int], mode: int = 0o600,
              uid: int = 0, gid: int = 0) -> Dentry:
        """Create a character-device node with device numbers *rdev*."""
        parent, name = self._resolve_parent(path, "/")
        inode = Inode(FileType.CHARDEV, mode=mode, uid=uid, gid=gid,
                      rdev=rdev, now_ns=self.clock.now_ns,
                      ino=next(self._ino_alloc))
        return self._attach(parent, name, inode)

    def symlink(self, target: str, linkpath: str) -> Dentry:
        parent, name = self._resolve_parent(linkpath, "/")
        inode = Inode(FileType.SYMLINK, mode=0o777,
                      symlink_target=target, now_ns=self.clock.now_ns,
                      ino=next(self._ino_alloc))
        return self._attach(parent, name, inode)

    def create_pseudo(self, path: str, ops: PseudoFileOps,
                      mode: int = 0o600) -> Dentry:
        """Create a pseudo-file (securityfs-style) backed by callbacks."""
        parent, name = self._resolve_parent(path, "/")
        inode = Inode(FileType.REGULAR, mode=mode, pseudo_ops=ops,
                      now_ns=self.clock.now_ns, ino=next(self._ino_alloc))
        inode.data = None  # content comes from callbacks, not pages
        return self._attach(parent, name, inode)

    # -- removal ------------------------------------------------------------
    def unlink(self, path: str, cwd: str = "/") -> Inode:
        """Remove a non-directory entry; returns the orphaned inode."""
        dentry = self.resolve(path, cwd, follow_symlinks=False)
        if dentry.inode.is_dir:
            raise KernelError(Errno.EISDIR, path)
        if dentry.parent is None:
            raise KernelError(Errno.EBUSY, path)
        return self._detach(dentry.parent, dentry.name).inode

    def rmdir(self, path: str, cwd: str = "/") -> Inode:
        dentry = self.resolve(path, cwd, follow_symlinks=False)
        if not dentry.inode.is_dir:
            raise KernelError(Errno.ENOTDIR, path)
        if dentry.children:
            raise KernelError(Errno.ENOTEMPTY, path)
        if dentry.parent is None:
            raise KernelError(Errno.EBUSY, "cannot remove root")
        return self._detach(dentry.parent, dentry.name).inode

    def rename(self, old: str, new: str, cwd: str = "/") -> Dentry:
        src = self.resolve(old, cwd, follow_symlinks=False)
        if src.parent is None:
            raise KernelError(Errno.EBUSY, "cannot move root")
        new_parent, new_name = self._resolve_parent(new, cwd)
        node: Optional[Dentry] = new_parent
        while node is not None:
            if node is src:     # a directory into its own subtree
                raise KernelError(Errno.EINVAL, f"{old} -> {new}")
            node = node.parent
        if new_parent.has_child(new_name):
            existing = new_parent.lookup(new_name)
            if existing is src:
                return src      # onto itself: rename(2) does nothing
            if existing.inode.is_dir and existing.children:
                raise KernelError(Errno.ENOTEMPTY, new)
            self._detach(new_parent, new_name)
        moved = self._detach(src.parent, src.name)
        return self._attach(new_parent, new_name, moved.inode)

    # -- queries ------------------------------------------------------------
    def listdir(self, path: str, cwd: str = "/") -> List[str]:
        dentry = self.resolve(path, cwd)
        if not dentry.inode.is_dir:
            raise KernelError(Errno.ENOTDIR, path)
        return sorted(dentry.children)

    def mount(self, fstype: str, mountpoint: str,
              read_only: bool = False) -> Mount:
        """Record a filesystem mount at *mountpoint* (created if missing)."""
        self.makedirs(mountpoint)
        mount = Mount(fstype=fstype, mountpoint=normalize(mountpoint),
                      read_only=read_only)
        self.mounts.add(mount)
        return mount

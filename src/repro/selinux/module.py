"""SELinux-style type enforcement as an LSM module.

Labeling model:

* tasks carry a :class:`SecurityContext` blob; init starts as
  ``init_t`` and domains change at exec via ``type_transition`` rules;
* inodes are labeled lazily from the policy's file contexts (the
  simulator's ``restorecon`` moment is first access);
* unconfined domains (targeted-policy style) bypass TE checks — the
  simulator defaults ``kernel_t``/``init_t``/``unconfined_t`` so a base
  system works without a thousand-rule base policy, exactly like a
  distro's targeted policy.

Decisions come from the AVC; policy mutations bump the policy revision
which flushes the cache — the property the SACK bridge depends on.
"""

from __future__ import annotations

from typing import Optional, Set

from ..kernel.syscalls import MAY_READ, MAY_WRITE
from ..kernel.vfs.file import OpenFile
from ..lsm.blob import get_blob, set_blob
from ..lsm.module import LsmModule
from .avc import AccessVectorCache
from .context import INIT_CONTEXT, SecurityContext, UNLABELED
from .policy import SelinuxPolicy

MODULE_NAME = "selinux"

#: Domains that bypass TE (targeted-policy unconfined set).
DEFAULT_UNCONFINED = frozenset({"kernel_t", "init_t", "unconfined_t"})


class SelinuxLsm(LsmModule):
    """The type-enforcement security module."""

    name = MODULE_NAME

    def __init__(self, policy: Optional[SelinuxPolicy] = None,
                 enforcing: bool = True,
                 unconfined_types: Set[str] = DEFAULT_UNCONFINED):
        self.policy = policy or SelinuxPolicy()
        self.avc = AccessVectorCache(self.policy)
        self.enforcing = enforcing
        self.unconfined_types = set(unconfined_types)
        self.denial_count = 0

    # -- labeling --------------------------------------------------------------
    def context_of(self, task) -> SecurityContext:
        context = get_blob(task, MODULE_NAME)
        return context if context is not None else INIT_CONTEXT

    def set_context(self, task, context: SecurityContext) -> None:
        set_blob(task, MODULE_NAME, context)

    def label_of_inode(self, inode, path: str) -> SecurityContext:
        """Lazy restorecon: label the inode on first security use."""
        label = inode.security.get(MODULE_NAME)
        if label is None:
            label = self.policy.context_for_path(path)
            inode.security[MODULE_NAME] = label
        return label

    def relabel_tree(self, kernel) -> int:
        """Eager restorecon over already-labeled inodes (after policy
        changes); returns how many labels changed."""
        changed = 0

        def walk(dentry):
            nonlocal changed
            inode = dentry.inode
            if MODULE_NAME in inode.security:
                fresh = self.policy.context_for_path(dentry.path())
                if inode.security[MODULE_NAME] != fresh:
                    inode.security[MODULE_NAME] = fresh
                    changed += 1
            for child in dentry.iter_children():
                walk(child)

        walk(kernel.vfs.root)
        return changed

    @staticmethod
    def _class_of(inode) -> str:
        if inode.is_chardev:
            return "chr_file"
        if inode.is_dir:
            return "dir"
        return "file"

    # -- the decision core -----------------------------------------------------
    def _check(self, task, target_type: str, tclass: str, perm: str,
               detail: str) -> int:
        source = self.context_of(task).type
        if source in self.unconfined_types:
            return 0
        if self.avc.allowed(source, target_type, tclass, perm):
            return 0
        if not self.enforcing:
            self.audit("selinux_permissive",
                       f"{source} -> {target_type}:{tclass} {perm} "
                       f"({detail})", task)
            return 0
        self.denial_count += 1
        self.audit("selinux_denied",
                   f"{source} -> {target_type}:{tclass} {perm} ({detail})",
                   task)
        return self.EACCES

    def _check_file(self, task, file_or_inode, path: str,
                    perm: str) -> int:
        inode = getattr(file_or_inode, "inode", file_or_inode)
        label = self.label_of_inode(inode, path)
        return self._check(task, label.type, self._class_of(inode), perm,
                           path)

    # -- exec & domain transitions ------------------------------------------------
    def bprm_check_security(self, task, exe_path: str) -> int:
        dentry = self.kernel.vfs.try_resolve(exe_path) \
            if self.kernel else None
        if dentry is None:
            return 0
        label = self.label_of_inode(dentry.inode, exe_path)
        return self._check_file(task, dentry.inode, exe_path, "execute")

    def bprm_committed_creds(self, task, exe_path: str) -> None:
        if self.kernel is None:
            return
        dentry = self.kernel.vfs.try_resolve(exe_path)
        if dentry is None:
            return
        exe_type = self.label_of_inode(dentry.inode, exe_path).type
        source = self.context_of(task)
        new_type = self.policy.transition_for(source.type, exe_type)
        if new_type is not None:
            self.set_context(task, source.with_type(new_type))

    # -- file hooks ------------------------------------------------------------
    def file_open(self, task, file: OpenFile) -> int:
        if file.wants_read:
            rc = self._check_file(task, file, file.path, "read")
            if rc != 0:
                return rc
        if file.wants_write:
            return self._check_file(task, file, file.path, "write")
        return 0

    def file_permission(self, task, file: OpenFile, mask: int) -> int:
        if mask & MAY_READ:
            rc = self._check_file(task, file, file.path, "read")
            if rc != 0:
                return rc
        if mask & MAY_WRITE:
            return self._check_file(task, file, file.path, "write")
        return 0

    def file_ioctl(self, task, file: OpenFile, cmd: int, arg: int) -> int:
        return self._check_file(task, file, file.path, "ioctl")

    def mmap_file(self, task, file, prot: int) -> int:
        if file is None:
            return 0
        return self._check_file(task, file, file.path, "map")

    def inode_create(self, task, parent_inode, path: str,
                     mode: int) -> int:
        # The new object gets the policy label for its path; creation
        # needs 'create' on that type (simplified from SELinux's
        # dir add_name + file create pair).
        target = self.policy.context_for_path(path)
        return self._check(task, target.type, "file", "create", path)

    def inode_unlink(self, task, inode, path: str) -> int:
        return self._check_file(task, inode, path, "unlink")

    # -- sockets ---------------------------------------------------------------
    def socket_create(self, task, family) -> int:
        source = self.context_of(task).type
        return self._check(task, source, "socket", "create",
                           str(family))

    def socket_connect(self, task, sock, addr) -> int:
        source = self.context_of(task).type
        return self._check(task, source, "socket", "connect", str(addr))

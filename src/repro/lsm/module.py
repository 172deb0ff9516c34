"""Base class for Linux security modules in the simulator."""

from __future__ import annotations

from ..kernel.credentials import Capability
from ..kernel.errors import Errno


class LsmModule:
    """A security module: a named bundle of hook implementations.

    Subclasses override the hooks they care about.  The default for every
    decision hook is 0 (allow) — an LSM that implements nothing restricts
    nothing, exactly as in Linux.  Deny by returning ``-int(Errno.EACCES)``
    (or any negative errno).
    """

    name = "lsm"

    #: Set by the framework at registration time; lets modules reach the
    #: kernel (audit log, clock, VFS) without global state.
    kernel = None

    def registered(self, kernel) -> None:
        """Called by the framework once the module joins the stack."""
        self.kernel = kernel

    def bump_epoch(self, reason: str) -> None:
        """Advance the stack's situation epoch (see
        :meth:`LsmFramework.bump_epoch`).

        Safe to call from unregistered or framework-less configurations;
        the module need not know whether a framework is present.
        """
        security = getattr(getattr(self, "kernel", None), "security", None)
        bump = getattr(security, "bump_epoch", None)
        if bump is not None:
            bump(reason)

    # Convenience deny values ------------------------------------------------
    EACCES = -int(Errno.EACCES)
    EPERM = -int(Errno.EPERM)

    def audit(self, kind: str, detail: str, task=None) -> None:
        """Emit an audit record tagged with this module's name."""
        if self.kernel is None:
            return
        from ..kernel.syscalls import AuditRecord
        self.kernel.audit.emit(AuditRecord(
            self.kernel.clock.now_ns, kind, f"{self.name}: {detail}",
            pid=getattr(task, "pid", 0), comm=getattr(task, "comm", "")))

    # -- task hooks -----------------------------------------------------------
    def task_alloc(self, parent, child) -> int:
        return 0

    def bprm_check_security(self, task, exe_path: str) -> int:
        return 0

    def bprm_committed_creds(self, task, exe_path: str) -> None:
        pass

    def task_kill(self, task, target) -> int:
        return 0

    def capable(self, task, cap: Capability) -> int:
        return 0

    # -- inode hooks ------------------------------------------------------------
    def inode_create(self, task, parent_inode, path: str, mode: int) -> int:
        return 0

    def inode_mkdir(self, task, parent_inode, path: str, mode: int) -> int:
        return 0

    def inode_mknod(self, task, parent_inode, path: str, mode: int) -> int:
        return 0

    def inode_unlink(self, task, inode, path: str) -> int:
        return 0

    def inode_rmdir(self, task, inode, path: str) -> int:
        return 0

    def inode_rename(self, task, old_path: str, new_path: str) -> int:
        return 0

    def inode_getattr(self, task, path: str) -> int:
        return 0

    def inode_setattr(self, task, path: str) -> int:
        return 0

    # -- file hooks ------------------------------------------------------------
    def file_open(self, task, file) -> int:
        return 0

    def file_permission(self, task, file, mask: int) -> int:
        return 0

    def file_ioctl(self, task, file, cmd: int, arg: int) -> int:
        return 0

    def mmap_file(self, task, file, prot: int) -> int:
        return 0

    # -- socket hooks ------------------------------------------------------------
    def socket_create(self, task, family) -> int:
        return 0

    def socket_bind(self, task, sock, addr) -> int:
        return 0

    def socket_listen(self, task, sock) -> int:
        return 0

    def socket_connect(self, task, sock, addr) -> int:
        return 0

    def socket_accept(self, task, sock) -> int:
        return 0

    def socket_sendmsg(self, task, sock, size: int) -> int:
        return 0

    def socket_recvmsg(self, task, sock, size: int) -> int:
        return 0

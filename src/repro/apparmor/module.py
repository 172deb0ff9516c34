"""AppArmor as an LSM module for the simulated kernel.

Confinement model: a task's blob holds the *name* of its profile (or None
for unconfined).  Profiles attach at exec time by attachment glob; children
inherit on fork (the kernel copies task blobs).  Enforce mode denies,
complain mode audits and allows — both matter for the compatibility
experiments.
"""

from __future__ import annotations

from typing import Optional

from ..kernel.credentials import Capability
from ..kernel.ipc import SocketFamily
from ..kernel.syscalls import MAY_EXEC, MAY_READ, MAY_WRITE
from ..kernel.vfs.file import OpenFile
from ..lsm.blob import get_blob, set_blob
from ..lsm.module import LsmModule
from .policydb import PolicyDb
from .profile import ExecMode, FilePerm, Profile, ProfileMode

MODULE_NAME = "apparmor"


def _mask_to_perms(mask: int) -> FilePerm:
    perms = FilePerm.NONE
    if mask & MAY_READ:
        perms |= FilePerm.READ
    if mask & MAY_WRITE:
        perms |= FilePerm.WRITE
    if mask & MAY_EXEC:
        perms |= FilePerm.EXEC
    return perms


class AppArmorLsm(LsmModule):
    """The AppArmor security module."""

    name = MODULE_NAME

    def __init__(self, policy: Optional[PolicyDb] = None):
        self.policy = policy or PolicyDb()
        self.denial_count = 0
        self.complain_count = 0
        self._policy_watched = False

    def registered(self, kernel) -> None:
        super().registered(kernel)
        if not self._policy_watched:
            self.policy.subscribe(self._on_policy_change)
            self._policy_watched = True

    def _on_policy_change(self) -> None:
        self.bump_epoch("profile-reload")

    # -- confinement helpers ------------------------------------------------
    def profile_of(self, task) -> Optional[Profile]:
        """The live profile confining *task* (None = unconfined)."""
        name = get_blob(task, MODULE_NAME)
        if name is None:
            return None
        return self.policy.get(name)

    def confine(self, task, profile_name: Optional[str]) -> None:
        """Explicitly place *task* under *profile_name* (test/boot helper)."""
        set_blob(task, MODULE_NAME, profile_name)

    def _decide(self, profile: Profile, allowed: bool, task,
                detail: str) -> int:
        if allowed:
            return 0
        if profile.mode is ProfileMode.COMPLAIN:
            self.complain_count += 1
            self.audit("complain", detail, task)
            return 0
        self.denial_count += 1
        obs = getattr(self.kernel, "obs", None)
        if obs is not None:
            # Attribution for post-transition hook spans: which profile,
            # in which mode, denied this access.
            obs.spans.annotate(profile=profile.name,
                               mode=profile.mode.value, detail=detail)
        self.audit("apparmor_denied", detail, task)
        return self.EACCES

    def _check_path(self, task, path: str, perms: FilePerm,
                    what: str) -> int:
        profile = self.profile_of(task)
        if profile is None or perms == FilePerm.NONE:
            return 0
        ok = profile.allows_file(path, perms)
        return self._decide(profile, ok, task, f"{what} {path}")

    # -- exec & fork ------------------------------------------------------------
    def bprm_check_security(self, task, exe_path: str) -> int:
        profile = self.profile_of(task)
        if profile is None:
            return 0
        mode = profile.exec_mode_for(exe_path)
        return self._decide(profile, mode is not None, task,
                            f"exec {exe_path}")

    def bprm_committed_creds(self, task, exe_path: str) -> None:
        profile = self.profile_of(task)
        if profile is None:
            target = self.policy.attach_for_exe(exe_path)
            set_blob(task, MODULE_NAME, target.name if target else None)
            return
        mode = profile.exec_mode_for(exe_path)
        if mode is ExecMode.UNCONFINED:
            set_blob(task, MODULE_NAME, None)
        elif mode is ExecMode.PROFILE:
            target = self.policy.attach_for_exe(exe_path)
            set_blob(task, MODULE_NAME, target.name if target else None)
        # INHERIT (or denied-but-complain): keep the current profile.

    # -- file hooks ------------------------------------------------------------
    def file_open(self, task, file: OpenFile) -> int:
        # Unconfined tasks short-circuit before any flag arithmetic — in
        # AppArmor proper this is a single label pointer compare.
        if task.security.get(MODULE_NAME) is None:
            return 0
        perms = FilePerm.NONE
        if file.wants_read:
            perms |= FilePerm.READ
        if file.wants_write:
            perms |= FilePerm.WRITE
        return self._check_path(task, file.path, perms, "open")

    def file_permission(self, task, file: OpenFile, mask: int) -> int:
        if task.security.get(MODULE_NAME) is None:
            return 0
        return self._check_path(task, file.path, _mask_to_perms(mask),
                                "access")

    def file_ioctl(self, task, file: OpenFile, cmd: int, arg: int) -> int:
        if task.security.get(MODULE_NAME) is None:
            return 0
        # AppArmor mediates device ioctl through file access to the node:
        # read-direction commands need read access, everything else write.
        from ..kernel.devices import ioctl_is_write
        perm = FilePerm.WRITE if ioctl_is_write(cmd) else FilePerm.READ
        return self._check_path(task, file.path, perm, f"ioctl[{cmd:#x}]")

    def mmap_file(self, task, file, prot: int) -> int:
        if file is None:
            return 0  # anonymous mappings are not path-mediated
        from ..kernel.memory import MapProt
        if prot & int(MapProt.PROT_EXEC):
            return self._check_path(task, file.path, FilePerm.MMAP, "mmap")
        return 0

    # -- inode hooks ------------------------------------------------------------
    def inode_create(self, task, parent_inode, path: str, mode: int) -> int:
        return self._check_path(task, path, FilePerm.WRITE, "create")

    def inode_mkdir(self, task, parent_inode, path: str, mode: int) -> int:
        return self._check_path(task, path, FilePerm.WRITE, "mkdir")

    def inode_mknod(self, task, parent_inode, path: str, mode: int) -> int:
        return self._check_path(task, path, FilePerm.WRITE, "mknod")

    def inode_unlink(self, task, inode, path: str) -> int:
        return self._check_path(task, path, FilePerm.WRITE, "unlink")

    def inode_rmdir(self, task, inode, path: str) -> int:
        return self._check_path(task, path, FilePerm.WRITE, "rmdir")

    def inode_rename(self, task, old_path: str, new_path: str) -> int:
        rc = self._check_path(task, old_path, FilePerm.WRITE, "rename-from")
        if rc != 0:
            return rc
        return self._check_path(task, new_path, FilePerm.WRITE, "rename-to")

    def inode_setattr(self, task, path: str) -> int:
        return self._check_path(task, path, FilePerm.WRITE, "setattr")

    # -- capability & network ------------------------------------------------------
    def capable(self, task, cap: Capability) -> int:
        profile = self.profile_of(task)
        if profile is None:
            return 0
        cap_name = cap.value.removeprefix("CAP_").lower()
        ok = profile.allows_capability(cap_name)
        return self._decide(profile, ok, task, f"capability {cap_name}")

    def _check_net(self, task, sock_or_family, what: str) -> int:
        if task.security.get(MODULE_NAME) is None:
            return 0
        profile = self.profile_of(task)
        if profile is None:
            return 0
        family = sock_or_family
        if isinstance(family, SocketFamily):
            family_name = "inet" if family is SocketFamily.AF_INET else "unix"
        else:
            family_name = ("inet" if sock_or_family.family is SocketFamily.AF_INET
                           else "unix")
        ok = profile.allows_network(family_name)
        return self._decide(profile, ok, task, f"network {what} {family_name}")

    def socket_create(self, task, family) -> int:
        return self._check_net(task, family, "create")

    def socket_bind(self, task, sock, addr) -> int:
        return self._check_net(task, sock, "bind")

    def socket_connect(self, task, sock, addr) -> int:
        return self._check_net(task, sock, "connect")

    def socket_listen(self, task, sock) -> int:
        return self._check_net(task, sock, "listen")

    def socket_accept(self, task, sock) -> int:
        return self._check_net(task, sock, "accept")

    def socket_sendmsg(self, task, sock, size: int) -> int:
        return self._check_net(task, sock, "send")

    def socket_recvmsg(self, task, sock, size: int) -> int:
        return self._check_net(task, sock, "recv")

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
from ..kernel.devices import ioctl_is_write
from ..kernel.ipc import SocketFamily
from ..kernel.memory import MapProt
from ..kernel.syscalls import MAY_EXEC, MAY_READ, MAY_WRITE
from ..kernel.vfs.file import OpenFile
from ..lsm.blob import get_blob, set_blob
from ..lsm.module import LsmModule
from ..obs.audit import AUDIT_COMPLAIN
from .policydb import PolicyDb
from .profile import ExecMode, FilePerm, Profile, ProfileMode

#: The mode of every profile that denies (complain-mode profiles only
#: audit), read instead of ``profile.mode.value``.
_ENFORCE = ProfileMode.ENFORCE.value

MODULE_NAME = "apparmor"


# Requests are plain ints (``FilePerm`` bits): ``FilePerm`` arithmetic
# runs enum.py code on every access.
_READ = int(FilePerm.READ)
_WRITE = int(FilePerm.WRITE)
_EXEC = int(FilePerm.EXEC)
_MMAP = int(FilePerm.MMAP)
_PROT_EXEC = int(MapProt.PROT_EXEC)

#: ``MAY_*`` mask (0..7) -> requested ``FilePerm`` bits.
_MAY_TO_PERMS = tuple(
    (_READ if mask & MAY_READ else 0) | (_WRITE if mask & MAY_WRITE else 0)
    | (_EXEC if mask & MAY_EXEC else 0) for mask in range(8))


def _mask_to_perms(mask: int) -> int:
    return _MAY_TO_PERMS[mask & 0x7]


class AppArmorLsm(LsmModule):
    """The AppArmor security module."""

    name = MODULE_NAME

    def __init__(self, policy: Optional[PolicyDb] = None):
        self.policy = policy if policy is not None else PolicyDb()
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

    def _decide(self, profile: Profile, allowed: bool, task, what: str,
                args: tuple = ()) -> int:
        """The verdict of one check of *task* under *profile*: 0 allows,
        ``-EACCES`` refuses.

        A complain-mode profile allows what it would refuse and writes a
        ``complain`` record.  The access's description is *what* ``%``
        *args* (``"open %s"``, ``(path,)``), or *what* alone without
        *args*; it is rendered only for a complain record or for the
        annotation of an open hook span, so an allowed check builds no
        text.
        """
        if allowed:
            return 0
        if profile.mode is ProfileMode.COMPLAIN:
            self.audit(AUDIT_COMPLAIN, what % args if args else what, task)
            return 0
        obs = getattr(self.kernel, "obs", None)
        if obs is not None and obs.spans.active is not None:
            # Attribution for post-transition hook spans: which profile,
            # in which mode, denied this access.  The framework writes
            # the denial's AVC record.
            obs.spans.annotate(profile=profile.name, mode=_ENFORCE,
                               detail=what % args if args else what)
        return self.EACCES

    def _check_path(self, task, path: str, perms: int, what: str) -> int:
        profile = self.profile_of(task)
        if profile is None or not perms:
            return 0
        ok = profile.allows_file(path, perms)
        return self._decide(profile, ok, task, "%s %s", (what, path))

    # -- exec & fork ------------------------------------------------------------
    def bprm_check_security(self, task, exe_path: str) -> int:
        profile = self.profile_of(task)
        if profile is None:
            return 0
        mode = profile.exec_mode_for(exe_path)
        return self._decide(profile, mode is not None, task, "exec %s",
                            (exe_path,))

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
    # The file context (``file->f_security``, as Linux's ``aa_file_ctx``):
    # ``file_open`` stores ``(profile, policy revision, bits)``, the
    # permissions the task's profile grants on the file's path.  Later
    # checks on the same file decide from those bits while the task is
    # still under that very profile object and the revision has not
    # moved, like ``aa_file_perm()`` skipping the DFA walk when
    # ``fctx->allow`` covers the request under an unchanged label.
    # Profiles are replaced, never edited in place, so an unchanged
    # (profile, revision) pair means unchanged bits.  Any other check
    # recomputes and stores the fresh context.  A refused check goes to
    # ``_decide`` either way, so audits and span annotations match a
    # fresh lookup.
    def _file_perm(self, name: str, task, file: OpenFile, perms: int,
                   what: str, args: tuple = ()) -> int:
        """Decide *perms* on *file* for *task*, confined by profile *name*;
        *what* ``%`` (*args* + the path) describes a refused access to
        :meth:`_decide`."""
        profile = self.policy.get(name)
        if profile is None or not perms:
            return 0
        revision = self.policy.revision
        ctx = file.security.get(MODULE_NAME)
        if ctx is not None and ctx[0] is profile and ctx[1] == revision:
            bits = ctx[2]
        else:
            bits = profile._perm_bits(file.path)
            file.security[MODULE_NAME] = (profile, revision, bits)
        if bits & perms == perms:
            return 0
        return self._decide(profile, False, task, what, args + (file.path,))

    def file_open(self, task, file: OpenFile) -> int:
        # Unconfined tasks short-circuit before any flag arithmetic — in
        # AppArmor proper this is a single label pointer compare.
        name = task.security.get(MODULE_NAME)
        if name is None:
            return 0
        perms = ((_READ if file.wants_read else 0)
                 | (_WRITE if file.wants_write else 0))
        return self._file_perm(name, task, file, perms, "open %s")

    def file_permission(self, task, file: OpenFile, mask: int) -> int:
        name = task.security.get(MODULE_NAME)
        if name is None:
            return 0
        return self._file_perm(name, task, file, _mask_to_perms(mask),
                               "access %s")

    def file_ioctl(self, task, file: OpenFile, cmd: int, arg: int) -> int:
        name = task.security.get(MODULE_NAME)
        if name is None:
            return 0
        # AppArmor mediates device ioctl through file access to the node:
        # read-direction commands need read access, everything else write.
        perm = _WRITE if ioctl_is_write(cmd) else _READ
        return self._file_perm(name, task, file, perm, "ioctl[%#x] %s",
                               (cmd,))

    def mmap_file(self, task, file, prot: int) -> int:
        if file is None:
            return 0  # anonymous mappings are not path-mediated
        name = task.security.get(MODULE_NAME)
        if name is None:
            return 0
        if prot & _PROT_EXEC:
            return self._file_perm(name, task, file, _MMAP, "mmap %s")
        return 0

    # -- inode hooks ------------------------------------------------------------
    def inode_create(self, task, parent_inode, path: str, mode: int) -> int:
        return self._check_path(task, path, _WRITE, "create")

    def inode_mkdir(self, task, parent_inode, path: str, mode: int) -> int:
        return self._check_path(task, path, _WRITE, "mkdir")

    def inode_mknod(self, task, parent_inode, path: str, mode: int) -> int:
        return self._check_path(task, path, _WRITE, "mknod")

    def inode_unlink(self, task, inode, path: str) -> int:
        return self._check_path(task, path, _WRITE, "unlink")

    def inode_rmdir(self, task, inode, path: str) -> int:
        return self._check_path(task, path, _WRITE, "rmdir")

    def inode_rename(self, task, old_path: str, new_path: str) -> int:
        rc = self._check_path(task, old_path, _WRITE, "rename-from")
        if rc != 0:
            return rc
        return self._check_path(task, new_path, _WRITE, "rename-to")

    def inode_setattr(self, task, path: str) -> int:
        return self._check_path(task, path, _WRITE, "setattr")

    # -- capability & network ------------------------------------------------------
    def capable(self, task, cap: Capability) -> int:
        profile = self.profile_of(task)
        if profile is None:
            return 0
        cap_name = cap.value.removeprefix("CAP_").lower()
        ok = profile.allows_capability(cap_name)
        return self._decide(profile, ok, task, "capability %s", (cap_name,))

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
        return self._decide(profile, ok, task, "network %s %s",
                            (what, family_name))

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

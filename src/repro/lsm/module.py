"""Base class for Linux security modules in the simulator."""

from __future__ import annotations

from ..kernel.credentials import Capability
from ..kernel.errors import Errno
from ..kernel.security import SecurityHooks


class LsmModule(SecurityHooks):
    """A security module: a named bundle of hook implementations.

    Subclasses override the hooks they care about; :class:`SecurityHooks`
    declares the hook surface and its defaults.  The default for every
    decision hook is 0 (allow) — an LSM that implements nothing restricts
    nothing, exactly as in Linux.  Deny by returning ``-int(Errno.EACCES)``
    (or any negative errno).
    """

    name = "lsm"

    #: Set by the framework at registration time; lets modules reach the
    #: kernel (audit ring, clock, VFS) without global state.
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
        """Write one record tagged with this module's name to the
        kernel's audit ring, the one audit trail.

        Denials are not written here: the framework records each one as
        an AVC record.  This is for what has no AVC twin, such as an
        access a complain-mode profile let through.
        """
        if self.kernel is None or not self.kernel.obs.audit.enabled:
            return
        obs = self.kernel.obs
        cred = getattr(task, "cred", None)
        obs.audit.emit(obs.now_ns, kind, module=self.name,
                       pid=getattr(task, "pid", 0),
                       comm=getattr(task, "comm", ""),
                       uid=cred.euid if cred is not None else -1,
                       situation=obs.situation(), detail=detail)

    def capable(self, task, cap: Capability) -> int:
        """A module allows every capability unless it says otherwise;
        possession is the capability module's check."""
        return 0

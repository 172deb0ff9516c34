"""Linux Security Module framework for the simulated kernel."""

from .blob import clear_blob, ensure_blob, get_blob, set_blob
from .capability import CapabilityLsm
from .framework import HookStats, LsmFramework, boot_kernel
from .hooks import DECISION_HOOKS, HOOK_BIT, HOT_PATH_HOOKS, Hook
from .module import LsmModule
from .securityfs import SECURITYFS_ROOT, SecurityFs

__all__ = [
    "clear_blob", "ensure_blob", "get_blob", "set_blob", "CapabilityLsm",
    "HookStats", "LsmFramework", "boot_kernel", "Hook", "DECISION_HOOKS",
    "HOOK_BIT", "HOT_PATH_HOOKS", "LsmModule", "SecurityFs",
    "SECURITYFS_ROOT",
]

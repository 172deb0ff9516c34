"""Linux Security Module framework for the simulated kernel."""

from .blob import clear_blob, ensure_blob, get_blob, set_blob
from .capability import CapabilityLsm
from .framework import LsmFramework, boot_kernel
from .hooks import DECISION_HOOKS, HOOK_BIT, HOT_PATH_HOOKS, Hook
from .module import LsmModule
from .policycache import PolicyCache
from .probes import HookLatency, HookStats, hook_latency_summary
from .securityfs import SECURITYFS_ROOT, SecurityFs

__all__ = [
    "clear_blob", "ensure_blob", "get_blob", "set_blob", "CapabilityLsm",
    "HookLatency", "HookStats", "hook_latency_summary", "LsmFramework",
    "boot_kernel", "Hook", "DECISION_HOOKS", "HOOK_BIT", "HOT_PATH_HOOKS",
    "LsmModule", "PolicyCache", "SecurityFs", "SECURITYFS_ROOT",
]

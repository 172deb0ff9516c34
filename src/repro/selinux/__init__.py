"""SELinux-style type enforcement for the simulated kernel."""

from .context import (ContextError, DEFAULT_FILE_CONTEXT, INIT_CONTEXT,
                      KERNEL_CONTEXT, SecurityContext, UNLABELED,
                      parse_context)
from .module import DEFAULT_UNCONFINED, SelinuxLsm
from .parser import SelinuxParseError, parse_te_policy
from .policy import (AvRule, CLASS_PERMS, FileContext, SelinuxPolicy,
                     SelinuxPolicyError, TypeTransition)

__all__ = [
    "ContextError", "DEFAULT_FILE_CONTEXT",
    "INIT_CONTEXT", "KERNEL_CONTEXT", "SecurityContext", "UNLABELED",
    "parse_context", "DEFAULT_UNCONFINED", "SelinuxLsm",
    "SelinuxParseError", "parse_te_policy", "AvRule", "CLASS_PERMS",
    "FileContext", "SelinuxPolicy", "SelinuxPolicyError", "TypeTransition",
]

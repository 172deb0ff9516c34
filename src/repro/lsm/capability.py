"""The capability module — the simulator's ``commoncap``.

Always first in the stack (Linux hard-wires it).  Its only decision hook is
``capable``: a task may exercise a capability iff its credential set holds
it.  Other modules can *further* restrict capability use but can never grant
a capability the credentials lack — matching Linux semantics where all
stacked modules must agree.
"""

from __future__ import annotations

from ..kernel.credentials import Capability
from .module import LsmModule


class CapabilityLsm(LsmModule):
    """Credential-based capability checks."""

    name = "capability"

    def capable(self, task, cap: Capability) -> int:
        if task.cred.has_cap(cap):
            return 0
        return self.EPERM

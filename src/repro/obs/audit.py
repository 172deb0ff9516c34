"""Structured audit: AVC-style records in a bounded ring buffer.

Linux pairs every MAC decision with an audit record (the SELinux AVC, the
AppArmor ``apparmor="DENIED"`` messages) and queues them all on one audit
trail; that trail is what makes policy analysis possible at scale.  This
module reproduces that surface for the simulator: each kernel's ring
(``kernel.obs.audit``) is its one audit trail, written by the LSM
framework, the SACK layers and the modules alike.  One SACK-specific
addition: every denial record carries the **situation state** current at
the time of the decision — the paper's new security context — so a denial
can be attributed not just to a subject and an object but to the
environmental situation the vehicle was in.

Record kinds:

``avc``
    One per denied access: task (pid/comm/uid), hook, object path, the
    module that denied, errno, and the situation state.  The capability
    module's refusals are noaudit (see ``LsmFramework._report_denial``).
``state_transition``
    One per SSM transition: event name, from/to states.
``policy_load``
    One per policy compile/activation: policy name, backend, sizes (and
    one per ABAC policy load).
``event_rejected``
    One per malformed/unauthorised SACKfs event write.
``transition_rollback`` / ``failsafe``
    A transition undone by a failing listener; the SSM degrading to its
    failsafe state.
``complain``
    An access an AppArmor complain-mode profile let through although the
    policy would deny it.

The ring is bounded (oldest records drop first, as with
``audit_backlog_limit``) and supports field-match filtering both at emit
time (``add_filter`` — only matching records are kept, like auditctl
rules) and at query time (``query``).
"""

from __future__ import annotations

import errno as _errno
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional

AUDIT_AVC = "avc"
AUDIT_STATE_TRANSITION = "state_transition"
AUDIT_POLICY_LOAD = "policy_load"
AUDIT_EVENT_REJECTED = "event_rejected"
AUDIT_ROLLBACK = "transition_rollback"
AUDIT_FAILSAFE = "failsafe"
AUDIT_COMPLAIN = "complain"


def errno_name(code: int) -> str:
    """Symbolic name for an errno value (``13`` -> ``"EACCES"``)."""
    return _errno.errorcode.get(abs(int(code)), str(abs(int(code))))


class AuditEvent(NamedTuple):
    """One structured audit record: an immutable tuple of its fields.

    :meth:`AuditRing.emit` builds it from one positional field tuple, so
    a record costs about what the tuple does; the text is rendered only
    when read (:meth:`to_text`).
    """

    seq: int
    when_ns: int
    kind: str
    module: str = ""            # LSM module that generated the record
    hook: str = ""              # LSM hook (avc records)
    path: str = ""              # object path, when one exists
    pid: int = 0
    comm: str = ""
    uid: int = -1
    situation: str = ""         # current situation state (SACK's context)
    errno: int = 0              # positive errno for denials
    detail: str = ""            # free-form complement (event names, sizes)

    def __deepcopy__(self, memo) -> "AuditEvent":
        # Immutable and made of immutable values: a checkpoint's ring
        # shares its records, as a deep copy shares a tuple of strings.
        return self

    def matches(self, criteria: Dict[str, object]) -> bool:
        """Field-match: every criterion equals the record's field."""
        for key, want in criteria.items():
            if getattr(self, key, None) != want:
                return False
        return True

    def to_text(self) -> str:
        """Render in the kernel audit one-line style."""
        stamp = f"{self.when_ns / 1e9:.6f}:{self.seq}"
        if self.kind == AUDIT_AVC:
            return (f"type=AVC msg=audit({stamp}): avc: denied "
                    f"{{ {self.hook} }} for pid={self.pid} "
                    f"comm=\"{self.comm}\" uid={self.uid} "
                    f"path=\"{self.path}\" module={self.module} "
                    f"situation={self.situation or 'none'} "
                    f"errno={errno_name(self.errno)}")
        if self.kind == AUDIT_STATE_TRANSITION:
            return (f"type=SACK_STATE msg=audit({stamp}): "
                    f"transition {self.detail} "
                    f"situation={self.situation or 'none'}")
        if self.kind == AUDIT_POLICY_LOAD:
            return (f"type=MAC_POLICY_LOAD msg=audit({stamp}): "
                    f"module={self.module} {self.detail}")
        if self.kind == AUDIT_FAILSAFE:
            return (f"type=SACK_FAILSAFE msg=audit({stamp}): "
                    f"{self.detail} situation={self.situation or 'none'}")
        if self.kind == AUDIT_ROLLBACK:
            return (f"type=SACK_ROLLBACK msg=audit({stamp}): "
                    f"{self.detail} situation={self.situation or 'none'}")
        return (f"type={self.kind.upper()} msg=audit({stamp}): "
                f"module={self.module} pid={self.pid} "
                f"comm=\"{self.comm}\" {self.detail}")


#: ``tuple.__new__``: builds a record from its field tuple without the
#: keyword handling of the generated ``AuditEvent.__new__``.
_new_record = tuple.__new__


def _check_fields(criteria: Dict[str, object]) -> None:
    """``ValueError`` naming the first key of *criteria* that is not an
    :class:`AuditEvent` field."""
    for key in criteria:
        if key not in AuditEvent._fields:
            raise ValueError(f"unknown audit field {key!r} (fields: "
                             f"{', '.join(AuditEvent._fields)})")


class AuditRing:
    """Bounded ring buffer of :class:`AuditEvent` with emit-time filters."""

    def __init__(self, capacity: int = 4096, enabled: bool = True):
        if capacity < 1:
            raise ValueError("audit ring needs capacity >= 1")
        self.capacity = capacity
        self.enabled = enabled
        self._records: Deque[AuditEvent] = deque(maxlen=capacity)
        self._filters: List[Dict[str, object]] = []
        self._seq = 0
        self.emitted = 0            # records kept
        self.suppressed = 0         # dropped by filters (not by the ring)
        self.dropped = 0            # evicted by ring overflow

    # -- configuration -----------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def add_filter(self, **criteria) -> None:
        """Keep only records matching at least one filter (auditctl-style).

        With no filters installed, everything is kept.  A criterion must
        name a record field: a misspelt one would match nothing and
        silently suppress the whole trail.
        """
        if not criteria:
            raise ValueError("empty audit filter")
        _check_fields(criteria)
        self._filters.append(dict(criteria))

    def clear_filters(self) -> None:
        self._filters.clear()

    # -- emission ----------------------------------------------------------
    def emit(self, when_ns: int, kind: str, module: str = "",
             hook: str = "", path: str = "", pid: int = 0, comm: str = "",
             uid: int = -1, situation: str = "", errno: int = 0,
             detail: str = "") -> Optional[AuditEvent]:
        """Record one event; returns it, or None if disabled/filtered.

        The fields after *kind* are :class:`AuditEvent`'s, in its order,
        positionally or by name.
        """
        if not self.enabled:
            return None
        self._seq += 1
        record = _new_record(AuditEvent, (
            self._seq, when_ns, kind, module, hook, path, pid, comm, uid,
            situation, errno, detail))
        if self._filters and not any(record.matches(f)
                                     for f in self._filters):
            self.suppressed += 1
            return None
        if len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(record)
        self.emitted += 1
        return record

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[AuditEvent]:
        return list(self._records)

    def by_kind(self, kind: str) -> List[AuditEvent]:
        return [r for r in self._records if r.kind == kind]

    def query(self, **criteria) -> List[AuditEvent]:
        """Records matching every given field (query-time filtering)."""
        _check_fields(criteria)
        return [r for r in self._records if r.matches(criteria)]

    def tail(self, n: int) -> List[AuditEvent]:
        if n <= 0:
            return []
        return list(self._records)[-n:]

    def to_text(self) -> str:
        lines = [r.to_text() for r in self._records]
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        self._records.clear()

    def stats(self) -> Dict[str, int]:
        return {"stored": len(self._records), "emitted": self.emitted,
                "suppressed": self.suppressed, "dropped": self.dropped,
                "capacity": self.capacity}

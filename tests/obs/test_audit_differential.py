"""Differential test: the audit ring against its frozen-dataclass original.

An audit record used to be a frozen dataclass built from keyword
arguments, and each denial looked its ``lsm_denials_total`` series up
by label dict.  Both are kept below, verbatim, as the oracle:
:class:`ReferenceAuditRing` and :func:`reference_denial`.  Each seeded
workload runs twice, once on the oracle and once on the live ring and
hub, and everything a reader of the trail can see must be equal: the
records' field values, their text, every query, the ring's statistics,
the bytes of ``SACK/audit`` and the denial counters.  The workloads
cover denials, transitions, a rollback, a failsafe, emit-time filters
and ring overflow, in both SACK modes.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from typing import Deque, Dict, List, Optional

import pytest

from repro.faults.chaos import run_chaos
from repro.kernel import KernelError, OpenFlags
from repro.obs import hub as hub_module
from repro.obs.audit import (AUDIT_AVC, AUDIT_COMPLAIN,
                             AUDIT_EVENT_REJECTED, AUDIT_FAILSAFE,
                             AUDIT_POLICY_LOAD, AUDIT_ROLLBACK,
                             AUDIT_STATE_TRANSITION, AuditEvent,
                             AuditRing, errno_name)
from repro.obs.hub import Observability
from repro.vehicle import ivi
from repro.vehicle.devices import (DOOR_LOCK, DOOR_UNLOCK, ENGINE_START,
                                   VOLUME_GET, VOLUME_SET, WINDOW_SET)


# -- the oracle: the record, ring and denial path as they were ----------------

@dataclasses.dataclass(frozen=True)
class ReferenceAuditEvent:
    """One structured audit record."""

    seq: int
    when_ns: int
    kind: str
    module: str = ""
    hook: str = ""
    path: str = ""
    pid: int = 0
    comm: str = ""
    uid: int = -1
    situation: str = ""
    errno: int = 0
    detail: str = ""

    def matches(self, criteria: Dict[str, object]) -> bool:
        for key, want in criteria.items():
            if getattr(self, key, None) != want:
                return False
        return True

    def to_text(self) -> str:
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


class ReferenceAuditRing:
    """Bounded ring buffer of :class:`ReferenceAuditEvent`."""

    def __init__(self, capacity: int = 4096, enabled: bool = True):
        if capacity < 1:
            raise ValueError("audit ring needs capacity >= 1")
        self.capacity = capacity
        self.enabled = enabled
        self._records: Deque[ReferenceAuditEvent] = deque(maxlen=capacity)
        self._filters: List[Dict[str, object]] = []
        self._seq = 0
        self.emitted = 0
        self.suppressed = 0
        self.dropped = 0

    def add_filter(self, **criteria) -> None:
        if not criteria:
            raise ValueError("empty audit filter")
        self._filters.append(dict(criteria))

    def emit(self, when_ns: int, kind: str,
             **fields) -> Optional[ReferenceAuditEvent]:
        if not self.enabled:
            return None
        self._seq += 1
        record = ReferenceAuditEvent(seq=self._seq, when_ns=when_ns,
                                     kind=kind, **fields)
        if self._filters and not any(record.matches(f)
                                     for f in self._filters):
            self.suppressed += 1
            return None
        if len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(record)
        self.emitted += 1
        return record

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[ReferenceAuditEvent]:
        return list(self._records)

    def by_kind(self, kind: str) -> List[ReferenceAuditEvent]:
        return [r for r in self._records if r.kind == kind]

    def query(self, **criteria) -> List[ReferenceAuditEvent]:
        return [r for r in self._records if r.matches(criteria)]

    def tail(self, n: int) -> List[ReferenceAuditEvent]:
        if n <= 0:
            return []
        return list(self._records)[-n:]

    def to_text(self) -> str:
        lines = [r.to_text() for r in self._records]
        return "\n".join(lines) + ("\n" if lines else "")

    def stats(self) -> Dict[str, int]:
        return {"stored": len(self._records), "emitted": self.emitted,
                "suppressed": self.suppressed, "dropped": self.dropped,
                "capacity": self.capacity}


def reference_denial(self, module: str, hook: str, path: str, task,
                     rc: int) -> None:
    self.metrics.counter("lsm_denials_total",
                         {"module": module, "hook": hook}).inc()
    if self.audit.enabled:
        cred = getattr(task, "cred", None)
        self.audit.emit(
            self.now_ns, AUDIT_AVC, module=module, hook=hook,
            path=path, pid=getattr(task, "pid", 0),
            comm=getattr(task, "comm", ""),
            uid=getattr(cred, "euid", -1) if cred is not None else -1,
            situation=self.situation(), errno=-rc)


FIELDS = tuple(f.name for f in dataclasses.fields(ReferenceAuditEvent))

KINDS = (AUDIT_AVC, AUDIT_STATE_TRANSITION, AUDIT_POLICY_LOAD,
         AUDIT_EVENT_REJECTED, AUDIT_ROLLBACK, AUDIT_FAILSAFE,
         AUDIT_COMPLAIN)

QUERIES = (
    {"kind": AUDIT_AVC},
    {"comm": "media_app"},
    {"kind": AUDIT_AVC, "module": "apparmor", "hook": "file_ioctl"},
    {"kind": AUDIT_AVC, "module": "sack", "errno": 13},
    {"situation": "emergency"},
    {"module": "sack", "situation": "driving"},
    {"uid": 1000, "path": "/dev/car/door"},
    {"comm": "nobody"},
)


def on_both_sides(monkeypatch, run):
    """``(reference, live)`` snapshots of the world *run* () builds and
    drives, booted with the oracle ring and denial path, then with the
    live ones; *run* returns the world and extra items to compare."""
    with monkeypatch.context() as patch:
        patch.setattr(hub_module, "AuditRing", ReferenceAuditRing)
        patch.setattr(Observability, "denial", reference_denial)
        world, extra = run()
        assert type(world.kernel.obs.audit) is ReferenceAuditRing
        reference = dict(snapshot(world), **extra)
    world, extra = run()
    assert type(world.kernel.obs.audit) is AuditRing
    return reference, dict(snapshot(world), **extra)


def fields(records) -> List[tuple]:
    return [tuple(getattr(r, name) for name in FIELDS) for r in records]


def snapshot(world) -> Dict[str, object]:
    """Everything a reader of *world*'s audit trail can see."""
    kernel = world.kernel
    ring = kernel.obs.audit
    counters = kernel.obs.metrics.series()[0]
    return {
        "records": fields(ring.records()),
        "texts": [r.to_text() for r in ring.records()],
        "to_text": ring.to_text(),
        "queries": [fields(ring.query(**criteria)) for criteria in QUERIES],
        "by_kind": {kind: fields(ring.by_kind(kind)) for kind in KINDS},
        "tails": [fields(ring.tail(n)) for n in (0, 1, 7, 100_000)],
        "stats": ring.stats(),
        "sack_audit": kernel.read_file(
            kernel.procs.init, "/sys/kernel/security/SACK/audit"),
        "denials": [(key, value) for key, value in counters.items()
                    if key.startswith("lsm_denials_total")],
        "counters": counters,
        "series_dropped": kernel.obs.metrics.series_dropped,
    }


# -- the workloads ------------------------------------------------------------

MEDIA = [f"/var/media/a{a}/t{t}.ogg" for a in range(4) for t in range(8)]
DEVICES = ("door", "window", "audio", "engine", "speedometer")
IOCTLS = (VOLUME_GET, VOLUME_SET, DOOR_LOCK, DOOR_UNLOCK, WINDOW_SET,
          ENGINE_START)
READ, WRITE, IOCTL = range(3)


def access(kernel, task, path: str, flags, action: int, cmd: int):
    """open -> read/write/ioctl -> close; the errno that refused, if any."""
    try:
        fd = kernel.sys_open(task, path, flags)
    except KernelError as exc:
        return exc.errno.name
    try:
        if action == READ:
            kernel.sys_read(task, fd, 16)
        elif action == WRITE:
            kernel.sys_write(task, fd, b"x")
        else:
            kernel.sys_ioctl(task, fd, cmd, 1)
    except KernelError as exc:
        return exc.errno.name
    finally:
        kernel.sys_close(task, fd)
    return "ok"


def access_mix(mode: str, seed: int, n: int = 2000,
               capacity: Optional[int] = None, filters=()):
    """*n* seeded accesses on one IVI world across its situations.

    The world drives off, crashes, recovers and parks, then loses its
    SDS until the watchdog settles the failsafe state, with accesses
    between each step.  *capacity* and *filters* re-make the ring after
    boot (same class) with that bound and those emit-time filters.
    """
    world = ivi.build_ivi_world(ivi.SACK_MODES[mode])
    kernel = world.kernel
    if capacity is not None or filters:
        ring = type(kernel.obs.audit)(capacity=capacity or 4096)
        for criteria in filters:
            ring.add_filter(**criteria)
        kernel.obs.audit = ring
    for path in MEDIA:
        kernel.vfs.makedirs(path.rsplit("/", 1)[0])
        kernel.vfs.create_file(path, mode=0o666)
    # One task whose real uid is not its effective one: records carry
    # the effective uid.
    media = world.tasks["media_app"]
    media.cred = dataclasses.replace(media.cred, uid=media.cred.euid + 7)
    rng = random.Random(seed)
    tasks = sorted(world.tasks)
    steps = {n // 6: lambda: world.drive_to_speed(40),
             2 * n // 6: world.trigger_crash,
             3 * n // 6: world.clear_emergency,
             4 * n // 6: world.park}

    def failsafe():
        world.sds = None
        world.run_sds(30)          # 3 s of silence: past the deadline

    steps[5 * n // 6] = failsafe
    outcomes = []
    for i in range(n):
        if i in steps:
            steps[i]()
            outcomes.append(("situation", world.situation))
        task = world.tasks[rng.choice(tasks)]
        roll = rng.random()
        if roll < 0.4:
            path = rng.choice(MEDIA)
            action = rng.choice((READ, WRITE))
            flags = OpenFlags.O_RDONLY if action == READ \
                else OpenFlags.O_WRONLY
            cmd = 0
        else:
            path = f"/dev/car/{rng.choice(DEVICES)}"
            action = rng.choice((READ, WRITE, IOCTL, IOCTL))
            flags = OpenFlags.O_WRONLY if action == WRITE \
                else OpenFlags.O_RDONLY
            cmd = rng.choice(IOCTLS)
        outcomes.append(access(kernel, task, path, flags, action, cmd))
    return world, outcomes


def chaos(mode: str, seed: int, monkeypatch):
    """``run_chaos`` and the world it built."""
    worlds = []
    build = ivi.build_ivi_world

    def capture(*args, **kwargs):
        worlds.append(build(*args, **kwargs))
        return worlds[-1]

    with monkeypatch.context() as patch:
        patch.setattr(ivi, "build_ivi_world", capture)
        report = run_chaos(seed, ticks=200, mode=mode)
    return worlds[-1], {"fingerprint": report.fingerprint()}


# -- the comparison -----------------------------------------------------------

MODES = sorted(ivi.SACK_MODES)


def assert_same(reference: dict, live: dict) -> None:
    assert live.keys() == reference.keys()
    for name in reference:
        assert live[name] == reference[name], f"{name} differs"


def test_record_fields_are_the_originals():
    assert AuditEvent._fields == FIELDS


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chaos_trail_matches_reference(mode, seed, monkeypatch):
    reference, live = on_both_sides(
        monkeypatch, lambda: chaos(mode, seed, monkeypatch))
    kinds = {kind for kind, records in live["by_kind"].items() if records}
    assert {AUDIT_AVC, AUDIT_STATE_TRANSITION, AUDIT_FAILSAFE} <= kinds
    if seed == 2:
        assert AUDIT_ROLLBACK in kinds
    assert_same(reference, live)


VARIANTS = {
    "plain": {},
    "filtered": {"filters": ({"kind": AUDIT_AVC, "comm": "media_app"},
                             {"kind": AUDIT_FAILSAFE},
                             {"situation": "emergency"})},
    "overflow": {"capacity": 64},
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_access_mix_trail_matches_reference(mode, variant, monkeypatch):
    def run():
        world, outcomes = access_mix(mode, seed=7, **VARIANTS[variant])
        return world, {"outcomes": outcomes}

    reference, live = on_both_sides(monkeypatch, run)
    assert {"EACCES", "ok"} <= set(live["outcomes"])
    assert ("situation", "emergency") in live["outcomes"]
    stats = live["stats"]
    if variant != "overflow":
        assert live["by_kind"][AUDIT_FAILSAFE]
    if variant == "filtered":
        assert stats["suppressed"] > 0 and stats["stored"] > 0
    if variant == "overflow":
        assert stats["dropped"] > 0
    assert live["denials"]
    assert_same(reference, live)

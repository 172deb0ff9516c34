"""Named fault points threaded through the SDS → SACKfs → SSM pipeline.

Modeled on Linux's ``CONFIG_FAULT_INJECTION`` fault attributes (failslab,
fail_page_alloc, fail_make_request): a fault point is a *name* baked into a
code path; whether a given call actually fails is decided by the active
:class:`~repro.faults.plan.FaultPlan`.  A point with no matching rule costs
one dictionary lookup — the production path stays hot.

The catalogue below declares every point the simulator can trigger, its
layer, and what failing there means, so tooling (``sackctl chaos``, docs,
random plan generation) can enumerate them without firing anything.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

# -- SDS (user space): sensing faults --------------------------------------
#: A sensor returns nothing this poll (wiring glitch, bus timeout).
SDS_SENSOR_DROPOUT = "sds:sensor_dropout"
#: A sensor repeats its previous value regardless of the world (stuck-at).
SDS_SENSOR_STUCK = "sds:sensor_stuck"
#: A numeric sensor reports a wildly perturbed value (EMI spike / noise).
SDS_SENSOR_SPIKE = "sds:sensor_spike"

# -- SACKfs (the user→kernel channel): transport faults --------------------
#: The events write fails with EIO before any byte is processed.
SACKFS_WRITE_EIO = "sackfs:write_eio"
#: The events write fails with EAGAIN (transient backpressure).
SACKFS_WRITE_EAGAIN = "sackfs:write_eagain"
#: Only a prefix of the buffer reaches the parser (short write).
SACKFS_SHORT_WRITE = "sackfs:short_write"
#: One byte of the buffer is flipped in flight (corruption).
SACKFS_CORRUPT = "sackfs:corrupt"

# -- SSM / listeners (kernel): enforcement-update faults -------------------
#: A generic SSM transition listener raises mid-notification.
SSM_LISTENER_FAIL = "ssm:listener_fail"
#: The AppArmor bridge's profile reload fails (apparmor_parser -r error).
BRIDGE_RELOAD_FAIL = "bridge:profile_reload_fail"

# -- policy lifecycle ------------------------------------------------------
#: A policy write fails with EIO before the new policy replaces the old.
POLICY_LOAD_FAIL = "sack:policy_load_fail"

# -- V2X bus (fleet): network faults ---------------------------------------
#: A published message is lost before the bus sees it (radio shadow).
V2X_PUBLISH_DROP = "v2x:publish_drop"
#: One subscriber's copy of a message is lost in flight (per-link loss).
V2X_DELIVERY_DROP = "v2x:delivery_drop"
#: One subscriber's copy is held for an extra seeded delay (congestion).
V2X_DELAY = "v2x:delay"

# -- fleet control plane: orchestration faults -----------------------------
#: A vehicle drops off the control network (no commands, no acks, no bus).
FLEET_VEHICLE_OFFLINE = "fleet:vehicle_offline"
#: A vehicle-side bundle apply fails after verification (flash error).
FLEET_BUNDLE_APPLY_FAIL = "fleet:bundle_apply_fail"
#: A vehicle's rollout ack is lost on the way back to the control plane.
FLEET_ACK_DROP = "fleet:ack_drop"
#: A vehicle's kernel dies at the epoch barrier (panic / ECU brownout);
#: the supervisor must restore it from a checkpoint or quarantine it.
FLEET_VEHICLE_CRASH = "fleet:vehicle_crash"
#: A vehicle's tick phase stalls past the barrier deadline; the vehicle
#: misses its ticks this epoch but keeps its barrier interactions.
FLEET_SHARD_STALL = "fleet:shard_stall"
#: A control-plane call (bus delivery, rollout step, health poll) blows
#: its per-call deadline; the supervisor retries with backoff.
FLEET_CONTROL_TIMEOUT = "fleet:control_timeout"


@dataclasses.dataclass(frozen=True)
class FaultPoint:
    """One declared fault point: name, pipeline layer, failure meaning."""

    name: str
    layer: str
    description: str


#: Every fault point the pipeline can trigger, keyed by name.
CATALOGUE: Dict[str, FaultPoint] = {
    point.name: point for point in (
        FaultPoint(SDS_SENSOR_DROPOUT, "sds",
                   "sensor sample missing for one poll"),
        FaultPoint(SDS_SENSOR_STUCK, "sds",
                   "sensor repeats its last value (stuck-at)"),
        FaultPoint(SDS_SENSOR_SPIKE, "sds",
                   "numeric sensor value perturbed by seeded noise"),
        FaultPoint(SACKFS_WRITE_EIO, "sackfs",
                   "events write fails with EIO"),
        FaultPoint(SACKFS_WRITE_EAGAIN, "sackfs",
                   "events write fails with EAGAIN"),
        FaultPoint(SACKFS_SHORT_WRITE, "sackfs",
                   "events write truncated to a seeded prefix"),
        FaultPoint(SACKFS_CORRUPT, "sackfs",
                   "one buffer byte flipped in flight"),
        FaultPoint(SSM_LISTENER_FAIL, "ssm",
                   "a transition listener raises mid-notification"),
        FaultPoint(BRIDGE_RELOAD_FAIL, "ssm",
                   "AppArmor bridge profile reload fails"),
        FaultPoint(POLICY_LOAD_FAIL, "policy",
                   "policy activation fails with EIO"),
        FaultPoint(V2X_PUBLISH_DROP, "v2x",
                   "published message lost before reaching the bus"),
        FaultPoint(V2X_DELIVERY_DROP, "v2x",
                   "one subscriber's copy lost in flight"),
        FaultPoint(V2X_DELAY, "v2x",
                   "one subscriber's copy held for an extra seeded delay"),
        FaultPoint(FLEET_VEHICLE_OFFLINE, "fleet",
                   "vehicle loses control-plane and bus connectivity"),
        FaultPoint(FLEET_BUNDLE_APPLY_FAIL, "fleet",
                   "verified bundle fails to apply on the vehicle"),
        FaultPoint(FLEET_ACK_DROP, "fleet",
                   "rollout ack lost on the way to the control plane"),
        FaultPoint(FLEET_VEHICLE_CRASH, "fleet",
                   "vehicle kernel dies at the barrier; needs restore"),
        FaultPoint(FLEET_SHARD_STALL, "fleet",
                   "tick phase stalls; vehicle misses one epoch's ticks"),
        FaultPoint(FLEET_CONTROL_TIMEOUT, "fleet",
                   "control-plane call exceeds its per-call deadline"),
    )
}


def point_names() -> Tuple[str, ...]:
    """All declared fault point names, sorted."""
    return tuple(sorted(CATALOGUE))


class InjectedFault(RuntimeError):
    """Raised by fault points that model a component crash (not an errno).

    Kernel-channel faults surface as :class:`~repro.kernel.errors.KernelError`
    with a real errno; *this* exception is for in-kernel listener failures
    (a bridge reload blowing up mid-transition), which have no errno of
    their own and must be caught by the SSM's transactional core.
    """

    def __init__(self, point: str, detail: str = ""):
        self.point = point
        super().__init__(f"injected fault at {point}"
                         + (f": {detail}" if detail else ""))

"""The ``fleet-ota`` workload: a 32-vehicle fleet taking two OTA bundles.

The client is the fleet operator in one process: it boots a fleet on the
``serial`` backend with AppArmor-bridged vehicles, telemetry on and the
seeded :class:`~repro.fleet.orchestrator.TrafficDriver`, stages a signed
bundle through the proof gate, and then runs epochs one after another.
As soon as the first rollout completes it stages a second bundle, so
bundle verification, apply and AppArmor profile reloads happen inside the
measured epochs.

A fleet's per-epoch cost drifts as its metric series grow, so the
workload's unit of work is :data:`ROUNDS_PER_UNIT` fixed-length *rounds*,
each a fresh fleet: boot, stage, :data:`ROUND_EPOCHS` epochs.  Each
round's seed comes from the workload seed and the round index.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import List

from repro.fleet.bundle import BundleSigner, PolicyBundle, make_bundle
from repro.fleet.orchestrator import Fleet, FleetConfig, TrafficDriver
from repro.fleet.rollout import RolloutState
from repro.vehicle.ivi import DEFAULT_SACK_POLICY, IVI_APPARMOR_PROFILES

from .ivi import Failures, UnitResult, _ratio

FLEET_WHY = (
    "32 AppArmor-bridged vehicles on the serial backend with telemetry "
    "and seeded traffic, taking two proof-gated OTA bundles through the "
    "canary and full waves.  The barrier phases, V2X bus, rollout, "
    "telemetry, supervisor and per-vehicle SDS ticks do the work; "
    "per-access syscall work is small.  Serial, not process: on a 2-core "
    "host the process backend is slower than serial, so it would mostly "
    "measure the scheduler.")

N_VEHICLES = 32
#: Epochs per round: both rollouts complete by epoch 20.
ROUND_EPOCHS = 22
#: Rounds in one unit, each with its own seed.
ROUNDS_PER_UNIT = 8

#: The second bundle: the same rules under a new policy name, so the
#: proof gate verifies it afresh and every vehicle reloads its profiles.
SECOND_POLICY = DEFAULT_SACK_POLICY.replace("policy ivi_default;",
                                            "policy ivi_default_v2;")


class FleetSchedule:
    """Signed bundles and per-round seeds, all made before timing."""

    def __init__(self, seed: int):
        self.seed = seed
        key = FleetConfig().fleet_key
        signer = BundleSigner(key)
        profiles = {"ivi": IVI_APPARMOR_PROFILES}
        self.bundles: List[PolicyBundle] = [
            make_bundle(1, DEFAULT_SACK_POLICY, profiles, signer=signer),
            make_bundle(2, SECOND_POLICY, profiles, signer=signer),
        ]
        self.round_seeds = [(seed * 1_000_003 + r * 7_919) & 0x7FFFFFFF
                            for r in range(ROUNDS_PER_UNIT)]


def fleet_setup(schedule: FleetSchedule, round_index: int = 0) -> Fleet:
    """Boot one round's fleet and stage the first bundle (proof-gated)."""
    seed = schedule.round_seeds[round_index]
    config = FleetConfig(n_vehicles=N_VEHICLES, seed=seed, mode="apparmor",
                         telemetry=True, backend="serial")
    fleet = Fleet(config, driver=TrafficDriver(seed))
    fleet.stage_rollout(schedule.bundles[0])
    return fleet


def run_round(fleet: Fleet, schedule: FleetSchedule, epochs: int, ctx,
              epoch_samples: array, failures: Failures,
              op_base: int) -> None:
    """Run one round's epochs, timing each ``Fleet.run_epoch``."""
    clock = time.perf_counter_ns
    controller = fleet.controller
    second = schedule.bundles[1]
    staged_second = False
    for epoch in range(epochs):
        ctx.op = op_base + epoch
        if not staged_second and controller.state is RolloutState.COMPLETE:
            try:
                fleet.stage_rollout(second)
            except Exception as exc:  # a refused or failed staging
                failures.add(f"staging v{second.version}: "
                             f"{type(exc).__name__}: {exc}")
            staged_second = True
        t0 = clock()
        try:
            fleet.run_epoch()
        except Exception as exc:  # a broken epoch: count it, go on
            failures.add(f"epoch {epoch}: {type(exc).__name__}: {exc}")
        epoch_samples.append(clock() - t0)


def check_round(fleet: Fleet, schedule: FleetSchedule,
                failures: Failures, label: str) -> None:
    """Violations and bundles that did not reach every vehicle fail."""
    for violation in fleet.violations:
        failures.add(f"{label}: {violation}")
    controller = fleet.controller
    for bundle in schedule.bundles:
        complete = (controller.committed is not None
                    and controller.committed.version >= bundle.version
                    and controller.state is RolloutState.COMPLETE)
        missing = [vid for vid, vehicle in sorted(fleet.vehicles.items())
                   if (bundle.version, "applied") not in vehicle.apply_log]
        if not complete or missing:
            failures.add(f"{label}: bundle v{bundle.version} not complete "
                         f"(state {controller.state.value}, "
                         f"{len(missing)} vehicle(s) without it)")


def fleet_counters(fleet: Fleet) -> Counter:
    """Program counters summed over the fleet's vehicles."""
    out = Counter(bus_copies=fleet.bus.stats["copies_delivered"])
    for vehicle in fleet.vehicles.values():
        framework = vehicle.world.framework
        core = framework.avc.core
        out["avc_hits"] += core.hits
        out["avc_misses"] += core.misses
        out["epoch_bumps"] += core.epoch_bumps
        out["dtable_hits"] += framework.dtable.hits
        out["transitions"] += len(vehicle.transition_log)
        out["ticks"] += vehicle.tick_count
        out["bundle_applies"] += len(vehicle.apply_log)
    return out


def fleet_unit(schedule: FleetSchedule, ctx) -> UnitResult:
    """Run the unit's rounds: boot, stage, run the epochs, check.

    Each round's boot-and-stage time goes to ``setup_ns``; epoch times go
    to the ``epoch`` samples.
    """
    result = UnitResult()
    epoch_samples = array("q")
    totals: Counter = Counter()
    clock = time.perf_counter_ns
    for index in range(ROUNDS_PER_UNIT):
        t0 = clock()
        try:
            fleet = fleet_setup(schedule, index)
        except Exception as exc:  # boot or first staging failed
            result.attempted += 1
            result.failures.add(f"round {index} set-up: "
                                f"{type(exc).__name__}: {exc}")
            continue
        result.setup_ns.append(clock() - t0)
        revisions = _profile_revisions(fleet)
        run_round(fleet, schedule, ROUND_EPOCHS, ctx, epoch_samples,
                  result.failures, index * ROUND_EPOCHS)
        totals["profile_revisions_in_epochs"] += (_profile_revisions(fleet)
                                                  - revisions)
        check_round(fleet, schedule, result.failures, f"round {index}")
        result.attempted += ROUND_EPOCHS + len(schedule.bundles)
        totals.update(fleet_counters(fleet))
        fleet.close()
    if totals["profile_revisions_in_epochs"] == 0:
        result.failures.add("no AppArmor profile reload inside the epochs")
    result.work = totals["ticks"]
    result.samples["epoch"] = epoch_samples
    result.counters = totals
    result.properties = {
        "denial_share": None,
        "avc_hit_ratio": _ratio(totals["avc_hits"],
                                totals["avc_hits"] + totals["avc_misses"]),
        "pairs_per_avc_slot": None,
        "accesses_per_transition": None,
        "transitions_per_epoch": _ratio(totals["transitions"],
                                        len(epoch_samples)),
    }
    return result


def _profile_revisions(fleet: Fleet) -> int:
    return sum(vehicle.world.apparmor.policy.revision
               for vehicle in fleet.vehicles.values())

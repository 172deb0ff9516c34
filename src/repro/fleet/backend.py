"""The fleet host: where the vehicle kernels live.

:class:`InProcessHost` owns the fleet's vehicles, the policy cache they
share and their checkpoints, all in this process.  The epoch-barrier
scheduler (:class:`~repro.fleet.orchestrator.Fleet`) reads and drives
the vehicles directly; the host builds them, polls their health and
keeps the checkpoint custody that crash recovery restores from.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..lsm.policycache import PolicyCache
from .resilience import CheckpointStore, EpochRecord, replay_epoch
from .vehicle import CRUISE_ACCEL_MS2, FleetVehicle


class InProcessHost:
    """Every vehicle of one fleet, with its policy cache and checkpoints."""

    def __init__(self, config):
        self.config = config
        self.vehicles: Dict[str, FleetVehicle] = {}
        #: Parsed and compiled policy texts, shared by this host's
        #: vehicles (restored ones included): each bundle text is parsed
        #: and compiled once per host.
        self.policy_cache = PolicyCache()
        #: The latest checkpoint of each vehicle.
        self.checkpoints = CheckpointStore()

    def boot(self, specs: List[Dict[str, object]]
             ) -> Dict[str, Dict[str, object]]:
        """Build one vehicle per constructor spec; boot health by id."""
        for spec in specs:
            vehicle = FleetVehicle(**spec, policy_cache=self.policy_cache)
            if self.config.start_moving:
                dyn = vehicle.world.dynamics
                dyn.start_engine()
                dyn.accelerate(CRUISE_ACCEL_MS2)
            self.vehicles[vehicle.vehicle_id] = vehicle
        return {vid: vehicle.health_snapshot()
                for vid, vehicle in self.vehicles.items()}

    def health_snapshot(self, vid: str) -> Dict[str, object]:
        return self.vehicles[vid].health_snapshot()

    def restore_vehicle(self, vid: str, full_records: List[EpochRecord],
                        barrier_record: Optional[EpochRecord],
                        baseline_epoch: int) -> Dict[str, object]:
        """Materialize *vid*'s checkpoint, replay the journaled epochs,
        swap the restored vehicle in and re-baseline its checkpoint."""
        cfg = self.config
        restored = self.checkpoints.materialize(vid)
        # Full epochs replay with their ticks; a mid-tick crash epoch
        # replays its barrier work only.
        replays = [(record, True) for record in full_records]
        if barrier_record is not None:
            replays.append((barrier_record, False))
        for record, with_ticks in replays:
            replay_epoch(restored, record, cfg.epoch_ticks, cfg.dt_s,
                         cfg.fleet_key, with_ticks=with_ticks)
        wreck_digest = self.vehicles[vid].state_digest()
        restored_digest = restored.state_digest()
        self.vehicles[vid] = restored
        restored.online = True
        self.checkpoints.take(restored, baseline_epoch)
        return {
            "wreck_digest": wreck_digest,
            "restored_digest": restored_digest,
            "replayed": len(replays),
            "health": restored.health_snapshot(),
        }

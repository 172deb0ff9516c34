"""Fleet execution hosts: where the vehicle kernels live.

The epoch-barrier scheduler (:class:`~repro.fleet.orchestrator.Fleet`)
never touches a vehicle object directly — every per-vehicle effect goes
through a **host**:

* :class:`InProcessHost` — owns a dict of vehicles and runs every
  per-vehicle effect (boot, barrier phases, tick, checkpoint, restore,
  fault arming, report) in the calling process.  It is the ``serial``
  backend, and the *only* implementation of those effects.

* :class:`ProcessHost` — the ``process`` backend.  Vehicles are sharded
  across persistent worker processes (static ownership:
  ``index % workers``) connected by duplex pipes.  Each worker runs an
  :class:`InProcessHost` over its shard and serves batches of pickled
  ``(method, args)`` calls.  The coordinator side only routes calls to
  the owning worker, batches them so each barrier phase costs one round
  trip per worker (online flags and driver actions ride with delivery;
  the post-tick transitions, health, positions and frames ride with the
  tick), and keeps read mirrors so barrier logic — rollout gating,
  invariants I8/I9/I10, reporting — never blocks mid-phase.

All seeded randomness stays where its RNG lives: the fleet plan and bus
draw in the coordinator, each vehicle's own fault plan draws in the
process that owns the vehicle — so the global draw order of every RNG
stream matches the serial backend and fleet fingerprints are bit-for-bit
identical at any worker count (proven by
``tests/fleet/test_backend_conformance``).
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Any, Dict, List, Optional, Tuple

from ..lsm.policycache import PolicyCache
from ..obs.telemetry import snapshot_frame
from .resilience import CheckpointStore, EpochRecord, replay_epoch
from .vehicle import FleetVehicle, apply_driver_action

class InProcessHost:
    """A set of vehicles in this process: the whole fleet (``serial``)
    or one process worker's shard."""

    def __init__(self, config):
        self.config = config
        self.vehicles: Dict[str, FleetVehicle] = {}
        #: Parsed and compiled policy texts, shared by this host's
        #: vehicles (restored ones included): each bundle text is parsed
        #: and compiled once per host.
        self.policy_cache = PolicyCache()
        self._checkpoints = CheckpointStore()

    # -- lifecycle ---------------------------------------------------------
    def boot(self, specs: List[Dict[str, object]]
             ) -> Dict[str, Dict[str, object]]:
        """Build one vehicle per constructor spec; boot health by id."""
        cfg = self.config
        for spec in specs:
            vehicle = FleetVehicle(**spec, policy_cache=self.policy_cache)
            if cfg.start_moving:
                dyn = vehicle.world.dynamics
                dyn.start_engine()
                dyn.accelerate(cfg.cruise_accel_ms2)
            self.vehicles[vehicle.vehicle_id] = vehicle
        return {vid: vehicle.health_snapshot()
                for vid, vehicle in self.vehicles.items()}

    def close(self) -> None:
        pass

    # -- barrier phases ----------------------------------------------------
    def set_online(self, flags: Dict[str, bool]) -> None:
        for vid, on in flags.items():
            self.vehicles[vid].online = on

    def apply_actions(self, actions: List[Tuple[str, str]]) -> None:
        for vid, action in actions:
            apply_driver_action(self.vehicles[vid], action,
                                self.config.cruise_accel_ms2)

    def deliver(self, due: Dict[str, list]) -> Dict[str, List[str]]:
        """Hand each vehicle its due V2X copies; its reactions by id."""
        return {vid: [self.vehicles[vid].deliver(message)
                      for message in messages]
                for vid, messages in due.items()}

    def apply_commands(self, commands: list, now_ns: int) -> list:
        return [self.vehicles[c.vehicle_id].apply_bundle(
                    c.bundle, self.config.fleet_key, now_ns=now_ns)
                for c in commands]

    def tick(self, tickable: List[str], live: List[str] = (),
             frame_spec: Optional[Tuple[int, int]] = None
             ) -> Dict[str, str]:
        """Run the epoch's ticks in *tickable* order.

        Returns ``{vehicle_id: "Type: message"}`` for every vehicle whose
        kernel raised mid-tick.  *live* and *frame_spec* name the
        post-tick reads a mirroring host prefetches; this host serves
        those reads on demand, so it ignores both.
        """
        cfg = self.config
        failures: Dict[str, str] = {}
        for vid in tickable:
            vehicle = self.vehicles[vid]
            try:
                for _ in range(cfg.epoch_ticks):
                    vehicle.tick(dt_s=cfg.dt_s)
            except Exception as exc:   # a vehicle kernel died mid-tick
                failures[vid] = f"{type(exc).__name__}: {exc}"
        return failures

    # -- per-vehicle reads -------------------------------------------------
    def positions(self) -> Dict[str, float]:
        return {vid: vehicle.position_km
                for vid, vehicle in self.vehicles.items()}

    def drain_transitions(self, vid: str) -> list:
        return self.vehicles[vid].drain_transitions()

    def health_snapshot(self, vid: str) -> Dict[str, object]:
        return self.vehicles[vid].health_snapshot()

    def bundle_version(self, vid: str):
        return self.vehicles[vid].bundle_version

    def telemetry_frame(self, vid: str, epoch: int, at_ns: int):
        return snapshot_frame(self.vehicles[vid].world.kernel.obs,
                              vid, epoch, at_ns)

    def report_rows(self) -> Dict[str, Dict[str, object]]:
        rows: Dict[str, Dict[str, object]] = {}
        for vid, vehicle in self.vehicles.items():
            vehicle.drain_transitions()     # flush stragglers
            rows[vid] = {
                "transitions": list(vehicle.transition_log),
                "metrics": vehicle.world.kernel.obs.metrics.to_dict(),
                "situation": vehicle.situation or "",
                "bundle_version": vehicle.bundle_version,
                "apply_log": list(vehicle.apply_log),
            }
        return rows

    # -- faults ------------------------------------------------------------
    def arm_fault(self, vid: str, point: str,
                  knobs: Dict[str, object]) -> None:
        from ..faults.plan import FaultPlan
        vehicle = self.vehicles[vid]
        if vehicle.fault_plan is None:
            vehicle.fault_plan = FaultPlan(vehicle.seed)
        vehicle.fault_plan.arm(point, **knobs)

    # -- checkpoint custody ------------------------------------------------
    @property
    def checkpoints_taken(self) -> int:
        return self._checkpoints.taken

    def checkpoint_take(self, vid: str, epoch: int) -> str:
        return self._checkpoints.take(self.vehicles[vid], epoch).digest

    def checkpoint_meta(self, vid: str) -> Optional[Tuple[int, str]]:
        ckpt = self._checkpoints.get(vid)
        if ckpt is None:
            return None
        return ckpt.epoch, ckpt.digest

    def checkpoint_rows(self) -> List[Dict[str, object]]:
        return self._checkpoints.to_rows()

    def restore_vehicle(self, vid: str, full_records: List[EpochRecord],
                        barrier_record: Optional[EpochRecord],
                        baseline_epoch: int) -> Dict[str, object]:
        cfg = self.config
        restored = self._checkpoints.materialize(vid)
        # Full epochs replay with their ticks; a mid-tick crash epoch
        # replays its barrier work only.
        replays = [(record, True) for record in full_records]
        if barrier_record is not None:
            replays.append((barrier_record, False))
        for record, with_ticks in replays:
            replay_epoch(restored, record, cfg.epoch_ticks, cfg.dt_s,
                         cfg.fleet_key, cfg.cruise_accel_ms2,
                         with_ticks=with_ticks)
        wreck_digest = self.vehicles[vid].state_digest()
        restored_digest = restored.state_digest()
        self.vehicles[vid] = restored
        restored.online = True
        baseline = self._checkpoints.take(restored, baseline_epoch)
        return {
            "wreck_digest": wreck_digest,
            "restored_digest": restored_digest,
            "replayed": len(replays),
            "health": restored.health_snapshot(),
            "position": restored.position_km,
            "situation": restored.situation or "",
            "bundle_version": restored.bundle_version,
            "baseline_digest": baseline.digest,
        }


# -- the process backend -------------------------------------------------------

def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:          # non-POSIX fallback; still correct
        return multiprocessing.get_context()


class WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a fleet worker;
    :class:`ProcessHost` chains it under the re-raised exception."""

    def __str__(self) -> str:
        return self.args[0]


#: One batched call to a worker's host: ``(method name, positional args)``.
Call = Tuple[str, tuple]


class ProcessHost:
    """Vehicles sharded across persistent worker processes.

    Static ownership — vehicle ``index % workers`` — so a vehicle's
    whole life (build, ticks, bundle applies, checkpoints, restores)
    happens in one worker and nothing ever migrates.  Each mirror is
    refreshed by the call whose phase could change it.
    """

    def __init__(self, config):
        self.config = config
        #: The vehicle objects live in the workers, never here.
        self.vehicles: Dict[str, FleetVehicle] = {}
        self._workers: List[multiprocessing.Process] = []
        self._conns: List[Any] = []
        self._owner: Dict[str, int] = {}
        #: Calls held back to ride with the next delivery round trip.
        self._pending: Dict[int, List[Call]] = {}
        # Coordinator mirrors (refreshed per round trip).
        self._positions: Dict[str, float] = {}
        self._health: Dict[str, Dict[str, object]] = {}
        self._versions: Dict[str, object] = {}
        self._fresh_transitions: Dict[str, list] = {}
        self._frames: Dict[str, object] = {}
        self._ckpt_meta: Dict[str, Tuple[int, str]] = {}
        self.checkpoints_taken = 0
        #: Payloads that crossed a process boundary so far (delivered
        #: V2X copies, rollout commands, telemetry frames); reported by
        #: the bench suite as a deterministic count.
        self.crossings = 0
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    def boot(self, specs: List[Dict[str, object]]
             ) -> Dict[str, Dict[str, object]]:
        workers = self.config.workers
        owned: List[List[Dict[str, object]]] = [[] for _ in range(workers)]
        for index, spec in enumerate(specs):
            vid = str(spec["vehicle_id"])
            self._owner[vid] = index % workers
            self._versions[vid] = None
            owned[index % workers].append(spec)
        ctx = _fork_context()
        for w in range(workers):
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(target=_worker_main,
                               args=(child, self.config),
                               daemon=True, name=f"fleet-worker-{w}")
            proc.start()
            child.close()
            self._conns.append(parent)
            self._workers.append(proc)
        results = self._call({w: [("boot", (owned[w],)), ("positions", ())]
                              for w in range(workers)})
        for health, positions in results.values():
            self._health.update(health)
            self._positions.update(positions)
        return {vid: self._health[vid] for vid in self._owner}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._workers:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join()

    # -- call plumbing -----------------------------------------------------
    def _call(self, batches: Dict[int, List[Call]]) -> Dict[int, list]:
        """Send each worker its batch; every worker's results, in call
        order.  A call that raised is re-raised here with its own type,
        chained to the worker's traceback — after every reply is in, so
        the pipes stay in step."""
        if self._closed:
            raise RuntimeError("fleet process backend already closed")
        for w, calls in batches.items():
            self._conns[w].send(calls)
        results: Dict[int, list] = {}
        error = None
        for w in batches:
            reply = self._conns[w].recv()
            if reply[0] == "ok":
                results[w] = reply[1]
            elif error is None:
                error = reply
        if error is not None:
            _, exc, remote_tb = error
            raise exc from WorkerTraceback(remote_tb)
        return results

    def _call_owner(self, vid: str, method: str, *args) -> Any:
        w = self._owner[vid]
        return self._call({w: [(method, args)]})[w][0]

    def _shards(self, vids) -> Dict[int, List[str]]:
        shards: Dict[int, List[str]] = {
            w: [] for w in range(self.config.workers)}
        for vid in vids:
            shards[self._owner[vid]].append(vid)
        return shards

    def _hold(self, method: str, owned: Dict[int, object]) -> None:
        """Queue one call per worker to ride the next delivery."""
        for w, arg in owned.items():
            self._pending.setdefault(w, []).append((method, (arg,)))

    # -- barrier phases ----------------------------------------------------
    def set_online(self, flags: Dict[str, bool]) -> None:
        owned: Dict[int, Dict[str, bool]] = {}
        for vid, on in flags.items():
            owned.setdefault(self._owner[vid], {})[vid] = on
        self._hold("set_online", owned)

    def apply_actions(self, actions: List[Tuple[str, str]]) -> None:
        owned: Dict[int, List[Tuple[str, str]]] = {}
        for vid, action in actions:
            owned.setdefault(self._owner[vid], []).append((vid, action))
        self._hold("apply_actions", owned)

    def deliver(self, due: Dict[str, list]) -> Dict[str, List[str]]:
        owned: Dict[int, Dict[str, list]] = {
            w: {} for w in range(self.config.workers)}
        for vid, messages in due.items():
            owned[self._owner[vid]][vid] = messages
            self.crossings += len(messages)
        pending, self._pending = self._pending, {}
        results = self._call({w: pending.get(w, []) + [("deliver", (mine,))]
                              for w, mine in owned.items()})
        reactions: Dict[str, List[str]] = {}
        for out in results.values():
            reactions.update(out[-1])
        return reactions

    def apply_commands(self, commands: list, now_ns: int) -> list:
        if not commands:
            return []
        slots: Dict[int, List[int]] = {}
        for idx, command in enumerate(commands):
            slots.setdefault(self._owner[command.vehicle_id], []).append(idx)
            self.crossings += 1
        results = self._call({
            w: [("apply_commands", ([commands[i] for i in idxs], now_ns))]
            for w, idxs in slots.items()})
        acks: list = [None] * len(commands)
        for w, idxs in slots.items():
            for idx, ack in zip(idxs, results[w][0]):
                acks[idx] = ack
                if ack.ok:      # the one place a bundle version moves
                    self._versions[ack.vehicle_id] = ack.version
        return acks

    def tick(self, tickable: List[str], live: List[str] = (),
             frame_spec: Optional[Tuple[int, int]] = None
             ) -> Dict[str, str]:
        """One round trip per worker: its ticks, then the reads the
        barrier makes next — positions, and each *live* vehicle's fresh
        transitions, health and (with *frame_spec*) telemetry frame."""
        ticks = self._shards(tickable)
        reads = self._shards(live)
        batches: Dict[int, List[Call]] = {}
        for w in range(self.config.workers):
            calls: List[Call] = [("tick", (ticks[w],)), ("positions", ())]
            for vid in reads[w]:
                calls += [("drain_transitions", (vid,)),
                          ("health_snapshot", (vid,))]
                if frame_spec is not None:
                    calls.append(
                        ("telemetry_frame", (vid,) + tuple(frame_spec)))
            batches[w] = calls
        width = 3 if frame_spec is not None else 2
        results = self._call(batches)
        failures: Dict[str, str] = {}
        self._fresh_transitions = {}
        self._frames = {}
        for w in range(self.config.workers):
            failed, positions, *rest = results[w]
            failures.update(failed)
            self._positions.update(positions)
            for i, vid in enumerate(reads[w]):
                if vid in failed:
                    continue    # the wreck's reads are discarded
                fresh, health, *frame = rest[i * width:(i + 1) * width]
                if fresh:
                    self._fresh_transitions[vid] = fresh
                self._health[vid] = health
                if frame:
                    self._frames[vid] = frame[0]
                    self.crossings += 1
        return failures

    # -- per-vehicle reads (mirrors) ---------------------------------------
    def positions(self) -> Dict[str, float]:
        return {vid: self._positions[vid] for vid in self._owner}

    def drain_transitions(self, vid: str) -> list:
        return self._fresh_transitions.pop(vid, [])

    def health_snapshot(self, vid: str) -> Dict[str, object]:
        return self._health[vid]

    def bundle_version(self, vid: str):
        return self._versions[vid]

    def telemetry_frame(self, vid: str, epoch: int, at_ns: int):
        return self._frames.get(vid)

    def report_rows(self) -> Dict[str, Dict[str, object]]:
        rows: Dict[str, Dict[str, object]] = {}
        for out in self._call({w: [("report_rows", ())]
                               for w in range(self.config.workers)}
                              ).values():
            rows.update(out[0])
        return rows

    # -- faults ------------------------------------------------------------
    def arm_fault(self, vid: str, point: str,
                  knobs: Dict[str, object]) -> None:
        self._call_owner(vid, "arm_fault", vid, point, knobs)

    # -- checkpoint custody ------------------------------------------------
    def checkpoint_take(self, vid: str, epoch: int) -> str:
        digest = self._call_owner(vid, "checkpoint_take", vid, epoch)
        self._ckpt_meta[vid] = (epoch, digest)
        self.checkpoints_taken += 1
        return digest

    def checkpoint_meta(self, vid: str) -> Optional[Tuple[int, str]]:
        return self._ckpt_meta.get(vid)

    def checkpoint_rows(self) -> List[Dict[str, object]]:
        return [{"vehicle": vid, "epoch": meta[0], "digest": meta[1]}
                for vid, meta in sorted(self._ckpt_meta.items())]

    def restore_vehicle(self, vid: str, full_records: List[EpochRecord],
                        barrier_record: Optional[EpochRecord],
                        baseline_epoch: int) -> Dict[str, object]:
        result = self._call_owner(vid, "restore_vehicle", vid,
                                  full_records, barrier_record,
                                  baseline_epoch)
        self._positions[vid] = result["position"]
        self._health[vid] = result["health"]
        self._versions[vid] = result["bundle_version"]
        self._ckpt_meta[vid] = (baseline_epoch, result["baseline_digest"])
        self.checkpoints_taken += 1
        return result


# -- the worker process --------------------------------------------------------

def _worker_main(conn, config) -> None:
    """One fleet worker: an :class:`InProcessHost` over this worker's
    shard, serving batches of ``(method, args)`` calls until it receives
    ``None``.  A call that raises ends its batch; the exception goes back
    with its formatted traceback."""
    host = InProcessHost(config)
    while True:
        try:
            calls = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if calls is None:
            return
        try:
            reply = ("ok", [getattr(host, method)(*args)
                            for method, args in calls])
        except Exception as exc:
            reply = ("error", exc, traceback.format_exc())
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
        except Exception as exc:        # the reply does not pickle
            conn.send(("error", RuntimeError(
                f"unpicklable fleet worker reply: "
                f"{type(exc).__name__}: {exc}"), traceback.format_exc()))


def create_host(config):
    """The host for ``config.backend``."""
    if config.backend == "process":
        return ProcessHost(config)
    return InProcessHost(config)

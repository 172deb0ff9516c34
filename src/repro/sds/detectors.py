"""Situation-event detectors.

Detectors turn raw sensor samples into the *edge-triggered* situation
events the SSM consumes.  SACK's key efficiency claim (C1) is that only
*events* cross the user/kernel boundary, not the sensor firehose — so each
detector keeps the state needed to emit an event exactly once per
situation change.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sack import events as ev

Samples = Dict[str, object]


class Detector:
    """Base detector: stateful sample-stream → event-name mapper.

    ``update`` is edge-triggered: it emits on a change of situation,
    so the same sweep twice in a row emits nothing the second time and
    leaves the detector's state as the first left it.  The SDS relies on
    this to skip the detectors on a sweep that repeats the previous one;
    a detector whose output depends on anything but its state and the
    sweep (``now_ns``, say, for a debounce) breaks that contract.
    """

    name = "detector"

    def update(self, samples: Samples, now_ns: int) -> List[str]:
        """Consume one sample sweep; return newly detected event names."""
        raise NotImplementedError

    def resync(self) -> None:
        """Forget edge state after a policy (re)load.

        A policy load replaces the SSM, which restarts in the policy's
        initial state; a detector that kept its edge memory would then
        never re-emit the situation the vehicle is *currently* in.
        ``resync`` rewinds the detector to its boot assumptions so the
        next sweep re-detects reality and the new SSM catches up.
        """


class CrashDetector(Detector):
    """Crash on airbag flag or extreme deceleration.

    The deceleration threshold defaults to 40 m/s² (~4 g), in line with
    airbag-deployment criteria; commercial crash detection (paper cites
    GM/OnStar) fuses more signals, but the event contract is the same.
    """

    name = "crash"

    def __init__(self, decel_threshold_ms2: float = 40.0):
        self.decel_threshold_ms2 = decel_threshold_ms2
        self._in_crash = False

    def update(self, samples: Samples, now_ns: int) -> List[str]:
        crashed = bool(samples.get("crashed", False))
        hard_impact = samples.get("accel_ms2", 0.0) <= -self.decel_threshold_ms2
        if (crashed or hard_impact) and not self._in_crash:
            self._in_crash = True
            return [ev.CRASH_DETECTED]
        if not crashed and not hard_impact and self._in_crash:
            self._in_crash = False
            return [ev.EMERGENCY_CLEARED]
        return []

    def resync(self) -> None:
        self._in_crash = False


class DrivingStateDetector(Detector):
    """vehicle_started / vehicle_parked edges from speed + ignition."""

    name = "driving_state"

    def __init__(self, moving_threshold_kmh: float = 1.0):
        self.moving_threshold_kmh = moving_threshold_kmh
        self._driving: Optional[bool] = None

    def update(self, samples: Samples, now_ns: int) -> List[str]:
        speed = float(samples.get("speed_kmh", 0.0))
        engine = bool(samples.get("engine_on", False))
        driving = engine and speed > self.moving_threshold_kmh
        if driving == self._driving:
            return []
        first = self._driving is None
        self._driving = driving
        if driving:
            return [ev.VEHICLE_STARTED]
        # Suppress the initial "parked" edge at boot: the SSM starts there.
        return [] if first else [ev.VEHICLE_PARKED]

    def resync(self) -> None:
        # The SSM restarts parked; a moving vehicle must re-edge.
        self._driving = False


class DriverPresenceDetector(Detector):
    """driver_left / driver_returned edges from seat occupancy."""

    name = "driver_presence"

    def __init__(self):
        self._present: Optional[bool] = None

    def update(self, samples: Samples, now_ns: int) -> List[str]:
        present = bool(samples.get("driver_present", False))
        if present == self._present:
            return []
        first = self._present is None
        self._present = present
        if first:
            return []
        return [ev.DRIVER_RETURNED if present else ev.DRIVER_LEFT]

    def resync(self) -> None:
        # The SSM restarts with-driver; an empty seat must re-edge.
        self._present = True


class SpeedBandDetector(Detector):
    """speed_high / speed_low crossings with hysteresis.

    Drives the paper's Fig. 3(b) experiment (high-speed vs low-speed
    situations gating a critical file) and the CVE-2023-6073 volume case.
    """

    name = "speed_band"

    def __init__(self, threshold_kmh: float = 60.0,
                 hysteresis_kmh: float = 5.0):
        if hysteresis_kmh < 0 or threshold_kmh <= 0:
            raise ValueError("bad speed band parameters")
        self.threshold_kmh = threshold_kmh
        self.hysteresis_kmh = hysteresis_kmh
        self._high: Optional[bool] = None

    def update(self, samples: Samples, now_ns: int) -> List[str]:
        speed = float(samples.get("speed_kmh", 0.0))
        if self._high:
            high = speed > self.threshold_kmh - self.hysteresis_kmh
        else:
            high = speed > self.threshold_kmh
        if high == self._high:
            return []
        first = self._high is None
        self._high = high
        if first and not high:
            return []
        return [ev.SPEED_HIGH if high else ev.SPEED_LOW]

    def resync(self) -> None:
        self._high = False


class GeofenceDetector(Detector):
    """Zone entry/exit events from the odometer position.

    The paper's related work (Gupta et al.) treats location as an ABAC
    attribute; SACK instead turns geofence crossings into situation
    events — ``entered_zone_<name>`` / ``left_zone_<name>`` — so location
    can drive state transitions like any other situation change.
    """

    name = "geofence"

    def __init__(self, zones: Dict[str, tuple]):
        """*zones*: name -> (start_km, end_km) intervals along the route."""
        for zone, (start, end) in zones.items():
            if not zone.replace("_", "").isalnum():
                raise ValueError(f"invalid zone name {zone!r}")
            if start >= end:
                raise ValueError(f"zone {zone!r}: start must be < end")
        self.zones = dict(zones)
        self._inside: Dict[str, bool] = {}

    def update(self, samples: Samples, now_ns: int) -> List[str]:
        position = float(samples.get("position_km", 0.0))
        out: List[str] = []
        for zone, (start, end) in self.zones.items():
            inside = start <= position < end
            was_inside = self._inside.get(zone)
            if was_inside is None:
                self._inside[zone] = inside
                if inside:
                    out.append(f"entered_zone_{zone}")
                continue
            if inside != was_inside:
                self._inside[zone] = inside
                out.append(f"entered_zone_{zone}" if inside
                           else f"left_zone_{zone}")
        return out

    def resync(self) -> None:
        self._inside = {}


def default_detector_suite() -> List[Detector]:
    return [CrashDetector(), DrivingStateDetector(),
            DriverPresenceDetector(), SpeedBandDetector()]

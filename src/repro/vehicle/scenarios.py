"""Drive-cycle scenarios: scripted trips for tests and demonstrations.

A scenario is a list of timed phases (accelerate, cruise, brake, park,
crash, driver in/out).  The runner steps the dynamics and the SDS
together and records the SSM's state timeline — letting tests assert
"during phase X the system was in situation Y" over realistic trips
instead of hand-poked events.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from .ivi import IviWorld


@dataclasses.dataclass(frozen=True)
class Phase:
    """One scripted phase of a trip."""

    name: str
    duration_s: float
    #: Called once when the phase starts (dynamics manipulation).
    on_enter: Optional[Callable] = None


def urban_commute() -> List[Phase]:
    """Stop-and-go city driving: pull out, two lights, park."""
    return [
        Phase("start", 1.0, lambda d: (d.start_engine(),
                                       d.accelerate(2.5))),
        Phase("street", 15.0, lambda d: d.cruise()),
        Phase("red_light_brake", 6.0, lambda d: d.accelerate(-2.0)),
        Phase("pull_away", 10.0, lambda d: d.accelerate(2.5)),
        Phase("street2", 15.0, lambda d: d.cruise()),
        Phase("arrive_brake", 12.0, lambda d: d.accelerate(-2.5)),
        Phase("park", 2.0, lambda d: d.stop_engine()),
        Phase("leave_car", 2.0, lambda d: d.set_driver_present(False)),
    ]


def highway_trip() -> List[Phase]:
    """Motorway run: hard acceleration, long cruise, exit."""
    return [
        Phase("start", 1.0, lambda d: (d.start_engine(),
                                       d.accelerate(3.0))),
        Phase("onramp", 12.0, None),
        Phase("cruise", 60.0, lambda d: d.cruise()),
        Phase("exit_brake", 12.0, lambda d: d.accelerate(-2.5)),
        Phase("surface_street", 10.0, lambda d: d.accelerate(1.0)),
        Phase("arrive", 10.0, lambda d: d.accelerate(-2.0)),
        Phase("park", 2.0, lambda d: d.stop_engine()),
    ]


def crash_on_highway() -> List[Phase]:
    """A highway trip that ends in a collision and a rescue."""
    return [
        Phase("start", 1.0, lambda d: (d.start_engine(),
                                       d.accelerate(3.0))),
        Phase("accelerate", 12.0, None),
        Phase("cruise", 20.0, lambda d: d.cruise()),
        Phase("impact", 1.0, lambda d: d.crash()),
        Phase("aftermath", 10.0, None),
        Phase("rescue_done", 2.0, lambda d: d.clear_emergency()),
    ]


@dataclasses.dataclass
class PhaseRecord:
    """What happened during one phase."""

    name: str
    start_s: float
    end_s: float
    situations: List[str]
    events: List[str]
    final_speed_kmh: float

    @property
    def dominant_situation(self) -> str:
        return max(set(self.situations), key=self.situations.count)


class ScenarioRunner:
    """Runs scripted phases against an IVI world."""

    def __init__(self, world: IviWorld, tick_s: float = 0.5):
        self.world = world
        self.tick_s = tick_s

    def run(self, phases: List[Phase]) -> List[PhaseRecord]:
        records: List[PhaseRecord] = []
        elapsed = 0.0
        for phase in phases:
            if phase.on_enter is not None:
                phase.on_enter(self.world.dynamics)
            situations: List[str] = []
            events: List[str] = []
            ticks = max(1, int(phase.duration_s / self.tick_s))
            for _ in range(ticks):
                events.extend(self.world.run_sds(1, dt_s=self.tick_s))
                situations.append(self.world.situation or "none")
            records.append(PhaseRecord(
                name=phase.name, start_s=elapsed,
                end_s=elapsed + phase.duration_s,
                situations=situations, events=events,
                final_speed_kmh=self.world.dynamics.speed_kmh))
            elapsed += phase.duration_s
        return records

    def timeline(self, phases: List[Phase]) -> List[Tuple[str, str]]:
        """(phase, dominant situation) pairs — the compact trip story."""
        return [(r.name, r.dominant_situation) for r in self.run(phases)]


SCENARIOS: Dict[str, Callable[[], List[Phase]]] = {
    "urban_commute": urban_commute,
    "highway_trip": highway_trip,
    "crash_on_highway": crash_on_highway,
}

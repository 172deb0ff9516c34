"""The detector contract the SDS's repeat-sweep skip relies on.

Every shipped detector is edge-triggered: the same sweep twice in a row
emits nothing the second time and leaves the detector as the first left
it, and ``resync`` rewinds it to its boot assumptions, whatever came
before.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.fleet.vehicle import V2xAlertDetector
from repro.sds.detectors import (CrashDetector, DriverPresenceDetector,
                                 DrivingStateDetector, GeofenceDetector,
                                 SpeedBandDetector)

#: Factories for every detector the repository ships.
DETECTORS = {
    "crash": CrashDetector,
    "driving_state": DrivingStateDetector,
    "driver_presence": DriverPresenceDetector,
    "speed_band": SpeedBandDetector,
    "geofence": lambda: GeofenceDetector({"depot": (0.0, 0.5),
                                          "school": (1.0, 2.0)}),
    "v2x_alert": V2xAlertDetector,
}

# Speeds and decelerations cluster around the detectors' thresholds
# (1 km/h moving, 55/60 km/h band, -40 m/s² impact) so edges happen.
sweeps = st.fixed_dictionaries({
    "speed_kmh": st.sampled_from([0.0, 0.5, 1.0, 1.5, 30.0, 54.9, 55.0,
                                  57.0, 60.0, 60.1, 90.0]),
    "accel_ms2": st.sampled_from([0.0, -4.0, -39.9, -40.0, -80.0, 3.0]),
    "position_km": st.sampled_from([0.0, 0.25, 0.5, 0.99, 1.0, 1.5, 2.0,
                                    3.0]),
    "driver_present": st.booleans(),
    "engine_on": st.booleans(),
    "crashed": st.booleans(),
    "v2x_alert": st.sampled_from(["", "crash", "crash_cleared"]),
})


def state(detector):
    return copy.deepcopy(vars(detector))


@settings(max_examples=60, deadline=None)
@given(st.lists(sweeps, min_size=1, max_size=25))
def test_repeated_sweep_emits_nothing_and_keeps_state(sequence):
    for name, factory in DETECTORS.items():
        detector = factory()
        for sweep in sequence:
            detector.update(sweep, 0)
            before = state(detector)
            assert detector.update(dict(sweep), 0) == [], (name, sweep)
            assert state(detector) == before, (name, sweep)


@settings(max_examples=60, deadline=None)
@given(st.lists(sweeps, max_size=25), sweeps)
def test_resync_rewinds_to_boot_assumptions(history, sweep):
    for name, factory in DETECTORS.items():
        detector = factory()
        for past in history:
            detector.update(past, 0)
        detector.update(sweep, 0)
        detector.resync()
        fresh = factory()
        fresh.resync()
        assert state(detector) == state(fresh), name
        # The sweep the detector last saw re-emits exactly what a
        # rewound detector emits on it, and only once.
        assert detector.update(sweep, 0) == fresh.update(sweep, 0), name
        assert detector.update(sweep, 0) == [], name

"""Host-level contracts: a failed boot surfaces the vehicle's own error,
and the host keeps the custody of every vehicle's latest checkpoint."""

import pytest

from repro.fleet.orchestrator import Fleet, FleetConfig, ScriptedDriver
from repro.kernel.errors import Errno, KernelError


def test_failed_boot_raises_the_vehicle_error():
    # Seeded bundle-load faults at this intensity kill a vehicle's boot.
    config = FleetConfig(n_vehicles=8, seed=7, mode="apparmor",
                         vehicle_fault_intensity=0.3)
    with pytest.raises(KernelError) as err:
        Fleet(config)
    assert err.value.errno is Errno.EIO


def test_checkpoint_custody_lives_on_the_host():
    fleet = Fleet(FleetConfig(n_vehicles=4, seed=7,
                              checkpoint_interval_epochs=2,
                              always_checkpoint=True),
                  driver=ScriptedDriver())
    fleet.run(6)
    rows = fleet.host.checkpoints.to_rows()
    assert {row["vehicle"] for row in rows} == set(fleet.ids)
    assert all(row["digest"] for row in rows)
    # Boot baseline plus the checkpoints after epochs 1, 3 and 5.
    assert fleet.host.checkpoints.taken == 4 * len(fleet.ids)
    assert {row["epoch"] for row in rows} == {5}

"""Host-level contracts shared by the serial and process backends: a
failed boot surfaces the same error and leaves no worker behind, errors
cross the worker pipe intact, and the process backend's payload
crossing count (a gated suite metric) stays pinned."""

import multiprocessing
import pickle

import pytest

from repro.faults.points import InjectedFault
from repro.fleet.backend import WorkerTraceback
from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.orchestrator import Fleet, FleetConfig, ScriptedDriver
from repro.kernel.errors import Errno, KernelError
from repro.vehicle.ivi import DEFAULT_SACK_POLICY


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_failed_boot_raises_the_serial_error_and_reaps_workers(backend):
    before = set(multiprocessing.active_children())
    # Seeded bundle-load faults at this intensity kill a vehicle's boot.
    config = FleetConfig(n_vehicles=8, seed=7, workers=2, backend=backend,
                         mode="apparmor", vehicle_fault_intensity=0.3)
    with pytest.raises(KernelError) as err:
        Fleet(config)
    assert err.value.errno is Errno.EIO
    if backend == "process":
        assert isinstance(err.value.__cause__, WorkerTraceback)
        assert "KernelError" in str(err.value.__cause__)
    assert set(multiprocessing.active_children()) - before == set()


@pytest.mark.parametrize("exc", [
    KernelError(Errno.EIO, "policy: injected load failure"),
    KernelError(Errno.EACCES),
    InjectedFault("sack:bridge_reload", "mid-transition"),
], ids=["kernel-error", "kernel-error-bare", "injected-fault"])
def test_vehicle_errors_survive_pickling(exc):
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is type(exc)
    assert str(clone) == str(exc)
    assert vars(clone) == vars(exc)


def test_mp_rich_cell_crossings_are_pinned():
    # The fleet-mp-rich suite cell: 8 vehicles on 4 process workers,
    # 10 epochs, veh000 crashing at epoch 1 and clearing at epoch 8,
    # with a staged rollout.  Every delivered V2X copy, rollout command
    # and telemetry frame that crosses a worker pipe counts once.
    config = FleetConfig(n_vehicles=8, seed=7, workers=4,
                         backend="process")
    driver = ScriptedDriver().at(1, "veh000", "crash") \
                             .at(8, "veh000", "clear")
    with Fleet(config, driver=driver) as fleet:
        fleet.stage_rollout(make_bundle(
            1, DEFAULT_SACK_POLICY,
            signer=BundleSigner(fleet.config.fleet_key)))
        fleet.run(10)
        assert fleet.host.crossings == 74

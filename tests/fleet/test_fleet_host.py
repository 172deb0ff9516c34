"""Host-level contracts shared by the serial and process backends: a
failed boot surfaces the same error and leaves no worker behind, errors
cross the worker pipe intact, and the process cost model's makespan
stays pinned (its IPC-crossing count feeds the gated speedup)."""

import multiprocessing
import pickle

import pytest

from repro.faults.points import InjectedFault
from repro.fleet.backend import WorkerTraceback
from repro.fleet.orchestrator import Fleet, FleetConfig, TrafficDriver
from repro.kernel.errors import Errno, KernelError


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


def test_mp_scale_cell_makespan_is_pinned():
    # The fleet-mp-scale suite cell: 8 vehicles on 4 process workers,
    # 6 epochs of seeded traffic.  Makespan = owner-shard ticks +
    # per-vehicle barrier + modelled IPC crossings.
    config = FleetConfig(n_vehicles=8, seed=7, workers=4,
                         backend="process")
    with Fleet(config, driver=TrafficDriver(7)) as fleet:
        report = fleet.run(6).report
    assert report.compute_makespan_ns == 242_400_000
    assert report.vehicles_per_second() == 198.01980198019803

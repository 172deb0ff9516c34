"""The DAC check asks ``capable(CAP_DAC_OVERRIDE)`` only when the mode
bits refuse, as Linux's ``generic_permission()`` does.

The order changes which hooks run, never a verdict: a differential test
replays the capability-first order kept below against the kernel's over
every task kind, mode and mask, with and without a MAC module that
refuses ``capable``.
"""

import pytest

from repro.kernel import (Capability, KernelError, MAY_EXEC, MAY_READ,
                          MAY_WRITE, user_credentials)
from repro.lsm import HookStats, LsmModule, boot_kernel

OWNER, GROUP = 1000, 500

TASKS = {
    "root": None,
    "owner": user_credentials(OWNER),
    "group": user_credentials(2000, gid=GROUP),
    "other": user_credentials(3000),
    "owner+override": user_credentials(
        OWNER, caps=[Capability.CAP_DAC_OVERRIDE]),
    "group+override": user_credentials(
        2000, gid=GROUP, caps=[Capability.CAP_DAC_OVERRIDE]),
    "other+override": user_credentials(
        3000, caps=[Capability.CAP_DAC_OVERRIDE]),
}


class DenyCapable(LsmModule):
    """A MAC module that refuses every capability."""

    name = "denycap"

    def capable(self, task, cap):
        return self.EPERM


def capability_first(kernel, task, inode, mask):
    """The order before the change: ``capable`` first, then the bits."""
    cred = task.cred
    if cred.euid == 0 or kernel.capable(task, Capability.CAP_DAC_OVERRIDE):
        return True
    if cred.euid == inode.uid:
        bits = (inode.mode >> 6) & 0o7
    elif cred.egid == inode.gid:
        bits = (inode.mode >> 3) & 0o7
    else:
        bits = inode.mode & 0o7
    want = ((0o4 if mask & MAY_READ else 0) | (0o2 if mask & MAY_WRITE else 0)
            | (0o1 if mask & MAY_EXEC else 0))
    return (bits & want) == want


def mode_bits_first(kernel, task, inode, mask):
    try:
        kernel._dac_permission(task, inode, mask, "/tmp/f")
    except KernelError:
        return False
    return True


def _world(modules):
    kernel, _ = boot_kernel(modules)
    stats = HookStats().attach(kernel.obs)
    inode = kernel.vfs.create_file("/tmp/f", uid=OWNER, gid=GROUP).inode
    tasks = {}
    for kind, cred in TASKS.items():
        task = kernel.sys_fork(kernel.procs.init)
        if cred is not None:
            task.cred = cred
        tasks[kind] = task
    return kernel, stats, inode, tasks


def _capable_calls(stats):
    """``capable`` dispatches: every walk starts at the capability
    module."""
    return stats.calls.get("capability.capable", 0)


@pytest.mark.parametrize("modules", [[], [DenyCapable()]],
                         ids=["capability", "mac-denies-capable"])
def test_verdicts_match_capability_first_order(modules):
    kernel, _, inode, tasks = _world(modules)
    checked = 0
    for mode in range(0o1000):
        inode.mode = (inode.mode & ~0o777) | mode
        for kind, task in tasks.items():
            for mask in range(8):
                assert mode_bits_first(kernel, task, inode, mask) == \
                    capability_first(kernel, task, inode, mask), (
                        kind, oct(mode), mask)
                checked += 1
    assert checked == 0o1000 * len(TASKS) * 8


@pytest.mark.parametrize("modules", [[], [DenyCapable()]],
                         ids=["capability", "mac-denies-capable"])
def test_capable_is_asked_only_when_the_bits_refuse(modules):
    kernel, stats, inode, tasks = _world(modules)
    for mode in (0o000, 0o640, 0o666, 0o777):
        inode.mode = (inode.mode & ~0o777) | mode
        for kind, task in tasks.items():
            bits_task = kernel.sys_fork(kernel.procs.init)
            bits_task.cred = task.cred.with_caps(())
            for mask in range(8):
                bits_allow = (kind == "root" or capability_first(
                    kernel, bits_task, inode, mask))
                before = _capable_calls(stats)
                mode_bits_first(kernel, task, inode, mask)
                asked = _capable_calls(stats) - before
                assert asked == (0 if bits_allow else 1), (
                    kind, oct(mode), mask)


def test_override_holder_is_refused_when_a_mac_module_denies_capable():
    kernel, _, inode, tasks = _world([DenyCapable()])
    inode.mode = (inode.mode & ~0o777) | 0o600
    task = tasks["other+override"]
    assert not mode_bits_first(kernel, task, inode, MAY_READ)
    kernel, _, inode, tasks = _world([])
    inode.mode = (inode.mode & ~0o777) | 0o600
    assert mode_bits_first(kernel, tasks["other+override"], inode, MAY_READ)

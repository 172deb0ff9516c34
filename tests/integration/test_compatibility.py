"""E8 — compatibility of SACK with AppArmor via LSM stacking (§IV-D).

The paper tests 10 different SACK policies alongside the Ubuntu 20.04
default AppArmor profiles under ``CONFIG_LSM="SACK,AppArmor"``: SACK
checks first; AppArmor decides only what SACK already allowed.
"""

import pytest

from repro.apparmor import AppArmorLsm, load_ubuntu_defaults
from repro.bench.harness import make_synthetic_policy
from repro.kernel import KernelError, user_credentials
from repro.lsm import boot_kernel
from repro.sack import SackLsm, parse_policy
from repro.sack.policy.checker import check_policy, has_errors
from repro.vehicle.devices import IOCTL_SYMBOLS
from repro.vehicle.ivi import DEFAULT_SACK_POLICY, IVI_APPARMOR_PROFILES


def ten_sack_policies():
    """Ten distinct SACK policies: the default + nine synthetic ones."""
    policies = [parse_policy(DEFAULT_SACK_POLICY)]
    for i in range(1, 10):
        policies.append(make_synthetic_policy(
            n_rules=5 * i, n_states=1 + i % 4, name=f"compat-{i}"))
    return policies


def boot_stacked(policy):
    apparmor = AppArmorLsm()
    load_ubuntu_defaults(apparmor.policy)
    apparmor.policy.load_text(IVI_APPARMOR_PROFILES)
    sack = SackLsm()
    kernel, fw = boot_kernel([sack, apparmor])
    sack.load_policy(policy, ioctl_symbols=IOCTL_SYMBOLS)
    return kernel, fw, sack, apparmor


class TestTenPolicies:
    def test_all_policies_are_valid(self):
        for policy in ten_sack_policies():
            assert not has_errors(check_policy(policy)), policy.name

    @pytest.mark.parametrize("index", range(10))
    def test_policy_boots_with_default_apparmor(self, index):
        policy = ten_sack_policies()[index]
        kernel, fw, sack, apparmor = boot_stacked(policy)
        assert fw.config_lsm == "capability,sack,apparmor"
        assert sack.current_state == policy.initial
        # Ordinary system activity works under the combined stack.
        init = kernel.procs.init
        kernel.write_file(init, "/tmp/check", b"ok")
        assert kernel.read_file(init, "/tmp/check") == b"ok"
        child = kernel.sys_fork(init)
        kernel.sys_exit(child, 0)
        kernel.sys_waitpid(init)


class TestStackingSemantics:
    def test_sack_checks_before_apparmor(self):
        """A SACK denial must prevent AppArmor from even being asked."""
        kernel, fw, sack, apparmor = boot_stacked(
            parse_policy(DEFAULT_SACK_POLICY))
        kernel.vfs.makedirs("/dev/car")
        kernel.vfs.create_file("/dev/car/door", mode=0o666)
        task = kernel.sys_fork(kernel.procs.init)
        task.comm = "media_app"
        task.cred = user_credentials(1001)
        with pytest.raises(KernelError):
            kernel.write_file(task, "/dev/car/door", b"x", create=False)
        denials = kernel.obs.audit.by_kind("avc")
        assert [r.module for r in denials] == ["sack"]

    def test_apparmor_still_enforces_when_sack_allows(self):
        """Access outside SACK's guards falls through to AppArmor."""
        kernel, fw, sack, apparmor = boot_stacked(
            parse_policy(DEFAULT_SACK_POLICY))
        kernel.vfs.create_file("/usr/bin/media_app", mode=0o755)
        kernel.vfs.create_file("/etc/shadow", mode=0o666)
        task = kernel.sys_fork(kernel.procs.init)
        task.cred = user_credentials(1001)
        kernel.sys_execve(task, "/usr/bin/media_app")
        with pytest.raises(KernelError):
            kernel.read_file(task, "/etc/shadow")
        assert kernel.obs.audit.query(kind="avc", module="apparmor",
                                      path="/etc/shadow")

    def test_ubuntu_profiles_unaffected_by_sack(self):
        """dhclient behaves the same with and without SACK stacked."""
        def run_dhclient(with_sack):
            apparmor = AppArmorLsm()
            load_ubuntu_defaults(apparmor.policy)
            modules = [apparmor]
            if with_sack:
                sack = SackLsm()
                modules = [sack, apparmor]
            kernel, _ = boot_kernel(modules)
            if with_sack:
                modules[0].load_policy(parse_policy(DEFAULT_SACK_POLICY),
                                       ioctl_symbols=IOCTL_SYMBOLS)
            kernel.vfs.makedirs("/sbin")
            kernel.vfs.makedirs("/var/lib/dhcp")
            kernel.vfs.create_file("/sbin/dhclient", mode=0o755)
            kernel.vfs.create_file("/etc/hostname", mode=0o644)
            task = kernel.sys_fork(kernel.procs.init)
            # dhclient runs as root but with an empty capability set, so
            # AppArmor (not DAC) is the deciding layer here.
            task.cred = user_credentials(0, caps=())
            kernel.sys_execve(task, "/sbin/dhclient")
            allowed = []
            try:
                kernel.write_file(task, "/var/lib/dhcp/lease", b"x")
                allowed.append("lease")
            except KernelError:
                pass
            try:
                kernel.read_file(task, "/etc/hostname")
                allowed.append("hostname")
            except KernelError:
                pass
            return allowed

        assert run_dhclient(False) == run_dhclient(True) == ["lease"]

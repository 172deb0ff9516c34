"""Tests for the LSM framework: stacking, dispatch, stats."""

import pytest

from repro.kernel import Capability, Errno, KernelError, OpenFlags
from repro.lsm import (Hook, HookStats, LsmFramework, LsmModule,
                       boot_kernel)


class Recorder(LsmModule):
    """Records hook invocations; optionally denies specific paths."""

    def __init__(self, name, deny_paths=()):
        self.name = name
        self.calls = []
        self.deny_paths = set(deny_paths)

    def file_open(self, task, file) -> int:
        self.calls.append(("file_open", file.path))
        if file.path in self.deny_paths:
            return self.EACCES
        return 0

    def file_permission(self, task, file, mask) -> int:
        self.calls.append(("file_permission", file.path))
        return 0


class TestStackOrder:
    def test_capability_always_first(self):
        fw = LsmFramework([Recorder("a")])
        assert fw.modules[0].name == "capability"
        assert fw.config_lsm == "capability,a"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            LsmFramework([Recorder("x"), Recorder("x")])

    def test_from_config_string(self):
        a, b = Recorder("sack"), Recorder("apparmor")
        fw = LsmFramework.from_config("sack,apparmor",
                                      {"sack": a, "apparmor": b})
        assert fw.config_lsm == "capability,sack,apparmor"
        assert fw.modules[1] is a
        assert fw.modules[2] is b

    def test_from_config_order_matters(self):
        a, b = Recorder("sack"), Recorder("apparmor")
        fw = LsmFramework.from_config("apparmor,sack",
                                      {"sack": a, "apparmor": b})
        assert fw.modules[1] is b

    def test_from_config_unknown_module(self):
        with pytest.raises(KeyError):
            LsmFramework.from_config("nonsense", {})

    def test_from_config_duplicate_module(self):
        with pytest.raises(ValueError):
            LsmFramework.from_config("sack,sack",
                                     {"sack": Recorder("sack")})

    def test_from_config_duplicate_capability_rejected(self):
        # Regression: repeated "capability" entries used to be silently
        # collapsed because capability is injected by the constructor and
        # skipped during registry lookup.
        a = Recorder("a")
        with pytest.raises(ValueError) as err:
            LsmFramework.from_config("capability,capability,a", {"a": a})
        assert "CONFIG_LSM" in str(err.value)
        assert "capability" in str(err.value)

    def test_from_config_duplicate_error_names_config(self):
        a = Recorder("sack")
        with pytest.raises(ValueError) as err:
            LsmFramework.from_config("sack, sack", {"sack": a})
        assert "sack, sack" in str(err.value)

    def test_from_config_explicit_capability_still_first(self):
        # "capability" may appear anywhere in CONFIG_LSM (or not at all);
        # the stack always has exactly one, in front, as in Linux.
        a = Recorder("a")
        for config in ("capability,a", "a,capability", "a"):
            fw = LsmFramework.from_config(config, {"a": a})
            assert fw.config_lsm == "capability,a"

    def test_module_named(self):
        a = Recorder("a")
        fw = LsmFramework([a])
        assert fw.module_named("a") is a
        with pytest.raises(KeyError):
            fw.module_named("zzz")


class TestFirstDenyWins:
    def test_first_module_denies_second_never_sees(self):
        first = Recorder("first", deny_paths=["/blocked"])
        second = Recorder("second")
        kernel, _ = boot_kernel([first, second])
        kernel.vfs.create_file("/blocked")
        with pytest.raises(KernelError):
            kernel.sys_open(kernel.procs.init, "/blocked")
        assert ("file_open", "/blocked") in first.calls
        assert ("file_open", "/blocked") not in second.calls

    def test_allow_flows_through_all(self):
        first = Recorder("first")
        second = Recorder("second")
        kernel, _ = boot_kernel([first, second])
        kernel.vfs.create_file("/ok")
        fd = kernel.sys_open(kernel.procs.init, "/ok")
        kernel.sys_close(kernel.procs.init, fd)
        assert ("file_open", "/ok") in first.calls
        assert ("file_open", "/ok") in second.calls

    def test_second_module_can_also_deny(self):
        first = Recorder("first")
        second = Recorder("second", deny_paths=["/blocked2"])
        kernel, _ = boot_kernel([first, second])
        kernel.vfs.create_file("/blocked2")
        with pytest.raises(KernelError):
            kernel.sys_open(kernel.procs.init, "/blocked2")


class TestHookLists:
    def test_unimplemented_hooks_not_dispatched(self):
        fw = LsmFramework([Recorder("r")])
        # Recorder implements file_open but not inode_create.
        names = [n for n, _ in fw._hook_lists[Hook.INODE_CREATE]]
        assert "r" not in names
        names = [n for n, _ in fw._hook_lists[Hook.FILE_OPEN]]
        assert "r" in names

    def test_capability_only_on_capable(self):
        fw = LsmFramework([])
        assert [n for n, _ in fw._hook_lists[Hook.CAPABLE]] == ["capability"]
        assert fw._hook_lists[Hook.FILE_PERMISSION] == []


class TestCapableThroughStack:
    def test_root_has_cap(self):
        kernel, fw = boot_kernel([])
        assert fw.capable(kernel.procs.init, Capability.CAP_MAC_ADMIN) == 0

    def test_module_can_restrict_cap(self):
        class NoMacAdmin(LsmModule):
            name = "restrictor"

            def capable(self, task, cap):
                if cap is Capability.CAP_MAC_ADMIN:
                    return self.EPERM
                return 0

        kernel, fw = boot_kernel([NoMacAdmin()])
        init = kernel.procs.init
        assert fw.capable(init, Capability.CAP_MAC_ADMIN) != 0
        assert fw.capable(init, Capability.CAP_CHOWN) == 0


class TestStats:
    def test_stats_recorded(self):
        rec = Recorder("r")
        kernel, fw = boot_kernel([rec])
        stats = HookStats().attach(kernel.obs)
        kernel.vfs.create_file("/f")
        init = kernel.procs.init
        fd = kernel.sys_open(init, "/f")
        kernel.sys_read(init, fd, 1)
        assert stats.calls["r.file_open"] == 1
        assert stats.calls["r.file_permission"] == 1
        assert stats.total_calls() == 2
        assert not stats.denials

    def test_denials_counted(self):
        rec = Recorder("r", deny_paths=["/x"])
        kernel, fw = boot_kernel([rec])
        stats = HookStats().attach(kernel.obs)
        kernel.vfs.create_file("/x")
        with pytest.raises(KernelError):
            kernel.sys_open(kernel.procs.init, "/x")
        assert stats.denials["r.file_open"] == 1


class TestBootKernel:
    def test_modules_attached(self):
        rec = Recorder("r")
        kernel, fw = boot_kernel([rec])
        assert rec.kernel is kernel
        assert kernel.security is fw

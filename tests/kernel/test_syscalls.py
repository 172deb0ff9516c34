"""Tests for the syscall layer: dispatch, DAC, and hook invocation points."""

import pytest

from repro.kernel import (Capability, CharDevice, Errno, Kernel, KernelError,
                          MapProt, OpenFlags, SocketFamily, user_credentials)
from repro.kernel.security import SecurityHooks
from repro.kernel.vfs.inode import PseudoFileOps


class TestOpenReadWrite:
    def test_create_write_read(self, kernel, init):
        fd = kernel.sys_open(init, "/tmp/f",
                             OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        assert kernel.sys_write(init, fd, b"abc") == 3
        kernel.sys_lseek(init, fd, 0)
        assert kernel.sys_read(init, fd, 10) == b"abc"
        kernel.sys_close(init, fd)

    def test_open_missing_without_creat(self, kernel, init):
        with pytest.raises(KernelError) as exc:
            kernel.sys_open(init, "/tmp/missing")
        assert exc.value.errno is Errno.ENOENT

    def test_o_excl_on_existing(self, kernel, init):
        kernel.vfs.create_file("/tmp/f")
        with pytest.raises(KernelError) as exc:
            kernel.sys_open(init, "/tmp/f",
                            OpenFlags.O_CREAT | OpenFlags.O_EXCL)
        assert exc.value.errno is Errno.EEXIST

    def test_o_trunc(self, kernel, init):
        kernel.write_file(init, "/tmp/f", b"0123456789")
        fd = kernel.sys_open(init, "/tmp/f",
                             OpenFlags.O_WRONLY | OpenFlags.O_TRUNC)
        kernel.sys_close(init, fd)
        assert kernel.sys_stat(init, "/tmp/f")["size"] == 0

    def test_o_append(self, kernel, init):
        kernel.write_file(init, "/tmp/f", b"aaa")
        kernel.write_file(init, "/tmp/f", b"bbb", append=True)
        assert kernel.read_file(init, "/tmp/f") == b"aaabbb"

    def test_read_from_wronly_fd(self, kernel, init):
        fd = kernel.sys_open(init, "/tmp/f",
                             OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        with pytest.raises(KernelError) as exc:
            kernel.sys_read(init, fd, 1)
        assert exc.value.errno is Errno.EBADF

    def test_write_to_rdonly_fd(self, kernel, init):
        kernel.vfs.create_file("/tmp/f")
        fd = kernel.sys_open(init, "/tmp/f", OpenFlags.O_RDONLY)
        with pytest.raises(KernelError) as exc:
            kernel.sys_write(init, fd, b"x")
        assert exc.value.errno is Errno.EBADF

    def test_open_dir_for_write_is_eisdir(self, kernel, init):
        with pytest.raises(KernelError) as exc:
            kernel.sys_open(init, "/tmp", OpenFlags.O_WRONLY)
        assert exc.value.errno is Errno.EISDIR

    def test_use_after_close(self, kernel, init):
        fd = kernel.sys_open(init, "/tmp/f",
                             OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        kernel.sys_close(init, fd)
        with pytest.raises(KernelError):
            kernel.sys_read(init, fd, 1)

    def test_lseek_negative_rejected(self, kernel, init):
        fd = kernel.sys_open(init, "/tmp/f",
                             OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        with pytest.raises(KernelError):
            kernel.sys_lseek(init, fd, -5)


def _open_outcome(flags, *, existing=None, pseudo=False, path="/tmp/f"):
    """Open *path* with *flags* on a fresh kernel and describe the result:
    the errno, or the open file's position, access mode and stored flags
    plus the inode's data afterwards.  A pseudo-file has no data pages,
    so truncating one would fail with EINVAL."""
    kernel = Kernel()
    init = kernel.procs.init
    if pseudo:
        kernel.vfs.create_pseudo(path, PseudoFileOps(read=lambda t: b""),
                                 mode=0o666)
    elif existing is not None:
        kernel.vfs.create_file(path).inode.data[:] = existing
    try:
        fd = kernel.sys_open(init, path, flags)
    except KernelError as exc:
        return ("error", exc.errno)
    file = init.get_fd(fd).obj
    data = kernel.vfs.resolve(path).inode.data
    return ("open", file.pos, file.wants_read, file.wants_write,
            file.flags, bytes(data) if data is not None else None)


class TestOpenFlagsAsInt:
    """``sys_open`` tests flag bits on the plain int: an ``int`` and the
    equivalent ``OpenFlags`` take the same branch every time."""

    O = OpenFlags

    @pytest.mark.parametrize("flags,kwargs,expected", [
        (O.O_CREAT | O.O_WRONLY, {},
         ("open", 0, False, True, O.O_CREAT | O.O_WRONLY, b"")),
        (O.O_CREAT | O.O_EXCL, {"existing": b"x"},
         ("error", Errno.EEXIST)),
        (O.O_CREAT | O.O_EXCL | O.O_RDWR, {},
         ("open", 0, True, True, O.O_CREAT | O.O_EXCL | O.O_RDWR, b"")),
        (O.O_RDONLY, {}, ("error", Errno.ENOENT)),
        (O.O_WRONLY | O.O_TRUNC, {}, ("error", Errno.ENOENT)),
        (O.O_WRONLY | O.O_TRUNC, {"existing": b"0123456789"},
         ("open", 0, False, True, O.O_WRONLY | O.O_TRUNC, b"")),
        (O.O_WRONLY | O.O_TRUNC, {"pseudo": True},
         ("open", 0, False, True, O.O_WRONLY | O.O_TRUNC, None)),
        (O.O_WRONLY | O.O_APPEND, {"existing": b"aaa"},
         ("open", 3, False, True, O.O_WRONLY | O.O_APPEND, b"aaa")),
        (O.O_RDWR | O.O_APPEND, {"pseudo": True},
         ("open", 0, True, True, O.O_RDWR | O.O_APPEND, None)),
        (O.O_WRONLY, {"path": "/tmp"}, ("error", Errno.EISDIR)),
        (O.O_RDWR, {"path": "/tmp"}, ("error", Errno.EISDIR)),
        (O.O_RDONLY, {"path": "/tmp"},
         ("open", 0, True, False, O.O_RDONLY, None)),
    ], ids=["creat", "creat-excl-existing", "creat-excl-missing", "enoent",
            "enoent-trunc", "trunc-regular", "trunc-pseudo",
            "append-regular", "append-pseudo", "eisdir-wronly",
            "eisdir-rdwr", "dir-rdonly"])
    def test_int_and_openflags_agree(self, flags, kwargs, expected):
        as_enum = _open_outcome(flags, **kwargs)
        as_int = _open_outcome(int(flags), **kwargs)
        assert type(int(flags)) is int
        assert as_enum == as_int == expected

    def test_flags_stored_as_given(self, kernel, init):
        kernel.vfs.create_file("/tmp/f")
        for flags in (OpenFlags.O_WRONLY, 0x1):
            fd = kernel.sys_open(init, "/tmp/f", flags)
            file = init.get_fd(fd).obj
            assert file.flags == OpenFlags.O_WRONLY
            assert file.flags is flags
            assert (file.wants_read, file.wants_write) == (False, True)
            kernel.sys_close(init, fd)


class TestDac:
    def test_other_user_cannot_read_0600(self, kernel, init):
        kernel.vfs.create_file("/tmp/secret", mode=0o600, uid=0)
        user = kernel.sys_fork(init)
        user.cred = user_credentials(1000)
        with pytest.raises(KernelError) as exc:
            kernel.sys_open(user, "/tmp/secret")
        assert exc.value.errno is Errno.EACCES

    def test_owner_can_read_0600(self, kernel, init):
        kernel.vfs.create_file("/tmp/mine", mode=0o600, uid=1000)
        user = kernel.sys_fork(init)
        user.cred = user_credentials(1000)
        fd = kernel.sys_open(user, "/tmp/mine")
        kernel.sys_close(user, fd)

    def test_group_bits(self, kernel, init):
        kernel.vfs.create_file("/tmp/grp", mode=0o640, uid=0, gid=500)
        member = kernel.sys_fork(init)
        member.cred = user_credentials(1000, gid=500)
        fd = kernel.sys_open(member, "/tmp/grp")
        kernel.sys_close(member, fd)
        with pytest.raises(KernelError):
            kernel.sys_open(member, "/tmp/grp", OpenFlags.O_WRONLY)

    def test_root_bypasses_dac(self, kernel, init):
        kernel.vfs.create_file("/tmp/locked", mode=0o000, uid=1234)
        fd = kernel.sys_open(init, "/tmp/locked")
        kernel.sys_close(init, fd)

    def test_world_readable(self, kernel, init):
        kernel.vfs.create_file("/tmp/pub", mode=0o644, uid=0)
        user = kernel.sys_fork(init)
        user.cred = user_credentials(2000)
        fd = kernel.sys_open(user, "/tmp/pub")
        kernel.sys_close(user, fd)

    def test_unprivileged_create_in_unwritable_dir(self, kernel, init):
        kernel.vfs.makedirs("/opt/system")
        user = kernel.sys_fork(init)
        user.cred = user_credentials(1000)
        with pytest.raises(KernelError) as exc:
            kernel.sys_open(user, "/opt/system/f",
                            OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        assert exc.value.errno is Errno.EACCES


class TestProcessSyscalls:
    def test_fork_returns_child(self, kernel, init):
        child = kernel.sys_fork(init)
        assert child.ppid == init.pid

    def test_getpid(self, kernel, init):
        assert kernel.sys_getpid(init) == init.pid

    def test_execve_sets_comm_and_exe(self, kernel, init):
        kernel.vfs.create_file("/usr/bin/app", mode=0o755)
        child = kernel.sys_fork(init)
        kernel.sys_execve(child, "/usr/bin/app")
        assert child.comm == "app"
        assert child.exe_path == "/usr/bin/app"

    def test_execve_noexec_mode(self, kernel, init):
        kernel.vfs.create_file("/tmp/script", mode=0o644)
        user = kernel.sys_fork(init)
        user.cred = user_credentials(1000)
        with pytest.raises(KernelError) as exc:
            kernel.sys_execve(user, "/tmp/script")
        assert exc.value.errno is Errno.EACCES

    def test_execve_directory_is_eisdir(self, kernel, init):
        with pytest.raises(KernelError) as exc:
            kernel.sys_execve(init, "/tmp")
        assert exc.value.errno is Errno.EISDIR

    def test_exit_and_waitpid(self, kernel, init):
        child = kernel.sys_fork(init)
        kernel.sys_exit(child, 7)
        reaped = kernel.sys_waitpid(init)
        assert reaped.pid == child.pid
        assert reaped.exit_code == 7

    def test_kill_by_root(self, kernel, init):
        child = kernel.sys_fork(init)
        kernel.sys_kill(init, child.pid)
        assert not child.is_alive

    def test_kill_other_user_denied(self, kernel, init):
        victim = kernel.sys_fork(init)
        attacker = kernel.sys_fork(init)
        attacker.cred = user_credentials(1000)
        with pytest.raises(KernelError) as exc:
            kernel.sys_kill(attacker, victim.pid)
        assert exc.value.errno is Errno.EPERM

    def test_chdir(self, kernel, init):
        kernel.vfs.makedirs("/home/u")
        kernel.sys_chdir(init, "/home/u")
        assert init.cwd == "/home/u"

    def test_chdir_to_file_fails(self, kernel, init):
        kernel.vfs.create_file("/tmp/f")
        with pytest.raises(KernelError) as exc:
            kernel.sys_chdir(init, "/tmp/f")
        assert exc.value.errno is Errno.ENOTDIR


class TestMetadataSyscalls:
    def test_stat(self, kernel, init):
        kernel.write_file(init, "/tmp/f", b"12345")
        st = kernel.sys_stat(init, "/tmp/f")
        assert st["size"] == 5
        assert st["type"] == "reg"

    def test_mkdir_rmdir(self, kernel, init):
        kernel.sys_mkdir(init, "/tmp/d")
        assert kernel.sys_stat(init, "/tmp/d")["type"] == "dir"
        kernel.sys_rmdir(init, "/tmp/d")
        assert not kernel.vfs.exists("/tmp/d")

    def test_unlink(self, kernel, init):
        kernel.vfs.create_file("/tmp/f")
        kernel.sys_unlink(init, "/tmp/f")
        assert not kernel.vfs.exists("/tmp/f")

    def test_rename(self, kernel, init):
        kernel.write_file(init, "/tmp/a", b"data")
        kernel.sys_rename(init, "/tmp/a", "/tmp/b")
        assert kernel.read_file(init, "/tmp/b") == b"data"

    def test_chmod_by_owner(self, kernel, init):
        kernel.vfs.create_file("/tmp/f", uid=1000)
        owner = kernel.sys_fork(init)
        owner.cred = user_credentials(1000)
        kernel.sys_chmod(owner, "/tmp/f", 0o600)
        assert kernel.sys_stat(init, "/tmp/f")["mode"] == 0o600

    def test_chmod_by_other_denied(self, kernel, init):
        kernel.vfs.create_file("/tmp/f", uid=1000)
        other = kernel.sys_fork(init)
        other.cred = user_credentials(2000)
        with pytest.raises(KernelError) as exc:
            kernel.sys_chmod(other, "/tmp/f", 0o777)
        assert exc.value.errno is Errno.EPERM

    def test_chown_requires_cap(self, kernel, init):
        kernel.vfs.create_file("/tmp/f")
        user = kernel.sys_fork(init)
        user.cred = user_credentials(1000)
        with pytest.raises(KernelError):
            kernel.sys_chown(user, "/tmp/f", 1000, 1000)
        kernel.sys_chown(init, "/tmp/f", 5, 6)
        st = kernel.sys_stat(init, "/tmp/f")
        assert (st["uid"], st["gid"]) == (5, 6)

    def test_mknod_requires_cap(self, kernel, init):
        user = kernel.sys_fork(init)
        user.cred = user_credentials(1000)
        with pytest.raises(KernelError) as exc:
            kernel.sys_mknod(user, "/dev/x", (240, 9))
        assert exc.value.errno is Errno.EPERM


class TestDeviceSyscalls:
    class Echo(CharDevice):
        def __init__(self):
            super().__init__("echo")
            self.last = None

        def write(self, task, file, data):
            self.last = data
            return len(data)

        def read(self, task, file, count):
            return (self.last or b"")[:count]

        def ioctl(self, task, file, cmd, arg):
            return cmd + arg

    def _mount_echo(self, kernel):
        dev = self.Echo()
        rdev = kernel.devices.alloc_rdev()
        kernel.devices.register(rdev, dev)
        kernel.vfs.mknod("/dev/echo", rdev, mode=0o666)
        return dev

    def test_device_write_read(self, kernel, init):
        dev = self._mount_echo(kernel)
        fd = kernel.sys_open(init, "/dev/echo", OpenFlags.O_RDWR)
        kernel.sys_write(init, fd, b"ping")
        assert dev.last == b"ping"
        assert kernel.sys_read(init, fd, 4) == b"ping"

    def test_device_ioctl(self, kernel, init):
        self._mount_echo(kernel)
        fd = kernel.sys_open(init, "/dev/echo", OpenFlags.O_RDONLY)
        assert kernel.sys_ioctl(init, fd, 40, 2) == 42

    def test_ioctl_on_regular_file_is_enotty(self, kernel, init):
        kernel.vfs.create_file("/tmp/f")
        fd = kernel.sys_open(init, "/tmp/f")
        with pytest.raises(KernelError) as exc:
            kernel.sys_ioctl(init, fd, 1)
        assert exc.value.errno is Errno.ENOTTY

    def test_open_node_without_driver_is_enodev(self, kernel, init):
        kernel.vfs.mknod("/dev/ghost", (99, 99), mode=0o666)
        with pytest.raises(KernelError) as exc:
            kernel.sys_open(init, "/dev/ghost")
        assert exc.value.errno is Errno.ENODEV


class TestPseudoFiles:
    def test_pseudo_read(self, kernel, init):
        kernel.vfs.create_pseudo("/tmp/p",
                                 PseudoFileOps(read=lambda t: b"content"))
        assert kernel.read_file(init, "/tmp/p") == b"content"

    def test_pseudo_write(self, kernel, init):
        captured = []
        ops = PseudoFileOps(write=lambda t, d: captured.append(d) or len(d))
        kernel.vfs.create_pseudo("/tmp/p", ops, mode=0o622)
        kernel.write_file(init, "/tmp/p", b"evt", create=False)
        assert captured == [b"evt"]

    def test_write_to_readonly_pseudo(self, kernel, init):
        kernel.vfs.create_pseudo("/tmp/p",
                                 PseudoFileOps(read=lambda t: b""),
                                 mode=0o666)
        fd = kernel.sys_open(init, "/tmp/p", OpenFlags.O_WRONLY)
        with pytest.raises(KernelError) as exc:
            kernel.sys_write(init, fd, b"x")
        assert exc.value.errno is Errno.EINVAL

    def test_pseudo_read_respects_position(self, kernel, init):
        kernel.vfs.create_pseudo("/tmp/p",
                                 PseudoFileOps(read=lambda t: b"abcdef"))
        fd = kernel.sys_open(init, "/tmp/p")
        assert kernel.sys_read(init, fd, 3) == b"abc"
        assert kernel.sys_read(init, fd, 3) == b"def"
        assert kernel.sys_read(init, fd, 3) == b""


class TestIpcSyscalls:
    def test_pipe_roundtrip(self, kernel, init):
        r, w = kernel.sys_pipe(init)
        kernel.sys_write(init, w, b"through the pipe")
        assert kernel.sys_read(init, r, 100) == b"through the pipe"

    def test_pipe_eof_after_close(self, kernel, init):
        r, w = kernel.sys_pipe(init)
        kernel.sys_write(init, w, b"x")
        kernel.sys_close(init, w)
        assert kernel.sys_read(init, r, 10) == b"x"
        assert kernel.sys_read(init, r, 10) == b""

    def test_tcp_connection(self, kernel, init):
        s = kernel.sys_socket(init, SocketFamily.AF_INET)
        kernel.sys_bind(init, s, ("127.0.0.1", 8080))
        kernel.sys_listen(init, s)
        c = kernel.sys_socket(init, SocketFamily.AF_INET)
        kernel.sys_connect(init, c, ("127.0.0.1", 8080))
        conn = kernel.sys_accept(init, s)
        kernel.sys_send(init, c, b"req")
        assert kernel.sys_recv(init, conn, 10) == b"req"

    def test_read_write_work_on_socket_fds(self, kernel, init):
        s = kernel.sys_socket(init, SocketFamily.AF_UNIX)
        kernel.sys_bind(init, s, "/run/s")
        kernel.sys_listen(init, s)
        c = kernel.sys_socket(init, SocketFamily.AF_UNIX)
        kernel.sys_connect(init, c, "/run/s")
        conn = kernel.sys_accept(init, s)
        kernel.sys_write(init, c, b"via write")
        assert kernel.sys_read(init, conn, 100) == b"via write"


class TestMmapSyscalls:
    def test_file_backed_mapping(self, kernel, init):
        kernel.write_file(init, "/tmp/f", b"mapped!")
        fd = kernel.sys_open(init, "/tmp/f")
        area = kernel.sys_mmap(init, 4096, MapProt.PROT_READ, fd=fd)
        assert area.read(0, 7) == b"mapped!"
        kernel.sys_munmap(init, area)

    def test_anonymous_mapping(self, kernel, init):
        area = kernel.sys_mmap(init, 8192,
                               MapProt.PROT_READ | MapProt.PROT_WRITE)
        area.write(0, b"anon")
        assert area.read(0, 4) == b"anon"

    def test_mmap_directory_fails(self, kernel, init):
        # Directories cannot be opened for mapping in the simulator.
        with pytest.raises(KernelError):
            fd = kernel.sys_open(init, "/tmp", OpenFlags.O_WRONLY)


class TestSecurityIntegrationPoints:
    class DenyOpens(SecurityHooks):
        name = "denier"

        def file_open(self, task, file) -> int:
            if file.path.startswith("/secret"):
                return -int(Errno.EACCES)
            return 0

    def test_lsm_denial_surfaces_as_eacces(self):
        kernel = Kernel(security=self.DenyOpens())
        init = kernel.procs.init
        kernel.vfs.makedirs("/secret")
        kernel.vfs.create_file("/secret/f")
        with pytest.raises(KernelError) as exc:
            kernel.sys_open(init, "/secret/f")
        assert exc.value.errno is Errno.EACCES

    def test_lsm_denial_is_audited(self):
        # The kernel keeps no audit log of its own: the framework's AVC
        # record in the hub's ring is the denial's one record.
        from repro.lsm import LsmModule, boot_kernel

        class Denier(LsmModule):
            name = "denier"
            file_open = self.DenyOpens.file_open

        kernel, _ = boot_kernel([Denier()])
        init = kernel.procs.init
        kernel.vfs.makedirs("/secret")
        kernel.vfs.create_file("/secret/f")
        with pytest.raises(KernelError):
            kernel.sys_open(init, "/secret/f")
        records = kernel.obs.audit.records()
        assert [(r.kind, r.module, r.path) for r in records] == \
            [("avc", "denier", "/secret/f")]

    def test_capable_consults_security(self, kernel, init):
        assert kernel.capable(init, Capability.CAP_MAC_ADMIN)
        user = kernel.sys_fork(init)
        user.cred = user_credentials(1000)
        assert not kernel.capable(user, Capability.CAP_MAC_ADMIN)

    def test_syscall_counters(self, kernel, init):
        kernel.sys_getpid(init)
        kernel.sys_getpid(init)
        assert kernel.syscall_counts["getpid"] == 2

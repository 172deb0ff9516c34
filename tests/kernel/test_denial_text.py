"""The error text of every syscall an LSM hook refuses.

``Kernel._check`` renders a refusal's text only when the hook refuses;
each syscall passes a ``%`` template and its arguments.  These are the
texts the callers used to format on every call, pinned one per syscall.
"""

import pytest

from repro.kernel import Errno, KernelError, MapProt, OpenFlags, SocketFamily
from repro.lsm import LsmModule, boot_kernel
from repro.lsm.hooks import Hook


class Refuser(LsmModule):
    """Refuses the one hook named in :attr:`refuse`, for any task."""

    name = "refuser"
    refuse = ""


def _refusing(hook: Hook):
    def method(self, *args):
        return self.EACCES if self.refuse == hook.value else 0
    return method


for _hook in Hook:
    setattr(Refuser, _hook.value, _refusing(_hook))


@pytest.fixture
def world():
    module = Refuser()
    kernel, _ = boot_kernel([module])
    kernel.vfs.create_file("/tmp/f", mode=0o666)
    kernel.vfs.makedirs("/tmp/d")
    init = kernel.procs.init
    fd = kernel.sys_open(init, "/tmp/f", OpenFlags.O_RDWR)
    sock = kernel.sys_socket(init, SocketFamily.AF_UNIX)
    return module, kernel, init, fd, sock


CASES = [
    ("task_alloc", lambda k, t, fd, s: k.sys_fork(t), "task_alloc"),
    ("bprm_check_security",
     lambda k, t, fd, s: k.sys_execve(t, "/tmp/f"), "exec /tmp/f"),
    ("task_kill", lambda k, t, fd, s: k.sys_kill(t, k.sys_fork(t).pid),
     "kill 2"),
    ("inode_create",
     lambda k, t, fd, s: k.sys_open(t, "/tmp/new", OpenFlags.O_CREAT),
     "create /tmp/new"),
    ("file_open", lambda k, t, fd, s: k.sys_open(t, "/tmp/f"),
     "open /tmp/f"),
    ("file_permission", lambda k, t, fd, s: k.sys_read(t, fd, 1),
     "read /tmp/f"),
    ("file_ioctl", lambda k, t, fd, s: k.sys_ioctl(t, fd, 0x4004, 0),
     "ioctl /tmp/f cmd=16388"),
    ("inode_getattr", lambda k, t, fd, s: k.sys_stat(t, "/tmp/../tmp/f"),
     "stat /tmp/../tmp/f"),
    ("inode_mkdir", lambda k, t, fd, s: k.sys_mkdir(t, "/tmp/e"),
     "mkdir /tmp/e"),
    ("inode_rmdir", lambda k, t, fd, s: k.sys_rmdir(t, "/tmp/d"),
     "rmdir /tmp/d"),
    ("inode_unlink", lambda k, t, fd, s: k.sys_unlink(t, "/tmp/f"),
     "unlink /tmp/f"),
    ("inode_rename", lambda k, t, fd, s: k.sys_rename(t, "/tmp/f", "g"),
     "rename /tmp/f -> /g"),
    ("inode_mknod", lambda k, t, fd, s: k.sys_mknod(t, "/tmp/n", (1, 3)),
     "mknod /tmp/n"),
    ("inode_setattr", lambda k, t, fd, s: k.sys_chmod(t, "/tmp/f", 0o600),
     "chmod /tmp/f"),
    ("socket_create",
     lambda k, t, fd, s: k.sys_socket(t, SocketFamily.AF_INET),
     "socket inet"),
    ("socket_bind", lambda k, t, fd, s: k.sys_bind(t, s, ("host", 80)),
     "bind ('host', 80)"),
    ("socket_connect", lambda k, t, fd, s: k.sys_connect(t, s, "/run/x"),
     "connect /run/x"),
    ("socket_listen", lambda k, t, fd, s: k.sys_listen(t, s), "listen"),
    ("socket_accept", lambda k, t, fd, s: k.sys_accept(t, s), "accept"),
    ("socket_sendmsg", lambda k, t, fd, s: k.sys_send(t, s, b"x"),
     "send"),
    ("socket_recvmsg", lambda k, t, fd, s: k.sys_recv(t, s, 1), "recv"),
    ("mmap_file",
     lambda k, t, fd, s: k.sys_mmap(t, 4096, MapProt.PROT_READ, fd),
     "mmap"),
]


@pytest.mark.parametrize("hook,call,text", CASES,
                         ids=[case[0] for case in CASES])
def test_refused_syscall_text(world, hook, call, text):
    module, kernel, init, fd, sock = world
    module.refuse = hook
    with pytest.raises(KernelError) as err:
        call(kernel, init, fd, sock)
    assert str(err.value) == f"[EACCES] {text}"


def test_write_refusal_names_the_file(world):
    module, kernel, init, fd, _sock = world
    module.refuse = "file_permission"
    with pytest.raises(KernelError) as err:
        kernel.sys_write(init, fd, b"x")
    assert str(err.value) == "[EACCES] write /tmp/f"


def test_chown_refusal_names_the_path(world):
    module, kernel, init, _fd, _sock = world
    module.refuse = "inode_setattr"
    with pytest.raises(KernelError) as err:
        kernel.sys_chown(init, "/tmp/f", 1, 1)
    assert str(err.value) == "[EACCES] chown /tmp/f"


class RcRefuser(LsmModule):
    """Refuses every ``file_open`` with the return code in :attr:`rc`."""

    name = "rc_refuser"
    rc = 0

    def file_open(self, task, file):
        return self.rc


@pytest.mark.parametrize("rc,errno", [
    (RcRefuser.EPERM, Errno.EPERM),
    (RcRefuser.EACCES, Errno.EACCES),
    (-int(Errno.EROFS), Errno.EROFS),
    (-9999, Errno.EACCES),          # names no errno
    (1, Errno.EACCES),              # a positive rc names none either
])
def test_refusal_errno_follows_the_rc(rc, errno):
    module = RcRefuser()
    kernel, _ = boot_kernel([module])
    kernel.vfs.create_file("/tmp/f", mode=0o666)
    module.rc = rc
    with pytest.raises(KernelError) as err:
        kernel.sys_open(kernel.procs.init, "/tmp/f")
    assert err.value.errno is errno
    assert type(err.value.errno) is Errno
    assert str(err.value) == f"[{errno.name}] open /tmp/f"

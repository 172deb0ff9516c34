"""The object a denial's audit record names: ``OBJECT_PATH`` per hook.

A denial's AVC record carries an object path.  The framework used to
find it by scanning the hook's arguments on every denial (the first
string, capability or object with a string ``path``); ``OBJECT_PATH``
fixes the argument once per hook, from the hook's signature.  The scan
is kept here as the oracle: on representative arguments for every hook
the table gives the scan's path, and a refusal dispatched through the
framework leaves an audit record naming it.
"""

import pytest

from repro.kernel import SocketFamily
from repro.kernel.credentials import Capability
from repro.kernel.ipc import Socket
from repro.kernel.vfs import OpenFile, OpenFlags
from repro.lsm import LsmModule, boot_kernel
from repro.lsm.framework import OBJECT_PATH
from repro.lsm.hooks import DECISION_HOOKS, Hook


def scanned_object_path(args) -> str:
    """The scan ``OBJECT_PATH`` replaced."""
    for arg in args[1:]:
        if isinstance(arg, str):
            return arg
        if isinstance(arg, Capability):
            return arg.value
        path = getattr(arg, "path", None)
        if isinstance(path, str):
            return path
    return ""


class Recorder(LsmModule):
    """Refuses every hook, after the capability module allowed it."""

    name = "recorder"


def _refuse(self, *args):
    return self.EACCES


for _hook in Hook:
    setattr(Recorder, _hook.value, _refuse)


@pytest.fixture(scope="module")
def world():
    kernel, framework = boot_kernel([Recorder()])
    kernel.vfs.create_file("/tmp/f", mode=0o666)
    init = kernel.procs.init
    child = kernel.procs.spawn(init)
    dentry = kernel.vfs.resolve("/tmp/f")
    file = OpenFile(dentry, dentry.inode, OpenFlags.O_RDWR, "/tmp/f")
    sock = Socket(SocketFamily.AF_UNIX)
    tmp = kernel.vfs.resolve("/tmp").inode
    args = {
        Hook.TASK_ALLOC: [(init, child)],
        Hook.BPRM_CHECK_SECURITY: [(init, "/usr/bin/app")],
        Hook.BPRM_COMMITTED_CREDS: [(init, "/usr/bin/app")],
        Hook.TASK_KILL: [(init, child)],
        Hook.CAPABLE: [(init, Capability.CAP_CHOWN),
                       (init, Capability.CAP_MAC_ADMIN)],
        Hook.INODE_CREATE: [(init, tmp, "/tmp/new", 0o644)],
        Hook.INODE_MKDIR: [(init, tmp, "/tmp/dir", 0o755)],
        Hook.INODE_MKNOD: [(init, tmp, "/tmp/node", 0o600)],
        Hook.INODE_UNLINK: [(init, dentry.inode, "/tmp/f")],
        Hook.INODE_RMDIR: [(init, tmp, "/tmp")],
        Hook.INODE_RENAME: [(init, "/tmp/f", "/tmp/g")],
        Hook.INODE_GETATTR: [(init, "/tmp/f")],
        Hook.INODE_SETATTR: [(init, "/tmp/f")],
        Hook.FILE_OPEN: [(init, file)],
        Hook.FILE_PERMISSION: [(init, file, 4), (init, file, 2)],
        Hook.FILE_IOCTL: [(init, file, 0x4004, 0)],
        Hook.MMAP_FILE: [(init, file, 1), (init, None, 3)],
        Hook.SOCKET_CREATE: [(init, SocketFamily.AF_UNIX),
                             (init, SocketFamily.AF_INET)],
        Hook.SOCKET_BIND: [(init, sock, "/run/sds.sock"),
                           (init, sock, ("127.0.0.1", 48000))],
        Hook.SOCKET_CONNECT: [(init, sock, "/run/sds.sock"),
                              (init, sock, ("127.0.0.1", 48000))],
        Hook.SOCKET_LISTEN: [(init, sock)],
        Hook.SOCKET_ACCEPT: [(init, sock)],
        Hook.SOCKET_SENDMSG: [(init, sock, 11)],
        Hook.SOCKET_RECVMSG: [(init, sock, 64)],
    }
    return kernel, framework, args


def test_every_hook_has_an_entry(world):
    _kernel, _framework, args = world
    assert set(OBJECT_PATH) == set(Hook)
    assert set(args) == set(Hook)


@pytest.mark.parametrize("hook", list(Hook), ids=lambda hook: hook.value)
def test_table_gives_the_scanned_path(world, hook):
    _kernel, _framework, args = world
    for call in args[hook]:
        assert OBJECT_PATH[hook](call) == scanned_object_path(call)


@pytest.mark.parametrize("hook", [h for h in Hook if h in DECISION_HOOKS],
                         ids=lambda hook: hook.value)
def test_denial_record_names_the_scanned_path(world, hook):
    kernel, framework, args = world
    for call in args[hook]:
        kernel.obs.audit.clear()
        assert getattr(framework, hook.value)(*call) == Recorder.EACCES
        (record,) = kernel.obs.audit.records()
        assert (record.module, record.hook) == ("recorder", hook.value)
        assert record.path == scanned_object_path(call)

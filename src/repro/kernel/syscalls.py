"""The syscall layer: DAC checks, LSM hook invocation, and dispatch.

:class:`Kernel` assembles the substrate (clock, VFS, processes, devices,
network, scheduler) behind a Linux-shaped syscall API.  Every syscall takes
the calling :class:`~repro.kernel.process.Task` as its first argument — the
simulator's stand-in for ``current``.

Ordering matches Linux: DAC (mode bits) first, then the LSM hook, then the
operation.  A denial from either raises :class:`KernelError` with ``EACCES``
/ ``EPERM`` so callers cannot tell which layer refused (as in Linux).
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Optional, Tuple

from ..obs.hub import Observability
from ..obs.tracepoints import SYS_ENTER, SYS_EXIT
from .clock import VirtualClock
from .credentials import Capability
from .devices import DeviceRegistry
from .errors import Errno, KernelError
from .ipc import NetworkStack, Pipe, Socket, SocketFamily
from .memory import MapProt, VmArea
from .process import FdKind, ProcessTable, Task
from .scheduler import Scheduler
from .security import NullSecurity, SecurityHooks
from .vfs import (OpenFile, OpenFlags, VirtualFileSystem, normalize,
                  split_parent)

# Access masks used by file_permission / DAC checks (Linux MAY_*).
MAY_EXEC = 0x1
MAY_WRITE = 0x2
MAY_READ = 0x4

# ``open(2)`` flag bits as plain ints: ``int & OpenFlags`` would dispatch
# to enum.py's Python-level ``Flag.__rand__`` on every open.
_O_CREAT = int(OpenFlags.O_CREAT)
_O_EXCL = int(OpenFlags.O_EXCL)
_O_TRUNC = int(OpenFlags.O_TRUNC)
_O_APPEND = int(OpenFlags.O_APPEND)


class Kernel:
    """The assembled simulated kernel."""

    def __init__(self, security: Optional[SecurityHooks] = None,
                 clock: Optional[VirtualClock] = None,
                 obs: Optional[Observability] = None):
        self.clock = clock or VirtualClock()
        self.vfs = VirtualFileSystem(self.clock)
        self.procs = ProcessTable()
        self.devices = DeviceRegistry()
        self.net = NetworkStack()
        self.scheduler = Scheduler()
        self.obs = obs or Observability(clock=self.clock)
        self._tp_sys_enter = self.obs.tracepoints.get(SYS_ENTER)
        self._syscall_wrappers: Dict[str, object] = {}
        self.security: SecurityHooks = security or NullSecurity()
        self.syscall_counts: Dict[str, int] = {}
        #: Per-kernel object-id allocators: open files and mappings are
        #: numbered within this kernel only, so fleets of kernels stay
        #: bit-for-bit identical however many run in one process.
        self._file_ids = itertools.count(1)
        self._vma_ids = itertools.count(1)
        self._build_base_tree()

    def _build_base_tree(self) -> None:
        for d in ("/dev", "/etc", "/tmp", "/proc", "/sys", "/usr/bin",
                  "/usr/lib", "/var/log", "/home"):
            self.vfs.makedirs(d)
        self.vfs.mount("devtmpfs", "/dev")
        self.vfs.mount("proc", "/proc")
        self.vfs.mount("sysfs", "/sys")

    # -- helpers --------------------------------------------------------------
    def _count(self, name: str) -> None:
        self.syscall_counts[name] = self.syscall_counts.get(name, 0) + 1
        tp = self._tp_sys_enter
        if tp.callbacks:
            tp.emit(name=name, now_ns=self.clock.now_ns)

    # -- syscall instrumentation (kprobe-style, zero cost when off) -----------
    def instrument_syscalls(self) -> None:
        """Wrap every ``sys_*`` entry point with exit tracing + latency.

        Like ftrace's runtime call-site patching: the wrappers shadow the
        bound methods on the instance, fire ``syscalls:sys_exit`` and feed
        the ``syscall_latency_ns`` histograms; an uninstrumented kernel
        pays nothing.  Nested syscalls (``write_file``'s open/write/close,
        ``sys_read`` on sockets) each record their own span, as nested
        ftrace events do.
        """
        if self._syscall_wrappers:
            return
        tp_exit = self.obs.tracepoints.get(SYS_EXIT)
        for attr in dir(type(self)):
            if not attr.startswith("sys_"):
                continue
            method = getattr(self, attr)
            name = attr[4:]
            hist = self.obs.metrics.histogram("syscall_latency_ns",
                                              {"name": name})

            def wrapper(*args, _method=method, _hist=hist, _name=name,
                        **kwargs):
                t0 = time.perf_counter_ns()
                err = 0
                try:
                    return _method(*args, **kwargs)
                except KernelError as exc:
                    err = int(exc.errno)
                    raise
                finally:
                    dt = time.perf_counter_ns() - t0
                    _hist.record(dt)
                    if tp_exit.callbacks:
                        tp_exit.emit(name=_name, errno=err, latency_ns=dt)

            setattr(self, attr, wrapper)
            self._syscall_wrappers[attr] = wrapper

    def uninstrument_syscalls(self) -> None:
        """Remove the wrappers; dispatch reverts to the bare methods."""
        for attr in self._syscall_wrappers:
            if self.__dict__.get(attr) is self._syscall_wrappers[attr]:
                del self.__dict__[attr]
        self._syscall_wrappers.clear()

    def _check(self, rc: int, what: str, args: tuple = ()) -> None:
        """Translate an LSM hook return code into a raised denial.

        The error text is *what* ``%`` *args* (``"open %s"``, ``(path,)``),
        or *what* alone without *args*: it is rendered only when *rc*
        refuses, so an allowed syscall formats nothing.  The kernel
        keeps no audit log of its own: the LSM framework has already
        written the denial's one AVC record to ``obs.audit``.
        """
        if rc != 0:
            message = what % args if args else what
            try:
                error = KernelError(-rc, message)   # the one errno lookup
            except ValueError:      # an rc that names no errno: EACCES
                error = KernelError(Errno.EACCES, message)
            raise error

    def capable(self, task: Task, cap: Capability) -> bool:
        """``capable()``: does *task* hold *cap*, per the security stack?"""
        return self.security.capable(task, cap) == 0

    def _dac_permission(self, task: Task, inode, mask: int,
                        path: str) -> None:
        """Classic UNIX mode-bit check with CAP_DAC_OVERRIDE escape.

        As in Linux's ``generic_permission()``, the mode bits come first:
        ``capable(CAP_DAC_OVERRIDE)`` is asked only when they refuse.
        """
        cred = task.cred
        if cred.euid == 0:
            return
        if cred.euid == inode.uid:
            bits = (inode.mode >> 6) & 0o7
        elif cred.egid == inode.gid:
            bits = (inode.mode >> 3) & 0o7
        else:
            bits = inode.mode & 0o7
        want = 0
        if mask & MAY_READ:
            want |= 0o4
        if mask & MAY_WRITE:
            want |= 0o2
        if mask & MAY_EXEC:
            want |= 0o1
        if (bits & want) != want and not self.capable(
                task, Capability.CAP_DAC_OVERRIDE):
            raise KernelError(Errno.EACCES, f"dac: {path}")

    # -- process syscalls -------------------------------------------------------
    def sys_getpid(self, task: Task) -> int:
        self._count("getpid")
        return task.pid

    def sys_fork(self, task: Task) -> Task:
        """Fork ``task``; returns the child Task (the simulator's 'pid')."""
        self._count("fork")
        child = self.procs.spawn(task)
        rc = self.security.task_alloc(task, child)
        if rc != 0:
            self.procs.exit(child, code=-rc)
            self.procs.reap(task)
            self._check(rc, "task_alloc")
        return child

    def sys_execve(self, task: Task, path: str,
                   comm: Optional[str] = None) -> None:
        """Replace the task image with *path* (must be an executable file)."""
        self._count("execve")
        dentry, exe_path = self.vfs.lookup(path, task.cwd)
        if dentry.inode.is_dir:
            raise KernelError(Errno.EISDIR, path)
        self._dac_permission(task, dentry.inode, MAY_EXEC, path)
        self._check(self.security.bprm_check_security(task, exe_path),
                    "exec %s", (exe_path,))
        task.exe_path = exe_path
        task.comm = comm or exe_path.rsplit("/", 1)[-1]
        task.mm.clear()
        self.security.bprm_committed_creds(task, exe_path)

    def sys_exit(self, task: Task, code: int = 0) -> None:
        self._count("exit")
        self.scheduler.remove(task)
        self.procs.exit(task, code)

    def sys_waitpid(self, task: Task) -> Optional[Task]:
        self._count("waitpid")
        return self.procs.reap(task)

    def sys_kill(self, task: Task, pid: int) -> None:
        self._count("kill")
        target = self.procs.get(pid)
        if (task.cred.euid != 0 and task.cred.euid != target.cred.uid
                and not self.capable(task, Capability.CAP_KILL)):
            raise KernelError(Errno.EPERM, f"kill {pid}")
        self._check(self.security.task_kill(task, target), "kill %s", (pid,))
        self.procs.exit(target, code=-9)

    # -- filesystem syscalls -----------------------------------------------------
    def sys_open(self, task: Task, path: str, flags: OpenFlags = OpenFlags.O_RDONLY,
                 mode: int = 0o644) -> int:
        """Open (optionally creating) *path*; returns an fd."""
        self._count("open")
        raw = int(flags)
        dentry, fpath, norm = self.vfs.walk_cached(path, task.cwd)
        if dentry is None:
            if not raw & _O_CREAT:
                raise KernelError(Errno.ENOENT, norm)
            parent_norm, name = split_parent(norm)
            parent, parent_path = self.vfs.lookup(parent_norm)
            self._dac_permission(task, parent.inode, MAY_WRITE, norm)
            self._check(self.security.inode_create(task, parent.inode,
                                                   norm, mode),
                        "create %s", (norm,))
            dentry = self.vfs.create_file(norm, mode=mode,
                                          uid=task.cred.euid,
                                          gid=task.cred.egid)
            fpath = parent_path.rstrip("/") + "/" + name
        elif raw & _O_CREAT and raw & _O_EXCL:
            raise KernelError(Errno.EEXIST, norm)

        inode = dentry.inode
        wants_write = bool(raw & 0x3)          # O_WRONLY or O_RDWR
        wants_read = (raw & 0x1) == 0          # not O_WRONLY
        if inode.is_dir and wants_write:
            raise KernelError(Errno.EISDIR, norm)
        mask = (MAY_READ if wants_read else 0) | \
            (MAY_WRITE if wants_write else 0)
        self._dac_permission(task, inode, mask, norm)

        driver = None
        if inode.is_chardev:
            driver = self.devices.lookup(inode.rdev)
        file = OpenFile(dentry, inode, flags, fpath, driver=driver,
                        fid=next(self._file_ids))
        self._check(self.security.file_open(task, file), "open %s", (norm,))
        if driver is not None:
            driver.open(task, file)
        if raw & _O_TRUNC and inode.is_regular and not inode.is_pseudo:
            inode.truncate(0)
        if raw & _O_APPEND and inode.is_regular and not inode.is_pseudo:
            file.pos = inode.size
        return task.install_fd(FdKind.FILE, file)

    def sys_close(self, task: Task, fd: int) -> None:
        self._count("close")
        entry = task.remove_fd(fd)
        if entry.kind is FdKind.FILE:
            file: OpenFile = entry.obj
            if not file.closed:
                file.closed = True
                if file.driver is not None:
                    file.driver.release(task, file)
        elif entry.kind is FdKind.PIPE_READ:
            entry.obj.close_reader()
        elif entry.kind is FdKind.PIPE_WRITE:
            entry.obj.close_writer()
        elif entry.kind is FdKind.SOCKET:
            sock: Socket = entry.obj
            self.net.close_listener(sock)

    def sys_read(self, task: Task, fd: int, count: int) -> bytes:
        self._count("read")
        entry = task.get_fd(fd)
        if entry.kind is FdKind.PIPE_READ:
            return entry.obj.read(count)
        if entry.kind is FdKind.SOCKET:
            return self.sys_recv(task, fd, count)
        if entry.kind is not FdKind.FILE:
            raise KernelError(Errno.EBADF, f"fd {fd}")
        file: OpenFile = entry.obj
        file.require_readable()
        self._check(self.security.file_permission(task, file, MAY_READ),
                    "read %s", (file.path,))
        inode = file.inode
        if inode.is_pseudo:
            if inode.pseudo_ops.read is None:
                raise KernelError(Errno.EINVAL, f"{file.path} is write-only")
            content = inode.pseudo_ops.read(task)
            data = content[file.pos:file.pos + count]
            file.pos += len(data)
            return data
        if file.driver is not None:
            return file.driver.read(task, file, count)
        data = inode.read_at(file.pos, count)
        file.pos += len(data)
        inode.atime_ns = self.clock.now_ns
        return data

    def sys_write(self, task: Task, fd: int, data: bytes) -> int:
        self._count("write")
        entry = task.get_fd(fd)
        if entry.kind is FdKind.PIPE_WRITE:
            return entry.obj.write(data)
        if entry.kind is FdKind.SOCKET:
            return self.sys_send(task, fd, data)
        if entry.kind is not FdKind.FILE:
            raise KernelError(Errno.EBADF, f"fd {fd}")
        file: OpenFile = entry.obj
        file.require_writable()
        self._check(self.security.file_permission(task, file, MAY_WRITE),
                    "write %s", (file.path,))
        inode = file.inode
        if inode.is_pseudo:
            ops = inode.pseudo_ops
            if ops.write is None:
                raise KernelError(Errno.EINVAL, f"{file.path} is read-only")
            if ops.write_cap is not None and not self.capable(
                    task, ops.write_cap):
                raise KernelError(Errno.EPERM, f"{file.path}: requires "
                                               f"{ops.write_cap.value}")
            return ops.write(task, bytes(data))
        if file.driver is not None:
            return file.driver.write(task, file, bytes(data))
        written = inode.write_at(file.pos, bytes(data))
        file.pos += written
        inode.mtime_ns = self.clock.now_ns
        return written

    def sys_ioctl(self, task: Task, fd: int, cmd: int, arg: int = 0) -> int:
        self._count("ioctl")
        entry = task.get_fd(fd)
        if entry.kind is not FdKind.FILE:
            raise KernelError(Errno.ENOTTY, f"fd {fd}")
        file: OpenFile = entry.obj
        file.require_open()
        self._check(self.security.file_ioctl(task, file, cmd, arg),
                    "ioctl %s cmd=%s", (file.path, cmd))
        if file.driver is None:
            raise KernelError(Errno.ENOTTY, file.path)
        return file.driver.ioctl(task, file, cmd, arg)

    def sys_stat(self, task: Task, path: str) -> Dict[str, object]:
        self._count("stat")
        dentry, resolved = self.vfs.lookup(path, task.cwd)
        self._check(self.security.inode_getattr(task, resolved),
                    "stat %s", (path,))
        return dentry.inode.stat()

    def sys_mkdir(self, task: Task, path: str, mode: int = 0o755) -> None:
        self._count("mkdir")
        norm = normalize(path, task.cwd)
        parent = self.vfs.resolve(norm.rsplit("/", 1)[0] or "/")
        self._dac_permission(task, parent.inode, MAY_WRITE, norm)
        self._check(self.security.inode_mkdir(task, parent.inode, norm, mode),
                    "mkdir %s", (norm,))
        self.vfs.mkdir(norm, mode=mode, uid=task.cred.euid, gid=task.cred.egid)

    def sys_rmdir(self, task: Task, path: str) -> None:
        self._count("rmdir")
        dentry, resolved = self.vfs.lookup(path, task.cwd,
                                           follow_symlinks=False)
        self._check(self.security.inode_rmdir(task, dentry.inode, resolved),
                    "rmdir %s", (path,))
        self.vfs.rmdir(resolved)

    def sys_unlink(self, task: Task, path: str) -> None:
        self._count("unlink")
        dentry, resolved = self.vfs.lookup(path, task.cwd,
                                           follow_symlinks=False)
        parent = dentry.parent
        if parent is not None:
            self._dac_permission(task, parent.inode, MAY_WRITE, path)
        self._check(self.security.inode_unlink(task, dentry.inode, resolved),
                    "unlink %s", (path,))
        self.vfs.unlink(resolved)

    def sys_rename(self, task: Task, old: str, new: str) -> None:
        self._count("rename")
        old_norm = normalize(old, task.cwd)
        new_norm = normalize(new, task.cwd)
        self._check(self.security.inode_rename(task, old_norm, new_norm),
                    "rename %s -> %s", (old_norm, new_norm))
        self.vfs.rename(old_norm, new_norm)

    def sys_mknod(self, task: Task, path: str, rdev: Tuple[int, int],
                  mode: int = 0o600) -> None:
        self._count("mknod")
        if not self.capable(task, Capability.CAP_MKNOD):
            raise KernelError(Errno.EPERM, f"mknod {path}")
        norm = normalize(path, task.cwd)
        parent = self.vfs.resolve(norm.rsplit("/", 1)[0] or "/")
        self._check(self.security.inode_mknod(task, parent.inode, norm, mode),
                    "mknod %s", (norm,))
        self.vfs.mknod(norm, rdev, mode=mode, uid=task.cred.euid,
                       gid=task.cred.egid)

    def sys_chdir(self, task: Task, path: str) -> None:
        self._count("chdir")
        dentry, resolved = self.vfs.lookup(path, task.cwd)
        if not dentry.inode.is_dir:
            raise KernelError(Errno.ENOTDIR, path)
        task.cwd = resolved

    def sys_chmod(self, task: Task, path: str, mode: int) -> None:
        self._count("chmod")
        dentry, resolved = self.vfs.lookup(path, task.cwd)
        inode = dentry.inode
        if (task.cred.euid != inode.uid
                and not self.capable(task, Capability.CAP_FOWNER)):
            raise KernelError(Errno.EPERM, f"chmod {path}")
        self._check(self.security.inode_setattr(task, resolved),
                    "chmod %s", (path,))
        inode.mode = mode & 0o7777

    def sys_chown(self, task: Task, path: str, uid: int, gid: int) -> None:
        self._count("chown")
        dentry, resolved = self.vfs.lookup(path, task.cwd)
        if not self.capable(task, Capability.CAP_CHOWN):
            raise KernelError(Errno.EPERM, f"chown {path}")
        self._check(self.security.inode_setattr(task, resolved),
                    "chown %s", (path,))
        dentry.inode.uid = uid
        dentry.inode.gid = gid

    def sys_lseek(self, task: Task, fd: int, pos: int) -> int:
        self._count("lseek")
        entry = task.get_fd(fd)
        if entry.kind is not FdKind.FILE:
            raise KernelError(Errno.ESPIPE, f"fd {fd}")
        file: OpenFile = entry.obj
        file.require_open()
        if pos < 0:
            raise KernelError(Errno.EINVAL, "negative offset")
        file.pos = pos
        return pos

    # -- pipes / sockets --------------------------------------------------------
    def sys_pipe(self, task: Task) -> Tuple[int, int]:
        self._count("pipe")
        pipe = Pipe()
        r_fd = task.install_fd(FdKind.PIPE_READ, pipe)
        w_fd = task.install_fd(FdKind.PIPE_WRITE, pipe)
        return r_fd, w_fd

    def sys_socket(self, task: Task, family: SocketFamily) -> int:
        self._count("socket")
        self._check(self.security.socket_create(task, family),
                    "socket %s", (family.value,))
        sock = self.net.socket(family)
        return task.install_fd(FdKind.SOCKET, sock)

    def _sock_of(self, task: Task, fd: int) -> Socket:
        entry = task.get_fd(fd)
        if entry.kind is not FdKind.SOCKET:
            raise KernelError(Errno.EBADF, f"fd {fd} is not a socket")
        return entry.obj

    def sys_bind(self, task: Task, fd: int, addr: object) -> None:
        self._count("bind")
        sock = self._sock_of(task, fd)
        self._check(self.security.socket_bind(task, sock, addr),
                    "bind %s", (addr,))
        self.net.bind(sock, addr)

    def sys_listen(self, task: Task, fd: int, backlog: int = 16) -> None:
        self._count("listen")
        sock = self._sock_of(task, fd)
        self._check(self.security.socket_listen(task, sock), "listen")
        self.net.listen(sock, backlog)

    def sys_connect(self, task: Task, fd: int, addr: object) -> None:
        self._count("connect")
        sock = self._sock_of(task, fd)
        self._check(self.security.socket_connect(task, sock, addr),
                    "connect %s", (addr,))
        self.net.connect(sock, addr)

    def sys_accept(self, task: Task, fd: int) -> int:
        self._count("accept")
        listener = self._sock_of(task, fd)
        self._check(self.security.socket_accept(task, listener), "accept")
        conn = self.net.accept(listener)
        return task.install_fd(FdKind.SOCKET, conn)

    def sys_send(self, task: Task, fd: int, data: bytes) -> int:
        self._count("send")
        sock = self._sock_of(task, fd)
        self._check(self.security.socket_sendmsg(task, sock, len(data)),
                    "send")
        return sock.send(data)

    def sys_recv(self, task: Task, fd: int, count: int) -> bytes:
        self._count("recv")
        sock = self._sock_of(task, fd)
        self._check(self.security.socket_recvmsg(task, sock, count), "recv")
        return sock.recv(count)

    # -- memory ----------------------------------------------------------------
    def sys_mmap(self, task: Task, length: int, prot: MapProt,
                 fd: Optional[int] = None, offset: int = 0) -> VmArea:
        self._count("mmap")
        inode = None
        file = None
        if fd is not None:
            entry = task.get_fd(fd)
            if entry.kind is not FdKind.FILE:
                raise KernelError(Errno.EBADF, f"fd {fd}")
            file = entry.obj
            file.require_open()
            inode = file.inode
            if not inode.is_regular or inode.is_pseudo:
                raise KernelError(Errno.ENODEV, file.path)
        self._check(self.security.mmap_file(task, file, int(prot)), "mmap")
        return task.mm.add(VmArea(length, prot, inode=inode, offset=offset,
                                  area_id=next(self._vma_ids)))

    def sys_munmap(self, task: Task, area: VmArea) -> None:
        self._count("munmap")
        task.mm.remove(area.id)

    # -- convenience (used by SDS / IVI user-space code) -------------------------
    def write_file(self, task: Task, path: str, data: bytes,
                   create: bool = True, append: bool = False) -> int:
        """open+write+close helper used heavily by user-space components."""
        flags = OpenFlags.O_WRONLY
        if create:
            flags |= OpenFlags.O_CREAT
        if append:
            flags |= OpenFlags.O_APPEND
        fd = self.sys_open(task, path, flags)
        try:
            return self.sys_write(task, fd, data)
        finally:
            self.sys_close(task, fd)

    def read_file(self, task: Task, path: str,
                  count: int = 1 << 20) -> bytes:
        fd = self.sys_open(task, path, OpenFlags.O_RDONLY)
        try:
            return self.sys_read(task, fd, count)
        finally:
            self.sys_close(task, fd)

"""Simulated Linux kernel substrate.

Everything the SACK reproduction needs from an operating system: a virtual
clock, credentials and capabilities, a VFS, character devices, IPC, an mmap
layer, processes, a scheduler, and a syscall layer that invokes security
hooks at the same points the real kernel does.
"""

from .clock import VirtualClock
from .credentials import (Capability, Credentials, ROOT_CREDENTIALS,
                          user_credentials)
from .devices import CAR_DEVICE_MAJOR, CharDevice, DeviceRegistry
from .errors import Errno, KernelError
from .ipc import NetworkStack, Pipe, Socket, SocketFamily
from .memory import AddressSpace, MapProt, PAGE_SIZE, VmArea
from .process import FdKind, ProcessTable, Task, TaskState
from .scheduler import SchedContext, Scheduler
from .security import NullSecurity, SecurityHooks
from .syscalls import Kernel, MAY_EXEC, MAY_READ, MAY_WRITE
from .vfs import OpenFlags, VirtualFileSystem

__all__ = [
    "VirtualClock", "Capability", "Credentials", "ROOT_CREDENTIALS",
    "user_credentials", "CharDevice", "DeviceRegistry", "CAR_DEVICE_MAJOR",
    "Errno", "KernelError", "NetworkStack", "Pipe", "Socket", "SocketFamily",
    "AddressSpace", "MapProt", "PAGE_SIZE", "VmArea", "FdKind",
    "ProcessTable", "Task", "TaskState", "SchedContext", "Scheduler",
    "NullSecurity", "SecurityHooks", "Kernel", "MAY_EXEC", "MAY_READ",
    "MAY_WRITE", "OpenFlags", "VirtualFileSystem",
]

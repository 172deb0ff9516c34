"""Vehicle device drivers: the CAV hardware behind ``/dev/car/*``.

These are the fine-grained kernel objects the paper argues MAC should
govern directly (§II-B): doors, windows, audio, engine, speedometer.  Each
driver implements the char-device file operations and broadcasts state
changes on the CAN bus.

The ioctl command numbers are exported as :data:`IOCTL_SYMBOLS` so SACK
policies can reference them by name (``cmd=DOOR_UNLOCK``).
"""

from __future__ import annotations

from typing import Dict

from ..kernel.devices import CharDevice, ioc_r, ioc_w
from ..kernel.errors import Errno, KernelError
from ..kernel.vfs.file import OpenFile
from .can import (CAN_ID_AUDIO, CAN_ID_DOOR, CAN_ID_ENGINE, CAN_ID_WINDOW,
                  CanBus, CanFrame)

# ioctl command numbers (stable ABI for policies and apps).  Direction
# bits follow the Linux _IOC convention: state-changing commands are
# write-direction, queries are read-direction — AppArmor mediates them as
# write/read access to the node respectively.
DOOR_LOCK = ioc_w(0x101)
DOOR_UNLOCK = ioc_w(0x102)
WINDOW_UP = ioc_w(0x201)
WINDOW_DOWN = ioc_w(0x202)
WINDOW_SET = ioc_w(0x203)
VOLUME_SET = ioc_w(0x301)
VOLUME_GET = ioc_r(0x302)
ENGINE_START = ioc_w(0x401)
ENGINE_STOP = ioc_w(0x402)

IOCTL_SYMBOLS: Dict[str, int] = {
    "DOOR_LOCK": DOOR_LOCK,
    "DOOR_UNLOCK": DOOR_UNLOCK,
    "WINDOW_UP": WINDOW_UP,
    "WINDOW_DOWN": WINDOW_DOWN,
    "WINDOW_SET": WINDOW_SET,
    "VOLUME_SET": VOLUME_SET,
    "VOLUME_GET": VOLUME_GET,
    "ENGINE_START": ENGINE_START,
    "ENGINE_STOP": ENGINE_STOP,
}


class CarDevice(CharDevice):
    """Base for vehicle devices: CAN broadcasting plus a clock."""

    can_id = 0

    def __init__(self, name: str, bus: CanBus, clock):
        super().__init__(name)
        self.bus = bus
        self.clock = clock

    def broadcast(self, data: bytes) -> None:
        self.bus.send(CanFrame(self.can_id, data,
                               timestamp_ns=self.clock.now_ns))


class DoorDevice(CarDevice):
    """Central door locking.  ``arg`` selects the door (0 = all)."""

    can_id = CAN_ID_DOOR
    NUM_DOORS = 4

    def __init__(self, bus: CanBus, clock):
        super().__init__("door", bus, clock)
        self.locked = [True] * self.NUM_DOORS

    @property
    def all_locked(self) -> bool:
        return all(self.locked)

    def _set(self, locked: bool, door: int) -> None:
        if door == 0:
            self.locked = [locked] * self.NUM_DOORS
        elif 1 <= door <= self.NUM_DOORS:
            self.locked[door - 1] = locked
        else:
            raise KernelError(Errno.EINVAL, f"no door {door}")
        self.broadcast(bytes([0x01 if locked else 0x00, door]))

    def ioctl(self, task, file: OpenFile, cmd: int, arg: int) -> int:
        if cmd == DOOR_LOCK:
            self._set(True, arg)
            return 0
        if cmd == DOOR_UNLOCK:
            self._set(False, arg)
            return 0
        raise KernelError(Errno.ENOTTY, f"door: unknown ioctl {cmd:#x}")

    def write(self, task, file: OpenFile, data: bytes) -> int:
        """Text command interface: ``lock``/``unlock`` [door-number]."""
        parts = data.decode("ascii", "replace").split()
        if not parts or parts[0] not in ("lock", "unlock"):
            raise KernelError(Errno.EINVAL, f"door: bad command {data!r}")
        door = int(parts[1]) if len(parts) > 1 else 0
        self._set(parts[0] == "lock", door)
        return len(data)

    def read(self, task, file: OpenFile, count: int) -> bytes:
        state = " ".join("locked" if l else "unlocked" for l in self.locked)
        return state.encode()[:count]


class WindowDevice(CarDevice):
    """Power windows: position 0 (closed) … 100 (fully open)."""

    can_id = CAN_ID_WINDOW
    STEP = 25

    def __init__(self, bus: CanBus, clock):
        super().__init__("window", bus, clock)
        self.position = 0

    def _move(self, position: int) -> None:
        self.position = max(0, min(100, position))
        self.broadcast(bytes([self.position]))

    def ioctl(self, task, file: OpenFile, cmd: int, arg: int) -> int:
        if cmd == WINDOW_DOWN:
            self._move(self.position + self.STEP)
            return self.position
        if cmd == WINDOW_UP:
            self._move(self.position - self.STEP)
            return self.position
        if cmd == WINDOW_SET:
            if not 0 <= arg <= 100:
                raise KernelError(Errno.EINVAL, f"window: position {arg}")
            self._move(arg)
            return self.position
        raise KernelError(Errno.ENOTTY, f"window: unknown ioctl {cmd:#x}")

    def read(self, task, file: OpenFile, count: int) -> bytes:
        return f"{self.position}".encode()[:count]


class AudioDevice(CarDevice):
    """IVI audio: volume 0…100 (CVE-2023-6073's attack surface)."""

    can_id = CAN_ID_AUDIO
    MAX_VOLUME = 100

    def __init__(self, bus: CanBus, clock):
        super().__init__("audio", bus, clock)
        self.volume = 20

    def ioctl(self, task, file: OpenFile, cmd: int, arg: int) -> int:
        if cmd == VOLUME_SET:
            if not 0 <= arg <= self.MAX_VOLUME:
                raise KernelError(Errno.EINVAL, f"audio: volume {arg}")
            self.volume = arg
            self.broadcast(bytes([self.volume]))
            return self.volume
        if cmd == VOLUME_GET:
            return self.volume
        raise KernelError(Errno.ENOTTY, f"audio: unknown ioctl {cmd:#x}")

    def read(self, task, file: OpenFile, count: int) -> bytes:
        return f"{self.volume}".encode()[:count]


class EngineDevice(CarDevice):
    """Engine start/stop, wired to the dynamics model."""

    can_id = CAN_ID_ENGINE

    def __init__(self, bus: CanBus, clock, dynamics):
        super().__init__("engine", bus, clock)
        self.dynamics = dynamics

    def ioctl(self, task, file: OpenFile, cmd: int, arg: int) -> int:
        if cmd == ENGINE_START:
            self.dynamics.start_engine()
            self.broadcast(b"\x01")
            return 0
        if cmd == ENGINE_STOP:
            self.dynamics.stop_engine()
            self.broadcast(b"\x00")
            return 0
        raise KernelError(Errno.ENOTTY, f"engine: unknown ioctl {cmd:#x}")


class SpeedometerDevice(CarDevice):
    """Read-only speed telemetry."""

    can_id = 0x0C0

    def __init__(self, bus: CanBus, clock, dynamics):
        super().__init__("speedometer", bus, clock)
        self.dynamics = dynamics

    def read(self, task, file: OpenFile, count: int) -> bytes:
        return f"{self.dynamics.speed_kmh:.1f}".encode()[:count]

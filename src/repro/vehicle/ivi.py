"""The in-vehicle infotainment (IVI) world: a full system assembly.

Builds a booted kernel with a chosen enforcement configuration, the
``/dev/car`` device nodes wired to a dynamics model and CAN bus, the IVI
services as processes (media app, navigation, volume service, rescue
daemon, ignition service, SDS), AppArmor profiles for them, the default
SACK policy from the paper's running example, and the *bypassable*
user-space permission framework the paper's motivation section attacks.

This is the shared substrate for the case study (E6), the KOFFEE attack
(E7), the compatibility experiment (E8) and the examples.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional

from ..apparmor import AppArmorLsm, PolicyDb, load_ubuntu_defaults
from ..kernel import (Capability, Kernel, KernelError, OpenFlags,
                      user_credentials)
from ..kernel.process import Task
from ..lsm import LsmFramework, PolicyCache, boot_kernel
from ..sack import SackAppArmorBridge, SackFs, SackLsm, parse_policy
from ..sds import SituationDetectionService
from .can import CanBus
from .devices import (AudioDevice, DoorDevice, EngineDevice, IOCTL_SYMBOLS,
                      SpeedometerDevice, WindowDevice)
from .dynamics import VehicleDynamics


class EnforcementConfig(enum.Enum):
    """Which kernel-side enforcement the world boots with."""

    NO_LSM = "none"                      # user-space checks only
    APPARMOR = "apparmor"                # Table II baseline
    SACK_INDEPENDENT = "sack-independent"
    SACK_APPARMOR = "sack-apparmor"      # SACK-enhanced AppArmor


#: The SACK stack behind each ``mode`` name the fleet, chaos, replay and
#: suite surfaces accept.
SACK_MODES: Dict[str, EnforcementConfig] = {
    "independent": EnforcementConfig.SACK_INDEPENDENT,
    "apparmor": EnforcementConfig.SACK_APPARMOR,
}


def sack_mode(mode: str) -> EnforcementConfig:
    """The stack for *mode*; ``ValueError`` naming the accepted modes."""
    config = SACK_MODES.get(mode)
    if config is None:
        raise ValueError(f"unknown mode {mode!r}; accepted modes: "
                         f"{', '.join(sorted(SACK_MODES))}")
    return config


#: uid of the SDS daemon (authorised to write SACK events).
SDS_UID = 990

#: The IVI services: name -> (uid, user-space permissions granted).
IVI_APPS: Dict[str, tuple] = {
    "media_app": (1001, {"PLAY_MEDIA", "SET_VOLUME"}),
    "nav_app": (1002, {"READ_LOCATION"}),
    "volume_service": (1003, {"SET_VOLUME"}),
    "ignition_service": (1004, {"ENGINE_CONTROL"}),
    "rescue_daemon": (0, {"CONTROL_CAR_DOORS"}),
    "sds": (SDS_UID, {"REPORT_SITUATION"}),
}


# The paper's Fig. 2 state machine + the case-study and CVE policies.
DEFAULT_SACK_POLICY = """
policy ivi_default;
initial parking_with_driver;

states {
  driving = 0 "vehicle moving normally";
  parking_with_driver = 1 "parked, driver present";
  parking_without_driver = 2 "parked, unattended";
  emergency = 3 "crash or other emergency";
}

transitions {
  parking_with_driver -> driving on vehicle_started;
  driving -> parking_with_driver on vehicle_parked;
  parking_with_driver -> parking_without_driver on driver_left;
  parking_without_driver -> parking_with_driver on driver_returned;
  * -> emergency on crash_detected;
  emergency -> parking_with_driver on emergency_cleared;
}

permissions {
  NORMAL "read-only vehicle telemetry";
  CONTROL_CAR_DOORS "door and window actuation (rescue)";
  AUDIO_FULL "set audio volume";
  AUDIO_SAFE "query audio volume";
  ENGINE_CONTROL "start/stop the engine";
}

state_per {
  driving: NORMAL, AUDIO_SAFE;
  parking_with_driver: NORMAL, AUDIO_FULL, AUDIO_SAFE, ENGINE_CONTROL;
  parking_without_driver: NORMAL, AUDIO_SAFE;
  emergency: NORMAL, CONTROL_CAR_DOORS, AUDIO_SAFE;
}

per_rules {
  NORMAL {
    allow read /dev/car/**;
  }
  CONTROL_CAR_DOORS {
    allow ioctl /dev/car/door cmd=DOOR_LOCK,DOOR_UNLOCK subject=rescue_daemon;
    allow write /dev/car/door subject=rescue_daemon;
    allow ioctl /dev/car/window cmd=WINDOW_UP,WINDOW_DOWN,WINDOW_SET subject=rescue_daemon;
  }
  AUDIO_FULL {
    allow ioctl /dev/car/audio cmd=VOLUME_SET,VOLUME_GET subject=volume_service;
  }
  AUDIO_SAFE {
    allow ioctl /dev/car/audio cmd=VOLUME_GET;
  }
  ENGINE_CONTROL {
    allow ioctl /dev/car/engine cmd=ENGINE_START,ENGINE_STOP subject=ignition_service;
  }
}

guard /dev/car/**;

# Fail safe: on unrecoverable enforcement failure — or a silent event
# channel — assume the worst and degrade to emergency lockdown.
failsafe emergency after 2000ms;

targets {
  media_app;
  nav_app;
  volume_service;
  ignition_service;
  rescue_daemon;
}
"""


# Static AppArmor profiles for the IVI services.  Note: no write access to
# /dev/car/* here — in SACK-enhanced mode the bridge injects it per state.
IVI_APPARMOR_PROFILES = """
profile media_app /usr/bin/media_app {
  /usr/bin/media_app rm,
  /usr/lib/** rm,
  /var/media/** rw,
  /dev/car/audio r,
  /dev/car/speedometer r,
  network unix stream,
}

profile nav_app /usr/bin/nav_app {
  /usr/bin/nav_app rm,
  /usr/lib/** rm,
  /var/nav/** rw,
  /dev/car/speedometer r,
  network inet stream,
}

profile volume_service /usr/bin/volume_service {
  /usr/bin/volume_service rm,
  /usr/lib/** rm,
  /dev/car/audio r,
  network unix stream,
}

profile ignition_service /usr/bin/ignition_service {
  /usr/bin/ignition_service rm,
  /usr/lib/** rm,
  /dev/car/engine r,
}

profile rescue_daemon /usr/bin/rescue_daemon {
  /usr/bin/rescue_daemon rm,
  /usr/lib/** rm,
  /dev/car/** r,
  /var/log/rescue.log rw,
}

profile sds /usr/bin/sds {
  /usr/bin/sds rm,
  /usr/lib/** rm,
  /dev/car/** r,
  /sys/kernel/security/SACK/events w,
}
"""


@dataclasses.dataclass(eq=False)
class SecurityStack:
    """A booted kernel and its enforcement modules: no devices, no apps."""

    config: EnforcementConfig
    kernel: Kernel
    framework: Optional[LsmFramework] = None
    apparmor: Optional[AppArmorLsm] = None
    sack: Optional[SackLsm] = None
    bridge: Optional[SackAppArmorBridge] = None
    sackfs: Optional[SackFs] = None
    fault_plan: object = None
    policy_cache: Optional[PolicyCache] = None

    @property
    def module(self):
        """The SACK module (independent or bridge), or None."""
        return self.sack or self.bridge

    def activate(self, policy_text: str) -> None:
        """Mount SACKfs and write *policy_text* through it, the one SACK
        activation path.  A stack without a SACK module stays as it is."""
        module = self.module
        if module is None:
            return
        self.sackfs = SackFs(self.kernel, module,
                             authorized_event_uids={SDS_UID},
                             ioctl_symbols=IOCTL_SYMBOLS,
                             fault_plan=self.fault_plan,
                             policy_cache=self.policy_cache)
        self.load_policy(policy_text)

    def load_policy(self, policy_text: str) -> None:
        """Write *policy_text* through SACKfs as root; a refused load
        raises :class:`KernelError` and leaves the old policy enforcing."""
        self.kernel.write_file(self.kernel.procs.init,
                               "/sys/kernel/security/SACK/policy",
                               policy_text.encode(), create=False)


def build_stack(config: EnforcementConfig,
                policy_text: Optional[str] = DEFAULT_SACK_POLICY,
                with_ubuntu_profiles: bool = False,
                fault_plan=None,
                policy_cache: Optional[PolicyCache] = None
                ) -> SecurityStack:
    """Boot a kernel with *config*'s enforcement stack.

    The AppArmor store (with the IVI profiles, and Ubuntu's on request)
    backs AppArmor and the bridge; then the kernel boots with the SACK
    module or bridge, and *policy_text* goes in through SACKfs.  With
    ``policy_text=None`` SACK stays inactive until the caller runs
    :meth:`SecurityStack.activate`, as :func:`build_ivi_world` does once
    its apps have exec'd.  *fault_plan* reaches the bridge's profile
    reload and the SACKfs channel; *policy_cache* is the parsed-text
    cache the AppArmor store and SACKfs read through (a private one when
    not given).
    """
    config = EnforcementConfig(config)
    if policy_cache is None:
        policy_cache = PolicyCache()
    apparmor = None
    sack = None
    bridge = None
    modules = []
    if config in (EnforcementConfig.APPARMOR, EnforcementConfig.SACK_APPARMOR):
        apparmor = AppArmorLsm(PolicyDb(policy_cache))
        if with_ubuntu_profiles:
            load_ubuntu_defaults(apparmor.policy)
        apparmor.policy.load_text(IVI_APPARMOR_PROFILES)
    if config is EnforcementConfig.SACK_INDEPENDENT:
        sack = SackLsm()
        modules = [sack]
    elif config is EnforcementConfig.SACK_APPARMOR:
        bridge = SackAppArmorBridge(apparmor, fault_plan=fault_plan)
        modules = [bridge, apparmor]
    elif config is EnforcementConfig.APPARMOR:
        modules = [apparmor]

    if modules:
        kernel, framework = boot_kernel(modules)
    else:
        kernel, framework = Kernel(), None
    stack = SecurityStack(config, kernel, framework, apparmor=apparmor,
                          sack=sack, bridge=bridge, fault_plan=fault_plan,
                          policy_cache=policy_cache)
    if policy_text is not None:
        stack.activate(policy_text)
    return stack


class PermissionDenied(Exception):
    """User-space permission framework denial (the bypassable layer)."""


class PermissionFramework:
    """The user-space permission framework of the IVI middleware.

    This is the layer the paper's motivation shows attackers bypassing
    (KOFFEE, CVE-2023-6073): a cooperative check that well-behaved apps
    call before touching hardware.  Nothing forces a compromised app
    through it — that is exactly SACK's point.
    """

    def __init__(self, grants: Optional[Dict[str, set]] = None):
        self.grants: Dict[str, set] = {name: set(perms)
                                       for name, (_, perms) in IVI_APPS.items()}
        if grants:
            for app, perms in grants.items():
                self.grants.setdefault(app, set()).update(perms)
        self.checks = 0
        self.denials = 0

    def check(self, app: str, permission: str) -> None:
        self.checks += 1
        if permission not in self.grants.get(app, ()):
            self.denials += 1
            raise PermissionDenied(f"{app} lacks {permission}")

    def grant(self, app: str, permission: str) -> None:
        self.grants.setdefault(app, set()).add(permission)

    def revoke(self, app: str, permission: str) -> None:
        self.grants.get(app, set()).discard(permission)


class IviWorld(SecurityStack):
    """A fully assembled IVI system: a security stack plus the car."""

    def __init__(self, stack: SecurityStack, dynamics: VehicleDynamics,
                 bus: CanBus, devices: Dict[str, object],
                 tasks: Dict[str, Task],
                 permission_framework: PermissionFramework,
                 sds: Optional[SituationDetectionService] = None):
        super().__init__(**vars(stack))
        self.dynamics = dynamics
        self.bus = bus
        self.devices = devices
        self.tasks = tasks
        self.permissions = permission_framework
        self.sds = sds

    # -- situation helpers ------------------------------------------------------
    @property
    def situation(self) -> Optional[str]:
        module = self.module
        if module is None or module.ssm is None:
            return None
        return module.ssm.current_name

    def task(self, app: str) -> Task:
        return self.tasks[app]

    def load_policy(self, policy_text: str) -> None:
        """Load *policy_text*, then resync the attached SDS: the load
        restarts the SSM in the policy's initial state, and the next
        sweep re-emits the situation the vehicle is physically in."""
        super().load_policy(policy_text)
        if self.sds is not None:
            self.sds.resync()

    def run_sds(self, ticks: int = 1, dt_s: float = 0.1) -> list:
        """Advance the world: dynamics steps + SDS polls.  The clock
        advance fires the staleness watchdog, with or without an SDS."""
        if self.sds is None:
            for _ in range(ticks):
                self.dynamics.step(dt_s)
                self.kernel.clock.advance_s(dt_s)
            return []
        return self.sds.run(ticks, dt_s=dt_s)

    def drive_to_speed(self, speed_kmh: float, accel_ms2: float = 3.0,
                       max_ticks: int = 2000) -> None:
        """Start the engine and accelerate until *speed_kmh* is reached."""
        self.dynamics.start_engine()
        self.dynamics.accelerate(accel_ms2)
        ticks = 0
        while self.dynamics.speed_kmh < speed_kmh and ticks < max_ticks:
            self.run_sds(1)
            ticks += 1
        self.dynamics.cruise()
        self.run_sds(1)

    def park(self, decel_ms2: float = 4.0, max_ticks: int = 2000) -> None:
        self.dynamics.accelerate(-abs(decel_ms2))
        ticks = 0
        while self.dynamics.is_moving and ticks < max_ticks:
            self.run_sds(1)
            ticks += 1
        self.dynamics.stop_engine()
        self.run_sds(1)

    def trigger_crash(self) -> None:
        """A collision: dynamics crash + SDS detection cycle."""
        self.dynamics.crash()
        self.run_sds(2)

    def clear_emergency(self) -> None:
        self.dynamics.clear_emergency()
        self.run_sds(2)

    # -- device access paths ------------------------------------------------------
    def device_ioctl(self, app: str, device: str, cmd: int,
                     arg: int = 0) -> int:
        """Direct device access by *app* (kernel-mediated, of course)."""
        task = self.task(app)
        fd = self.kernel.sys_open(task, f"/dev/car/{device}",
                                  OpenFlags.O_RDONLY)
        try:
            return self.kernel.sys_ioctl(task, fd, cmd, arg)
        finally:
            self.kernel.sys_close(task, fd)

    def request_volume(self, app: str, level: int) -> int:
        """The legitimate path: framework check, then the volume service
        (the deputy actually holding kernel-side permission) sets it."""
        from .devices import VOLUME_SET
        self.permissions.check(app, "SET_VOLUME")
        return self.device_ioctl("volume_service", "audio", VOLUME_SET, level)

    def rescue_unlock_doors(self) -> int:
        """The rescue daemon's emergency action (case study, Fig. 4)."""
        from .devices import DOOR_UNLOCK, WINDOW_SET
        self.permissions.check("rescue_daemon", "CONTROL_CAR_DOORS")
        rc = self.device_ioctl("rescue_daemon", "door", DOOR_UNLOCK, 0)
        self.device_ioctl("rescue_daemon", "window", WINDOW_SET, 100)
        return rc


def build_ivi_world(config: EnforcementConfig = EnforcementConfig.SACK_INDEPENDENT,
                    policy_text: str = DEFAULT_SACK_POLICY,
                    with_ubuntu_profiles: bool = False,
                    with_sds: bool = True,
                    initial_speed_kmh: float = 0.0,
                    fault_plan=None,
                    policy_cache: Optional[PolicyCache] = None) -> IviWorld:
    """Assemble and boot a complete IVI world.

    *fault_plan* (a :class:`~repro.faults.plan.FaultPlan`) is threaded to
    every layer that declares fault points: the SDS's sensors, the SACKfs
    channel, and the AppArmor bridge's profile reload.  *policy_cache*
    is the parsed-text cache the world's AppArmor store and SACKfs read
    through; worlds on one host pass the same one, and a world given none
    gets its own.
    """
    dynamics = VehicleDynamics(speed_kmh=initial_speed_kmh)
    bus = CanBus()
    stack = build_stack(config, policy_text=None,
                        with_ubuntu_profiles=with_ubuntu_profiles,
                        fault_plan=fault_plan, policy_cache=policy_cache)
    kernel = stack.kernel

    # Device nodes.
    devices = {
        "door": DoorDevice(bus, kernel.clock),
        "window": WindowDevice(bus, kernel.clock),
        "audio": AudioDevice(bus, kernel.clock),
        "engine": EngineDevice(bus, kernel.clock, dynamics),
        "speedometer": SpeedometerDevice(bus, kernel.clock, dynamics),
    }
    kernel.vfs.makedirs("/dev/car")
    for name, driver in devices.items():
        rdev = kernel.devices.alloc_rdev()
        kernel.devices.register(rdev, driver)
        kernel.vfs.mknod(f"/dev/car/{name}", rdev, mode=0o666)

    # App binaries, working dirs, and processes.
    init = kernel.procs.init
    for d in ("/var/media", "/var/nav", "/var/log"):
        kernel.vfs.makedirs(d)
    tasks: Dict[str, Task] = {}
    for name, (uid, _perms) in IVI_APPS.items():
        exe = f"/usr/bin/{name}"
        kernel.vfs.create_file(exe, mode=0o755)
        task = kernel.sys_fork(init)
        if uid == 0:
            # Privileged services keep root but never the MAC-bypass
            # capabilities — the paper's threat-model boundary (§III-A).
            task.cred = init.cred.dropping_caps(
                Capability.CAP_MAC_OVERRIDE, Capability.CAP_MAC_ADMIN)
        else:
            task.cred = user_credentials(uid)
        kernel.sys_execve(task, exe, comm=name)
        tasks[name] = task

    # The SACK policy goes in once the apps run.
    stack.activate(policy_text)

    sds = None
    if with_sds and stack.module is not None:
        sds = SituationDetectionService(kernel, tasks["sds"], dynamics,
                                        fault_plan=fault_plan)

    return IviWorld(stack, dynamics=dynamics, bus=bus, devices=devices,
                    tasks=tasks, permission_framework=PermissionFramework(),
                    sds=sds)

#!/usr/bin/env python3
"""SACK on a type-enforcement backend (SACK-enhanced SELinux).

The paper's policy design "separates policy and implementation to be
compatible with different enforcement approaches" (§III-D).  This example
proves the claim: the *same* SACK policy drives a completely different
MAC model — SELinux-style type enforcement — through the SELinux bridge,
which swaps the state's whole rule set into the access-vector table at
every situation transition, as one policy revision.

Run:  python examples/selinux_backend.py
"""

from repro.kernel import KernelError, user_credentials
from repro.lsm import boot_kernel
from repro.sack import SituationEvent, parse_policy
from repro.sack.selinux_bridge import SackSelinuxBridge
from repro.selinux import SelinuxLsm, parse_te_policy

TE_BASE = """
# Static TE base policy: domains, executables, device types.
type rescue_t;
type rescue_exec_t;
type media_t;
type media_exec_t;
type car_door_t;
type car_audio_t;

allow rescue_t rescue_exec_t : file { read execute };
allow media_t media_exec_t : file { read execute };
allow rescue_t car_door_t : chr_file { read getattr };
allow media_t car_audio_t : chr_file { read };
type_transition init_t rescue_exec_t : process rescue_t;
type_transition init_t media_exec_t : process media_t;
filecon /dev/car/door system_u:object_r:car_door_t;
filecon /dev/car/audio system_u:object_r:car_audio_t;
filecon /usr/bin/rescue_daemon system_u:object_r:rescue_exec_t;
filecon /usr/bin/media_app system_u:object_r:media_exec_t;
"""

SACK_POLICY = """
policy door_control_te;
initial normal;

states {
  normal = 0;
  emergency = 1;
}

transitions {
  normal -> emergency on crash_detected;
  emergency -> normal on emergency_cleared;
}

permissions {
  CONTROL_CAR_DOORS;
}

state_per {
  emergency: CONTROL_CAR_DOORS;
}

per_rules {
  CONTROL_CAR_DOORS {
    allow write /dev/car/door subject=rescue_daemon;
    allow ioctl /dev/car/door subject=rescue_daemon;
  }
}

guard /dev/car/**;
"""


def attempt(kernel, task, label):
    try:
        kernel.write_file(task, "/dev/car/door", b"unlock", create=False)
        print(f"  {label}: ALLOWED")
    except KernelError as err:
        print(f"  {label}: DENIED ({err.errno.name})")


def main():
    print("Booting CONFIG_LSM=\"sack,selinux\"...")
    selinux = SelinuxLsm(parse_te_policy(TE_BASE))
    bridge = SackSelinuxBridge(selinux, subject_domains={
        "rescue_daemon": "rescue_t", "media_app": "media_t"})
    kernel, fw = boot_kernel([bridge, selinux])
    print(f"  stack: {fw.config_lsm}")

    kernel.vfs.makedirs("/dev/car")
    kernel.vfs.create_file("/dev/car/door", mode=0o666)
    kernel.vfs.create_file("/dev/car/audio", mode=0o666)
    for exe in ("rescue_daemon", "media_app"):
        kernel.vfs.create_file(f"/usr/bin/{exe}", mode=0o755)

    bridge.load_policy(parse_policy(SACK_POLICY))
    print(f"  situation: {bridge.current_state}")

    rescue = kernel.sys_fork(kernel.procs.init)
    rescue.cred = user_credentials(0, caps=())
    kernel.sys_execve(rescue, "/usr/bin/rescue_daemon")
    media = kernel.sys_fork(kernel.procs.init)
    media.cred = user_credentials(0, caps=())
    kernel.sys_execve(media, "/usr/bin/media_app")
    print(f"  rescue daemon domain: {selinux.context_of(rescue)}")
    print(f"  media app domain:     {selinux.context_of(media)}")

    print("\n[normal] door writes:")
    attempt(kernel, rescue, "rescue_daemon")
    attempt(kernel, media, "media_app")

    print("\ncrash_detected -> the bridge rewrites the AV table:")
    bridge.ssm.process_event(SituationEvent(name="crash_detected"))
    print(f"  situation: {bridge.current_state}, "
          f"AV rules injected: {bridge.rules_injected}, "
          f"policy revision: {selinux.policy.revision}")
    attempt(kernel, rescue, "rescue_daemon")
    attempt(kernel, media, "media_app  ")

    print("\nemergency_cleared -> rules retracted:")
    bridge.ssm.process_event(SituationEvent(name="emergency_cleared"))
    attempt(kernel, rescue, "rescue_daemon")

    print(f"\nbridge: {bridge.stats()}")
    print("Same SACK policy text would drive AppArmor or independent")
    print("SACK unchanged — the State->Permission->MAC indirection is")
    print("what buys the backend independence.")


if __name__ == "__main__":
    main()

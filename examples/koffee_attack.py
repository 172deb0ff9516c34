#!/usr/bin/env python3
"""KOFFEE (CVE-2020-8539) and CVE-2023-6073 attack demonstration.

The attacker controls code inside the IVI media app.  It does NOT ask the
user-space permission framework for anything — it opens the device nodes
directly and injects ioctls, exactly the bypass the paper's motivation
describes.  Only kernel-level MAC can stop it; only *situation-aware*
kernel MAC can stop it while still letting the rescue daemon work in an
emergency.

Run:  python examples/koffee_attack.py
"""

from repro.obs import AUDIT_AVC
from repro.vehicle import (EnforcementConfig, KoffeeAttack, VolumeMaxAttack,
                           build_ivi_world)


def situation_worlds(config):
    """Yield (label, world) in three situations."""
    world = build_ivi_world(config)
    yield "parked", world
    world = build_ivi_world(config)
    world.drive_to_speed(60)
    yield "driving", world
    world = build_ivi_world(config)
    world.drive_to_speed(60)
    world.trigger_crash()
    yield "emergency", world


def main():
    print(f"{'configuration':>18} {'situation':>10} "
          f"{'KOFFEE doors':>14} {'CVE volume':>12}")
    print("-" * 58)
    for config in EnforcementConfig:
        for label, world in situation_worlds(config):
            koffee = KoffeeAttack(world).run()
            volume = VolumeMaxAttack(world).run()
            print(f"{config.value:>18} {label:>10} "
                  f"{'BLOCKED' if koffee.blocked else '** PWNED **':>14} "
                  f"{'BLOCKED' if volume.blocked else '** PWNED **':>12}")

    print()
    print("Reading the matrix:")
    print(" * none: user-space checks alone — the attacks always land")
    print("   (this is CVE-2020-8539 / CVE-2023-6073 as reported).")
    print(" * apparmor: static MAC blocks the attacks, but it would also")
    print("   block the rescue daemon in an emergency (no situations).")
    print(" * sack-*: attacks blocked in every situation, while the")
    print("   emergency rescue path still works (see the case study).")

    # Demonstrate the last claim explicitly.
    world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
    world.drive_to_speed(60)
    world.trigger_crash()
    assert KoffeeAttack(world).run().blocked
    world.rescue_unlock_doors()
    print(f"\nVerified: in the emergency the attacker stays blocked while "
          f"the rescue daemon opened the doors "
          f"(locked={world.devices['door'].all_locked}).")

    print("\nAudit trail of the blocked injections (last 3 records):")
    denials = world.kernel.obs.audit.query(kind=AUDIT_AVC, module="sack")
    for record in denials[-3:]:
        print(f"  {record.to_text()}")


if __name__ == "__main__":
    main()
